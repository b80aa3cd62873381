// qbench/src/synth_queries.cpp
//
// Workload `synth_queries`: one op is one synthesis query against a served
// cb = 7 catalog. Two closed-loop callers each issue a seeded Zipf-skewed
// stream of 3-qubit targets (NOT coset x G member); a fixed share of every
// caller's stream are cost-8 targets, which miss the catalog and fall
// through to a TopologySearchBackend fallback. No closure level is computed
// in the timed run: warm catalog hits set p50, the serialized search
// fallback sets the tail, and the skew makes the witness cache matter.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "harness.h"
#include "sim/cross_check.h"
#include "sim/fused.h"
#include "synth/catalog_server.h"
#include "synth/fmcf.h"
#include "synth/search/topology_search.h"

namespace qbench {
namespace {

using namespace qsyn;

// Two callers: with four, the hit path's contention made p50 and
// throughput swing about 0.2 of their medians between runs on a 4-vCPU
// host, against about 0.07-0.09 with two.
constexpr std::size_t kCallers = 2;
// Untimed closed-loop traffic before the timed window, so caches are warm
// and the callers have settled into their steady interleaving.
constexpr double kWarmupSeconds = 2.0;
constexpr unsigned kCatalogCost = 7;
constexpr unsigned kFallbackCost = 8;
// Every kMissPeriod-th op of a caller is a cost-8 target (a fixed 2% share).
constexpr std::uint64_t kMissPeriod = 50;
constexpr double kZipfExponent = 1.0;
// Cost-8 cores whose exact search effort a traced run probes.
constexpr std::size_t kSearchProbe = 32;
constexpr std::size_t kColdStartReps = 20;
constexpr std::size_t kProbeTargets = 256;

/// The NOT layer flipping the wires set in `mask`, as a permutation of the
/// binary labels {1..8}.
perm::Permutation not_layer(std::uint32_t mask) {
  std::vector<std::uint32_t> images(8);
  for (std::uint32_t l = 0; l < 8; ++l) images[l] = (l ^ mask) + 1;
  return perm::Permutation::from_images(std::move(images));
}

struct Target {
  perm::Permutation perm;
  unsigned cost = 0;  // known minimal cost, from the closure (see setup)
};

/// The search engine behind the catalog, wrapped so the benchmark can time
/// each fallback call from the outside. The server calls it under its
/// fallback mutex, so the span is search time without the queue wait.
class TimedSearch final : public synth::SynthesisBackend {
 public:
  TimedSearch(const gates::GateLibrary& library, synth::SearchConfig config)
      : inner_(library, config) {}
  const gates::GateLibrary& library() const override { return inner_.library(); }
  unsigned max_cost() const override { return inner_.max_cost(); }
  synth::BackendInfo info() const override { return inner_.info(); }
  std::optional<synth::BackendAnswer> locate(
      const perm::Permutation& target) override {
    return inner_.locate(target);
  }
  std::optional<synth::SynthesisResult> synthesize(
      const perm::Permutation& target) override {
    const ScopedSpan span("search.synthesize");
    ++calls_;
    return inner_.synthesize(target);
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  synth::TopologySearchBackend inner_;
  std::uint64_t calls_ = 0;  // guarded by the server's fallback mutex
};

struct Fixture {
  gates::GateLibrary library = gates::GateLibrary::standard(3);
  std::string catalog_path;
  std::vector<Target> catalog_targets;  // Zipf rank order
  std::vector<double> zipf_cdf;
  std::vector<perm::Permutation> cost8_cores;
  std::vector<Target> cost8_targets;  // every cost-8 core x NOT coset
  std::vector<perm::Permutation> probe_cores;  // distinct cores, identity coset
  std::size_t fmcf_threads = 0;
};

synth::SearchConfig fallback_config() {
  synth::SearchConfig config;
  config.max_cost = kFallbackCost;
  return config;
}

std::unique_ptr<Fixture> build_fixture(const Options& options) {
  auto fx = std::make_unique<Fixture>();
  fx->catalog_path = options.scratch_dir + "/queries.qcat";
  // The closure runs in a child process: this process only serves the saved
  // catalog, so its peak RSS is the serving footprint.
  run_in_child([&] {
    synth::FmcfEnumerator builder(fx->library);
    builder.run_to(kCatalogCost);
    builder.save_catalog(fx->catalog_path);
  });
  const synth::FmcfEnumerator closure =
      synth::FmcfEnumerator::open_catalog(fx->catalog_path, fx->library);
  fx->fmcf_threads = closure.threads();
  // Catalog targets: every NOT coset of every G[0..7] member. The known
  // minimal cost of a target is the closure level its core was found at
  // (read from the catalog file, not from the server that answers). Zipf ranks interleave the targets' circuit lengths (cost + NOT gates) in
  // proportion to their counts, so the hot set has the same length mix for
  // every seed; the seed picks which targets of each length rank where.
  std::vector<std::vector<Target>> by_length(kCatalogCost + 4);
  for (unsigned k = 0; k <= kCatalogCost; ++k) {
    for (const perm::Permutation& member : closure.g_set(k)) {
      for (std::uint32_t mask = 0; mask < 8; ++mask) {
        by_length[k + __builtin_popcount(mask)].push_back(
            {not_layer(mask) * member, k});
      }
      if (fx->probe_cores.size() < kProbeTargets && k > 0) {
        fx->probe_cores.push_back(member);
      }
    }
  }
  Rng rng(mix_seed(options.seed, 1));
  std::size_t total_targets = 0;
  for (std::vector<Target>& group : by_length) {
    for (std::size_t i = group.size(); i > 1; --i) {
      std::swap(group[i - 1], group[rng.below(i)]);
    }
    total_targets += group.size();
  }
  std::vector<std::size_t> taken(by_length.size(), 0);
  while (fx->catalog_targets.size() < total_targets) {
    std::size_t best = 0;
    double best_share = 2.0;
    for (std::size_t g = 0; g < by_length.size(); ++g) {
      if (taken[g] == by_length[g].size()) continue;
      const double share = static_cast<double>(taken[g] + 1) /
                           static_cast<double>(by_length[g].size());
      if (share < best_share) {
        best_share = share;
        best = g;
      }
    }
    fx->catalog_targets.push_back(std::move(by_length[best][taken[best]++]));
  }
  double total = 0.0;
  for (std::size_t r = 0; r < fx->catalog_targets.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    fx->zipf_cdf.push_back(total);
  }
  for (double& c : fx->zipf_cdf) c /= total;

  // Cost-8 targets: every core g * c with g in G[7] and c a CNOT (Feynman)
  // gate that the cb = 7 closure does not hold. The closure proves such a
  // core costs more than 7 and the G[7] witness plus the CNOT realizes it
  // with 8 gates, so its minimal cost is exactly 8 — known without asking
  // the search engine that answers it at run time.
  std::vector<perm::Permutation> cnots;
  for (const std::size_t f : fx->library.feynman_indices()) {
    gates::Cascade c(3);
    c.append(fx->library.gate(f));
    cnots.push_back(c.to_binary_permutation());
  }
  std::vector<perm::Permutation> cores;
  for (const perm::Permutation& g : closure.g_set(kCatalogCost)) {
    for (const perm::Permutation& c : cnots) {
      perm::Permutation core = g * c;
      if (!closure.find(core)) cores.push_back(std::move(core));
    }
  }
  std::sort(cores.begin(), cores.end());
  cores.erase(std::unique(cores.begin(), cores.end()), cores.end());
  Rng pick(mix_seed(options.seed, 2));
  for (std::size_t i = cores.size(); i > 1; --i) {
    std::swap(cores[i - 1], cores[pick.below(i)]);
  }
  for (const perm::Permutation& core : cores) {
    for (std::uint32_t mask = 0; mask < 8; ++mask) {
      fx->cost8_targets.push_back({not_layer(mask) * core, kFallbackCost});
    }
  }
  for (std::size_t i = fx->cost8_targets.size(); i > 1; --i) {
    std::swap(fx->cost8_targets[i - 1], fx->cost8_targets[pick.below(i)]);
  }
  fx->cost8_cores = std::move(cores);
  return fx;
}

struct Caller {
  Rng rng{0};
  sim::UnitaryCache cache;
  // The verified answer per target index (catalog targets first, then the
  // cost-8 targets): later answers must repeat it exactly.
  std::vector<std::optional<gates::Cascade>> verified;
};

bool verify(const synth::SynthesisResult& answer, const Target& target,
            sim::UnitaryCache& cache) {
  if (answer.cost != target.cost || answer.core.size() != target.cost) {
    return false;
  }
  if (answer.circuit.to_binary_permutation() != target.perm) return false;
  const ScopedSpan span("sim.realizes_permutation");
  return sim::realizes_permutation(answer.circuit, target.perm,
                                   sim::SimOptions{}, 1e-9, &cache);
}

}  // namespace

void run_synth_queries(const Options& options, std::uint64_t process_start_ns,
                       Record& record) {
  auto fx = repeat_setup<Fixture>(2, process_start_ns, record,
                                  [&] { return build_fixture(options); });
  record.context["fmcf_threads"] = std::to_string(fx->fmcf_threads);
  record.params["callers"] = std::to_string(kCallers);
  record.params["zipf_exponent"] = format_double(kZipfExponent);
  record.params["miss_share"] = format_double(1.0 / kMissPeriod);
  record.params["catalog_targets"] = std::to_string(fx->catalog_targets.size());
  record.params["cost8_cores"] = std::to_string(fx->cost8_cores.size());
  record.params["fallback_max_cost"] = std::to_string(kFallbackCost);

  // Cold start: open the catalog and answer one query, repeatedly.
  const Target& first = fx->catalog_targets.front();
  std::vector<double> cold_us;
  bool cold_ok = true;
  for (std::size_t r = 0; r < kColdStartReps; ++r) {
    const std::uint64_t t0 = now_ns();
    const synth::CatalogServer server = [&] {
      const ScopedSpan span("catalog.open");
      return synth::CatalogServer::open(fx->catalog_path, fx->library);
    }();
    std::optional<synth::SynthesisResult> answer;
    {
      const ScopedSpan span("catalog_server.synthesize.first");
      answer = server.synthesize(first.perm);
    }
    cold_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    cold_ok = cold_ok && answer && answer->cost == first.cost &&
              answer->circuit.to_binary_permutation() == first.perm;
  }
  record.cold_start_us = median(cold_us);
  record.check("cold-start answers", cold_ok);

  synth::CatalogServer server =
      synth::CatalogServer::open(fx->catalog_path, fx->library);
  auto search = std::make_shared<TimedSearch>(fx->library, fallback_config());
  server.set_fallback(search);

  const std::size_t catalog_count = fx->catalog_targets.size();
  std::vector<Caller> callers(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers[c].rng = Rng(mix_seed(options.seed, 100 + c));
    callers[c].verified.resize(catalog_count + fx->cost8_targets.size());
  }
  closed_loop(kCallers, kWarmupSeconds, options.seconds, record,
              [&](std::size_t c, std::uint64_t i) -> Ops {
                const ScopedSpan op_span("op.query");
                Caller& me = callers[c];
                std::size_t index = 0;
                if (i % kMissPeriod == kMissPeriod - 1) {
                  // Each caller walks the seeded cost-8 order from its own
                  // offset, so a run covers the pool evenly.
                  const std::size_t pool = fx->cost8_targets.size();
                  index = catalog_count +
                          (c * pool / kCallers + i / kMissPeriod) % pool;
                } else {
                  const double u = me.rng.uniform();
                  index = static_cast<std::size_t>(
                      std::lower_bound(fx->zipf_cdf.begin(), fx->zipf_cdf.end(), u) -
                      fx->zipf_cdf.begin());
                  index = std::min(index, catalog_count - 1);
                }
                const Target& target =
                    index < catalog_count ? fx->catalog_targets[index]
                                          : fx->cost8_targets[index - catalog_count];
                const std::uint64_t t0 = now_ns();
                std::optional<synth::SynthesisResult> answer;
                {
                  const ScopedSpan span("catalog_server.synthesize");
                  answer = server.synthesize(target.perm);
                }
                const std::uint64_t t1 = now_ns();
                if (!answer) return kFailedOp;
                std::optional<gates::Cascade>& known = me.verified[index];
                if (known) {
                  if (answer->circuit.sequence() != known->sequence()) {
                    return kFailedOp;
                  }
                } else {
                  if (!verify(*answer, target, me.cache)) return kFailedOp;
                  known = answer->circuit;
                }
                return one_op(t1 - t0);
              });
  record.check("every answer realizes its target at the known minimal cost",
               record.failed == 0);
  if (!options.trace) return;

  auto& layer = record.layer;
  const synth::CatalogServer::CacheStats cache = server.cache_stats();
  layer["catalog_server.witness_hit_rate"] =
      static_cast<double>(cache.hits) /
      static_cast<double>(std::max<std::size_t>(1, cache.hits + cache.misses));
  layer["search.fallback_share"] =
      static_cast<double>(search->calls()) /
      static_cast<double>(record.attempted + record.warmup_ops);

  // Probe 1: the same distinct cores answered cold (fresh server, back-walk)
  // and then warm (witness cache hit).
  {
    synth::CatalogServer fresh =
        synth::CatalogServer::open(fx->catalog_path, fx->library);
    for (const perm::Permutation& core : fx->probe_cores) {
      const ScopedSpan span("catalog_server.synthesize.cold");
      (void)fresh.synthesize(core);
    }
    for (const perm::Permutation& core : fx->probe_cores) {
      const ScopedSpan span("catalog_server.synthesize.warm");
      (void)fresh.synthesize(core);
    }
  }
  // Probe 2: exact search effort per cost-8 query, from SearchStats deltas
  // on a fresh engine (so the counts repeat exactly for one seed).
  {
    synth::TopologySearchBackend probe(fx->library, fallback_config());
    const std::size_t queries_n = std::min(kSearchProbe, fx->cost8_cores.size());
    for (std::size_t q = 0; q < queries_n; ++q) {
      (void)probe.synthesize(fx->cost8_cores[q]);
    }
    const synth::SearchStats& stats = probe.stats();
    const double queries = static_cast<double>(queries_n);
    layer["search.nodes_per_query"] = static_cast<double>(stats.nodes) / queries;
    layer["search.leaves_per_query"] = static_cast<double>(stats.leaves) / queries;
    layer["search.pruned_visited_per_query"] =
        static_cast<double>(stats.pruned_visited) / queries;
    layer["search.peak_memo_rows"] = static_cast<double>(stats.peak_memo_rows);
  }
}

}  // namespace qbench
