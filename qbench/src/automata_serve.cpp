// qbench/src/automata_serve.cpp
//
// Workload `automata_serve`: one op is one request served by an
// AutomataService. Two closed-loop callers each own a disjoint half of the
// tenants (automata on n = 2..4 cascades and QRNGs on n = 2..3) and submit
// the next request of every tenant they own as one batch, waiting for its
// answers before the next; a tenant's next request depends on its last
// outcome. Each request's latency is its batch's. The traffic mixes step /
// sample / distribution requests with ~2% measurement-backend flips, and
// each tenant group periodically replaces its churn tenant with a circuit
// synthesized through a CatalogServer. The work is in serve, sim and
// automata; synth only does the churn.
//
// The timed service runs its engine on one thread, and two callers drive
// it. Measured on a 4-vCPU host, the default engine thread count (the
// BatchSimulator fan-out) and four callers both made throughput swing by
// 30-80% between runs, far past any usable regression bound. A traced run
// still measures the default-threads engine in a probe
// (serve.default_threads_*), so the fan-out cost stays visible.
#include <cstdio>
#include <mutex>
#include <memory>
#include <string>
#include <vector>

#include "automata/automaton.h"
#include "automata/qrng.h"
#include "common/rng.h"
#include "gates/library.h"
#include "harness.h"
#include "serve/automata_service.h"
#include "synth/catalog_server.h"
#include "synth/fmcf.h"

namespace qbench {
namespace {

using namespace qsyn;

constexpr std::size_t kCallers = 2;
// Tenant groups (3 automata + 1 QRNG + 1 churn slot); caller c owns the
// groups g with g % kCallers == c.
constexpr std::size_t kGroups = 4;
// Untimed closed-loop traffic before the timed window, so caches are warm
// and the callers have settled into their steady interleaving.
constexpr double kWarmupSeconds = 2.0;
constexpr std::size_t kResidentsPerGroup = 4;  // 3 automata + 1 QRNG
constexpr std::uint64_t kChurnPeriod = 128;    // batches between churns
// Length of the default-engine-threads probe of a traced run.
constexpr double kDefaultThreadsProbeSeconds = 3.0;
constexpr std::uint64_t kDigestPrefix = 1024;   // requests digested per tenant
constexpr std::size_t kAutomatonGates = 6;
// Churned tenants run circuits synthesized from the cb = 7 closure.
constexpr unsigned kChurnCatalogCost = 7;

const gates::GateLibrary& library_for(std::size_t wires) {
  static const gates::GateLibrary lib2 = gates::GateLibrary::standard(2);
  static const gates::GateLibrary lib3 = gates::GateLibrary::standard(3);
  static const gates::GateLibrary lib4 = gates::GateLibrary::standard(4);
  return wires == 2 ? lib2 : wires == 3 ? lib3 : lib4;
}

/// A random cascade that stays reasonable gate by gate, so the multi-valued
/// and Hilbert backends serve bit-identical distributions.
gates::Cascade random_reasonable_cascade(Rng& rng, std::size_t wires,
                                         std::size_t length) {
  const gates::GateLibrary& library = library_for(wires);
  gates::Cascade cascade(wires);
  for (std::size_t i = 0; i < length; ++i) {
    for (int tries = 0; tries < 64; ++tries) {
      gates::Cascade extended = cascade;
      extended.append(library.gate(rng.below(library.size())));
      if (extended.is_reasonable(library.domain())) {
        cascade = std::move(extended);
        break;
      }
    }
  }
  return cascade;
}

/// One tenant as the benchmark sees it: the reference machine used to check
/// answers, plus the generator of its request stream.
struct Tenant {
  std::uint64_t id = 0;
  std::size_t wires = 0;
  std::uint32_t input_words = 1;
  std::optional<automata::QuantumAutomaton> machine;
  std::optional<automata::ControlledQrng> qrng;
  // Request-stream state (closed per tenant: inputs depend on outcomes).
  Rng gen{0};
  std::uint32_t last_word = 0;
  std::uint32_t state = 0;
  bool hilbert = false;
  std::uint64_t issued = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over the prefix
  // Verified distributions, indexed state * input_words + input.
  std::vector<std::vector<double>> known;

  void reset_stream(std::uint64_t seed) {
    gen = Rng(seed);
    last_word = state = 0;
    hilbert = false;
    issued = 0;
    digest = 0xcbf29ce484222325ull;
    known.assign(std::size_t(2) * input_words, {});
  }
};

void fold(std::uint64_t& digest, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    digest = (digest ^ p[i]) * 0x100000001b3ull;
  }
}

serve::Request next_request(Tenant& t) {
  serve::Request request;
  request.tenant = t.id;
  const std::uint64_t roll = t.gen.below(100);
  if (roll < 2) {
    request.kind = serve::RequestKind::kSetBackend;
    t.hilbert = !t.hilbert;
    request.backend = t.hilbert ? automata::MeasurementBackend::kHilbert
                                : automata::MeasurementBackend::kMultiValued;
  } else if (roll < 22) {
    request.kind = serve::RequestKind::kDistribution;
    request.input_bits = static_cast<std::uint32_t>(
        (t.last_word + t.gen.below(t.input_words)) % t.input_words);
  } else {
    request.kind = t.qrng ? serve::RequestKind::kSample : serve::RequestKind::kStep;
    request.input_bits = static_cast<std::uint32_t>(
        (t.last_word ^ t.gen.below(t.input_words)) % t.input_words);
  }
  return request;
}

/// The exact distribution the tenant must serve for (current state, input),
/// from the automata layer directly (memoized per tenant).
const std::vector<double>& expected(Tenant& t, std::uint32_t input) {
  std::vector<double>& slot =
      t.known[static_cast<std::size_t>(t.state) * t.input_words + input];
  if (slot.empty()) {
    const ScopedSpan span("automata.distribution");
    slot = t.machine ? t.machine->output_distribution(t.state, input)
                     : t.qrng->distribution(input);
  }
  return slot;
}

/// Checks one response and advances the tenant's stream state.
bool absorb(Tenant& t, const serve::Request& request,
            const serve::Response& response, bool digest) {
  if (response.status != serve::ResponseStatus::kOk) return false;
  bool ok = true;
  switch (request.kind) {
    case serve::RequestKind::kStep:
    case serve::RequestKind::kSample: {
      const std::vector<double>& dist = expected(t, request.input_bits);
      ok = response.word < dist.size() && dist[response.word] > 0.0;
      t.last_word = response.word;
      if (t.machine) t.state = response.word >> (t.wires - 1);
      break;
    }
    case serve::RequestKind::kDistribution:
      ok = response.distribution == expected(t, request.input_bits);
      break;
    case serve::RequestKind::kSetBackend:
      break;
  }
  if (digest) {
    const auto kind = static_cast<std::uint8_t>(request.kind);
    fold(t.digest, &kind, 1);
    fold(t.digest, &response.word, sizeof(response.word));
    if (!response.distribution.empty()) {
      fold(t.digest, response.distribution.data(),
           response.distribution.size() * sizeof(double));
    }
  }
  ++t.issued;
  return ok;
}

struct Fixture {
  std::unique_ptr<synth::CatalogServer> catalog;
  std::vector<perm::Permutation> churn_cores;
  std::unique_ptr<serve::AutomataService> service;
  serve::AutomataService::Options service_options;
  // Residents in add order (group-major), then one churn tenant per group.
  std::vector<Tenant> residents;
  std::vector<Tenant> churners;
  std::uint64_t churn_count = 0;
  std::size_t fmcf_threads = 0;
  std::string fleet;
};

std::uint64_t add_to(serve::AutomataService& service, const Tenant& t) {
  return t.machine ? service.add_automaton(*t.machine) : service.add_qrng(*t.qrng);
}

/// `engine_threads` 0 = the engine's default thread count.
std::unique_ptr<Fixture> build_fixture(const Options& options,
                                       std::size_t engine_threads) {
  auto fx = std::make_unique<Fixture>();
  // The churn supply is a served catalog; its closure runs in a child
  // process, so this process's peak RSS is the serving footprint.
  const std::string catalog_path = options.scratch_dir + "/churn.qcat";
  run_in_child([&] {
    synth::FmcfEnumerator builder(library_for(3));
    builder.run_to(kChurnCatalogCost);
    builder.save_catalog(catalog_path);
  });
  fx->catalog = std::make_unique<synth::CatalogServer>(
      synth::FmcfEnumerator::open_catalog(catalog_path, library_for(3)));
  fx->fmcf_threads = fx->catalog->enumerator().threads();
  for (unsigned k = 1; k <= kChurnCatalogCost; ++k) {
    for (perm::Permutation& p : fx->catalog->enumerator().g_set(k)) {
      fx->churn_cores.push_back(std::move(p));
    }
  }

  std::optional<automata::ControlledQrng> qrngs[2];
  for (std::size_t w = 2; w <= 3; ++w) {
    const ScopedSpan span("automata.qrng_synthesize");
    qrngs[w - 2] = automata::ControlledQrng::synthesize(
        library_for(w), automata::controlled_coin_spec(w));
    if (!qrngs[w - 2]) throw std::runtime_error("coin spec must synthesize");
  }
  fx->service_options.seed = mix_seed(options.seed, 7);
  fx->service_options.sim.threads = engine_threads;
  fx->service = std::make_unique<serve::AutomataService>(fx->service_options);

  Rng build(mix_seed(options.seed, 3));
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t r = 0; r < kResidentsPerGroup; ++r) {
      Tenant t;
      if (r + 1 == kResidentsPerGroup) {
        t.wires = 2 + g % 2;
        t.qrng = qrngs[t.wires - 2];
        t.input_words = std::uint32_t(1) << t.wires;
      } else {
        // One automaton each on n = 2, 3 and 4 wires per group; the seed
        // picks the gates.
        t.wires = 2 + r;
        t.machine.emplace(
            random_reasonable_cascade(build, t.wires, kAutomatonGates), 1);
        t.input_words = std::uint32_t(1) << (t.wires - 1);
      }
      t.id = add_to(*fx->service, t);
      t.reset_stream(mix_seed(options.seed, 1000 + fx->residents.size()));
      fx->residents.push_back(std::move(t));
    }
  }
  for (std::size_t g = 0; g < kGroups; ++g) {
    Tenant t;
    t.wires = 3;
    t.input_words = 4;
    t.machine.emplace(
        fx->catalog->synthesize(fx->churn_cores[build.below(fx->churn_cores.size())])
            ->circuit,
        1);
    t.id = add_to(*fx->service, t);
    t.reset_stream(mix_seed(options.seed, 5000 + g));
    fx->churners.push_back(std::move(t));
  }
  fx->fleet = std::to_string(kGroups) + " groups of 3 automata (n=2,3,4; " +
              std::to_string(kAutomatonGates) + " gates each), 1 QRNG (n=2 or 3) " +
              "and 1 churn slot";
  return fx;
}

std::uint64_t fleet_digest(const std::vector<Tenant>& tenants) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const Tenant& t : tenants) fold(digest, &t.digest, sizeof(t.digest));
  return digest;
}

/// Drives the fixture's service with the closed-loop traffic; returns the
/// process CPU seconds per wall second over the loop.
double serve_traffic(Fixture& fx, const Options& options, double warmup,
                     double seconds, Record& record) {
  serve::AutomataService& service = *fx.service;
  std::vector<Rng> pickers;
  for (std::size_t g = 0; g < kGroups; ++g) {
    pickers.emplace_back(mix_seed(options.seed, 200 + g));
  }
  std::mutex churn_mutex;  // churn_count and the churn-stream seeds
  // Replaces group g's churn tenant; false when the service or the catalog
  // refuses.
  const auto churn = [&](std::size_t g) {
    const ScopedSpan span("serve.churn");
    Tenant& t = fx.churners[g];
    if (!service.remove_tenant(t.id)) return false;
    std::optional<synth::SynthesisResult> answer;
    {
      const ScopedSpan s("catalog_server.synthesize");
      answer = fx.catalog->synthesize(
          fx.churn_cores[pickers[g].below(fx.churn_cores.size())]);
    }
    if (!answer) return false;
    t.machine.emplace(answer->circuit, 1);
    t.id = service.add_automaton(*t.machine);
    std::uint64_t count = 0;
    {
      const std::lock_guard<std::mutex> lock(churn_mutex);
      count = ++fx.churn_count;
    }
    t.reset_stream(mix_seed(options.seed, 9000 + count));
    return true;
  };
  const Usage before = Usage::now();
  closed_loop(kCallers, warmup, seconds, record,
              [&](std::size_t c, std::uint64_t i) -> Ops {
                const ScopedSpan op_span("op.batch");
                // One request per tenant the caller owns, submitted together.
                std::vector<Tenant*> mine;
                std::vector<bool> resident;
                std::vector<serve::Request> batch;
                for (std::size_t g = c; g < kGroups; g += kCallers) {
                  if (i % kChurnPeriod == kChurnPeriod - 1 && !churn(g)) {
                    return kFailedOp;
                  }
                  for (std::size_t r = 0; r <= kResidentsPerGroup; ++r) {
                    resident.push_back(r < kResidentsPerGroup);
                    mine.push_back(resident.back()
                                       ? &fx.residents[g * kResidentsPerGroup + r]
                                       : &fx.churners[g]);
                    batch.push_back(next_request(*mine.back()));
                  }
                }
                const std::uint64_t t0 = now_ns();
                std::vector<serve::Response> responses;
                {
                  const ScopedSpan span("serve.submit_batch");
                  responses = service.submit_batch(batch);
                }
                const std::uint64_t t1 = now_ns();
                Ops done{t1 - t0, 0, 0};
                for (std::size_t r = 0; r < mine.size(); ++r) {
                  Tenant& t = *mine[r];
                  const bool digest = resident[r] && t.issued < kDigestPrefix;
                  if (absorb(t, batch[r], responses[r], digest)) {
                    ++done.ok;
                  } else {
                    ++done.failed;
                  }
                }
                return done;
              });
  const Usage after = Usage::now();
  return ((after.user_s - before.user_s) + (after.sys_s - before.sys_s)) /
         (static_cast<double>(after.wall_ns - before.wall_ns) * 1e-9);
}

}  // namespace

void run_automata_serve(const Options& options, std::uint64_t process_start_ns,
                        Record& record) {
  auto fx = repeat_setup<Fixture>(3, process_start_ns, record,
                                  [&] { return build_fixture(options, 1); });
  serve::AutomataService& service = *fx->service;
  record.context["fmcf_threads"] = std::to_string(fx->fmcf_threads);
  record.context["sim_threads"] = std::to_string(service.engine().threads());
  record.params["callers"] = std::to_string(kCallers);
  record.params["tenant_fleet"] = fx->fleet;
  record.params["engine_threads"] = "1";
  record.params["churn_period_batches"] = std::to_string(kChurnPeriod);
  record.params["batch_requests"] =
      std::to_string(kGroups / kCallers * (kResidentsPerGroup + 1));
  record.params["backend_flip_share"] = "0.02";
  record.params["distribution_share"] = "0.2";

  const double cpu_per_wall =
      serve_traffic(*fx, options, kWarmupSeconds, options.seconds, record);
  const serve::ServiceStats stats = service.stats();
  record.check("every served answer matches the automata layer",
               record.failed == 0);
  record.check("no rejected requests", stats.rejected == 0,
               std::to_string(stats.rejected) + " rejected");

  // Determinism: replay every resident's digested prefix serially against a
  // fresh service with the same seed; the outcome streams must be identical.
  {
    serve::AutomataService replay(fx->service_options);
    std::vector<Tenant> again;
    for (std::size_t i = 0; i < fx->residents.size(); ++i) {
      Tenant t;
      t.wires = fx->residents[i].wires;
      t.input_words = fx->residents[i].input_words;
      t.machine = fx->residents[i].machine;
      t.qrng = fx->residents[i].qrng;
      t.id = add_to(replay, t);
      t.reset_stream(mix_seed(options.seed, 1000 + i));
      again.push_back(std::move(t));
    }
    bool ok = true;
    for (std::size_t i = 0; i < again.size(); ++i) {
      const std::uint64_t count = std::min(fx->residents[i].issued, kDigestPrefix);
      for (std::uint64_t n = 0; n < count; ++n) {
        const serve::Request request = next_request(again[i]);
        ok = absorb(again[i], request, replay.submit(request), true) && ok;
      }
      ok = ok && again[i].digest == fx->residents[i].digest;
    }
    record.check("per-tenant outcome streams replay identically", ok);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fleet_digest(fx->residents)));
    record.params["outcome_digest"] = hex;
  }
  if (!options.trace) return;

  auto& layer = record.layer;
  const double rounds =
      static_cast<double>(std::max<std::uint64_t>(1, stats.combine_rounds));
  layer["serve.p50_us.step"] = static_cast<double>(stats.step.p50_ns) * 1e-3;
  layer["serve.p50_us.sample"] = static_cast<double>(stats.sample.p50_ns) * 1e-3;
  layer["serve.p50_us.distribution"] =
      static_cast<double>(stats.distribution.p50_ns) * 1e-3;
  layer["serve.requests_per_round"] = static_cast<double>(stats.requests) / rounds;
  layer["serve.waves_per_round"] = static_cast<double>(stats.waves) / rounds;
  layer["serve.cpu_per_wall"] = cpu_per_wall;
  const sim::UnitaryCache::Stats cache = service.engine_cache_stats();
  layer["sim.unitary_hit_rate"] =
      static_cast<double>(cache.hits) /
      static_cast<double>(std::max<std::size_t>(1, cache.hits + cache.misses));
  layer["sim.duplicate_folds"] = static_cast<double>(cache.duplicate_folds);
  layer["sim.jobs_per_batch"] =
      static_cast<double>(stats.engine_jobs) /
      static_cast<double>(std::max<std::uint64_t>(1, stats.engine_batches));

  // Probe: the same traffic against a service whose engine runs at the
  // default thread count (the BatchSimulator fan-out the timed run avoids).
  auto probe_fx = build_fixture(options, 0);
  Record probe;
  serve_traffic(*probe_fx, options, 1.0, kDefaultThreadsProbeSeconds, probe);
  layer["serve.default_threads_ops_per_s"] =
      static_cast<double>(probe.attempted - probe.failed) / probe.run_s;
  layer["serve.default_threads_p50_us"] = probe.latency.quantile(0.5) * 1e-3;
  record.params["default_threads_probe_engine_threads"] =
      std::to_string(probe_fx->service->engine().threads());
  record.check("default-threads probe verified", probe.failed == 0 && probe.all_checks_ok());
}

}  // namespace qbench
