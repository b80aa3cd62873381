// qbench/src/paper_pipeline.cpp
//
// Workload `paper_pipeline`: one op is one pass of the paper's pipeline by a
// single caller — GateLibrary::standard(3) -> FMCF closure to cb = 7 ->
// save_catalog -> CatalogServer::open -> synthesize every G[0..7] member ->
// verify each answer on the simulator. The closure dominates (advance() at
// k = 7 is most of a pass), so closure, perm-store, SIMD and thread-pool
// changes show here while serving and search do nothing.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gates/library.h"
#include "harness.h"
#include "sim/batch.h"
#include "sim/cross_check.h"
#include "synth/catalog_server.h"
#include "synth/fmcf.h"
#include "synth/specs.h"

namespace qbench {
namespace {

using namespace qsyn;

constexpr unsigned kCostBound = 7;
// Table 2 of the paper: |G[1..7]|.
constexpr std::size_t kTable2[kCostBound] = {6, 24, 51, 84, 156, 398, 540};

struct Fixture {
  gates::GateLibrary library = gates::GateLibrary::standard(3);
  sim::BatchSimulator simulator;
  std::string catalog_path;
};

/// Per-op measurements the traced run turns into per-layer metrics.
struct OpTrace {
  double run_to_s = 0.0;
  double cpu_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double memory_mib = 0.0;
};

/// One pipeline pass. Returns false (and names the failed check in `why`)
/// when any output is wrong.
bool pipeline_pass(Fixture& fx, std::uint32_t op_id, OpTrace& trace,
                   std::string& why, std::size_t* frontier_k7 = nullptr,
                   std::size_t* seen_k7 = nullptr) {
  const ScopedSpan op_span("op.pipeline", op_id);
  synth::FmcfEnumerator closure(fx.library);
  {
    const ScopedSpan span("fmcf.run_to");
    const Usage before = Usage::now();
    for (unsigned k = 1; k <= kCostBound; ++k) {
      if (k == 6) {
        const ScopedSpan level("fmcf.advance.k6");
        closure.advance();
      } else if (k == 7) {
        const ScopedSpan level("fmcf.advance.k7");
        closure.advance();
      } else {
        const ScopedSpan level("fmcf.advance");
        closure.advance();
      }
    }
    const Usage after = Usage::now();
    trace.run_to_s = static_cast<double>(after.wall_ns - before.wall_ns) * 1e-9;
    trace.cpu_s = (after.user_s - before.user_s) + (after.sys_s - before.sys_s);
    trace.sys_s = after.sys_s - before.sys_s;
    trace.minor_faults =
        static_cast<double>(after.minor_faults - before.minor_faults);
    trace.memory_mib = static_cast<double>(closure.memory_bytes()) / (1 << 20);
  }
  const auto& stats = closure.stats();
  if (stats.size() != kCostBound) {
    why = "closure stopped early";
    return false;
  }
  for (unsigned k = 1; k <= kCostBound; ++k) {
    if (stats[k - 1].g_new != kTable2[k - 1]) {
      why = "|G[" + std::to_string(k) + "]| = " +
            std::to_string(stats[k - 1].g_new) + ", Table 2 says " +
            std::to_string(kTable2[k - 1]);
      return false;
    }
  }
  if (frontier_k7 != nullptr) *frontier_k7 = stats.back().frontier;
  if (seen_k7 != nullptr) *seen_k7 = stats.back().seen;

  // Figures 4/8 and 9: Peres has cost 4 with 2 implementations, Toffoli
  // cost 5 with 4.
  {
    const ScopedSpan span("fmcf.implementations");
    const auto peres = closure.find(synth::peres_perm());
    const auto toffoli = closure.find(synth::toffoli_perm());
    if (!peres || peres->cost != 4 ||
        closure.implementations(synth::peres_perm(), 4).size() != 2) {
      why = "Peres is not cost 4 with 2 implementations";
      return false;
    }
    if (!toffoli || toffoli->cost != 5 ||
        closure.implementations(synth::toffoli_perm(), 5).size() != 4) {
      why = "Toffoli is not cost 5 with 4 implementations";
      return false;
    }
  }

  std::vector<std::vector<perm::Permutation>> members(kCostBound + 1);
  {
    const ScopedSpan span("fmcf.g_set");
    for (unsigned k = 0; k <= kCostBound; ++k) members[k] = closure.g_set(k);
  }
  {
    const ScopedSpan span("catalog.save");
    closure.save_catalog(fx.catalog_path);
  }
  synth::CatalogServer server = [&] {
    const ScopedSpan span("catalog.open");
    return synth::CatalogServer::open(fx.catalog_path, fx.library);
  }();

  std::vector<gates::Cascade> circuits;
  std::vector<const perm::Permutation*> targets;
  circuits.reserve(1260);
  for (unsigned k = 0; k <= kCostBound; ++k) {
    for (const perm::Permutation& target : members[k]) {
      std::optional<synth::SynthesisResult> answer;
      {
        const ScopedSpan span("catalog_server.synthesize.cold");
        answer = server.synthesize(target);
      }
      // The known minimal cost is the closure level the member came from.
      if (!answer || answer->cost != k || answer->core.size() != k ||
          answer->circuit.to_binary_permutation() != target) {
        why = "synthesized G[" + std::to_string(k) + "] member " +
              target.to_cycle_string() + " is wrong";
        return false;
      }
      circuits.push_back(std::move(answer->circuit));
      targets.push_back(&target);
    }
  }
  if (circuits.size() != 1260) {
    why = "expected 1260 G[0..7] members, got " + std::to_string(circuits.size());
    return false;
  }

  std::vector<const gates::Cascade*> pointers;
  for (const gates::Cascade& c : circuits) pointers.push_back(&c);
  std::vector<char> sound;
  {
    const ScopedSpan span("sim.check_mv_model");
    sound = fx.simulator.check_mv_model(pointers, fx.library.domain());
  }
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    bool realizes = false;
    {
      const ScopedSpan span("sim.realizes_permutation");
      realizes = sim::realizes_permutation(circuits[i], *targets[i],
                                           fx.simulator.options(), 1e-9,
                                           &fx.simulator.cache());
    }
    if (sound[i] == 0 || !realizes) {
      why = "simulator rejects the cascade for " + targets[i]->to_cycle_string();
      return false;
    }
  }
  return true;
}

}  // namespace

void run_paper_pipeline(const Options& options, std::uint64_t process_start_ns,
                        Record& record) {
  std::uint32_t next_op = 1;
  std::string failure;
  // Set-up builds the library, the simulator engine and the catalog path,
  // then runs one untimed pass so the engine's block cache, the worker pools
  // and the page cache are warm before timing (every timed pass finds them
  // warm too).
  auto fixture = repeat_setup<Fixture>(3, process_start_ns, record, [&] {
    auto fx = std::make_unique<Fixture>();
    fx->catalog_path = options.scratch_dir + "/pipeline.qcat";
    OpTrace warm;
    std::string why;
    record.check("warm-up pass", pipeline_pass(*fx, next_op++, warm, why), why);
    release_free_heap();
    return fx;
  });
  record.context["fmcf_threads"] =
      std::to_string(synth::FmcfEnumerator(fixture->library).threads());
  record.context["sim_threads"] = std::to_string(fixture->simulator.threads());
  record.params["cost_bound"] = std::to_string(kCostBound);
  record.params["targets_per_op"] = "1260";
  record.params["callers"] = "1";

  std::vector<OpTrace> traces;
  std::size_t frontier_k7 = 0;
  std::size_t seen_k7 = 0;
  closed_loop(1, 0, options.seconds, record,
              [&](std::size_t, std::uint64_t) -> Ops {
                OpTrace trace;
                std::string why;
                const std::uint64_t t0 = now_ns();
                const bool ok = pipeline_pass(*fixture, next_op++, trace, why,
                                              &frontier_k7, &seen_k7);
                const std::uint64_t t1 = now_ns();
                release_free_heap();
                if (!ok) {
                  if (failure.empty()) failure = why;
                  return kFailedOp;
                }
                traces.push_back(trace);
                return one_op(t1 - t0);
              });
  record.check("every pass verified", record.failed == 0, failure);
  if (!options.trace) return;

  // Traced run: the closure alone once more with one worker thread, as the
  // single-thread baseline of fmcf.speedup.
  double serial_s = 0.0;
  {
    synth::ClosureConfig config;
    config.threads = 1;
    synth::FmcfEnumerator serial(fixture->library, config);
    const ScopedSpan span("fmcf.run_to.serial");
    const std::uint64_t t0 = now_ns();
    serial.run_to(kCostBound);
    serial_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  std::vector<double> cpu_per_wall, sys_share, faults, memory, run_to;
  for (const OpTrace& t : traces) {
    run_to.push_back(t.run_to_s);
    cpu_per_wall.push_back(t.cpu_s / t.run_to_s);
    sys_share.push_back(t.cpu_s > 0 ? t.sys_s / t.cpu_s : 0.0);
    faults.push_back(t.minor_faults);
    memory.push_back(t.memory_mib);
  }
  auto& layer = record.layer;
  layer["fmcf.cpu_per_wall"] = median(cpu_per_wall);
  layer["fmcf.sys_share"] = median(sys_share);
  layer["fmcf.minor_faults"] = median(faults);
  layer["fmcf.memory_mib"] = median(memory);
  layer["fmcf.serial_s"] = serial_s;
  layer["fmcf.speedup"] = serial_s / median(run_to);
  layer["fmcf.frontier_rows.k7"] = static_cast<double>(frontier_k7);
  layer["fmcf.seen_rows"] = static_cast<double>(seen_k7);
  layer["catalog.file_mib"] =
      static_cast<double>(std::filesystem::file_size(fixture->catalog_path)) /
      (1 << 20);
  record.params["fmcf.speedup_base"] =
      "fmcf.serial_s / median fmcf.run_to wall at " +
      record.context["fmcf_threads"] + " threads";
}

}  // namespace qbench
