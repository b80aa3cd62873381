// qbench/src/closure_spill.cpp
//
// Workload `closure_spill`: one op is one GateLibrary::standard(5) closure to
// k = 3 under a 32 MiB spill budget, spilling into the run's scratch
// directory. Same synth/fmcf code as paper_pipeline, but through sealed run
// files and streaming merges — the only workload that reaches synth/spill,
// FileRowStorage and the mmap'd file layer.
#include <memory>
#include <string>

#include "gates/library.h"
#include "harness.h"
#include "synth/fmcf.h"

namespace qbench {
namespace {

using namespace qsyn;

constexpr unsigned kDepth = 3;
constexpr std::size_t kBudgetBytes = std::size_t(32) << 20;
constexpr std::size_t kFrontierK3 = 44350;  // |B[3]| at n = 5
constexpr std::size_t kGK3 = 2570;          // |G[3]| at n = 5

struct Fixture {
  gates::GateLibrary library = gates::GateLibrary::standard(5);
  synth::ClosureConfig config;
};

struct OpTrace {
  double cpu_s = 0.0;
  double sys_s = 0.0;
  double disk_mib = 0.0;
  double heap_mib = 0.0;
  std::size_t frontier_k3 = 0;
};

bool spilled_closure(const Fixture& fx, std::uint32_t op_id, OpTrace& trace,
                     std::string& why) {
  const ScopedSpan op_span("op.closure", op_id);
  synth::FmcfEnumerator closure(fx.library, fx.config);
  const Usage before = Usage::now();
  {
    const ScopedSpan span("spill.run_to");
    for (unsigned k = 1; k <= kDepth; ++k) {
      if (k == kDepth) {
        const ScopedSpan level("spill.advance.k3");
        closure.advance();
      } else {
        const ScopedSpan level("spill.advance");
        closure.advance();
      }
    }
  }
  const Usage after = Usage::now();
  trace.cpu_s = (after.user_s - before.user_s) + (after.sys_s - before.sys_s);
  trace.sys_s = after.sys_s - before.sys_s;
  trace.disk_mib = static_cast<double>(closure.disk_bytes()) / (1 << 20);
  trace.heap_mib = static_cast<double>(closure.memory_bytes()) / (1 << 20);
  const auto& stats = closure.stats();
  if (stats.size() != kDepth) {
    why = "closure stopped before k = 3";
    return false;
  }
  trace.frontier_k3 = stats.back().frontier;
  if (stats.back().frontier != kFrontierK3 || stats.back().g_new != kGK3) {
    why = "|B[3]| = " + std::to_string(stats.back().frontier) + ", |G[3]| = " +
          std::to_string(stats.back().g_new) + " (expected 44350, 2570)";
    return false;
  }
  if (closure.disk_bytes() == 0) {
    why = "the 32 MiB budget did not spill";
    return false;
  }
  return true;
}

}  // namespace

void run_closure_spill(const Options& options, std::uint64_t process_start_ns,
                       Record& record) {
  std::uint32_t next_op = 1;
  // Set-up builds the 5-wire library and runs one untimed closure, so the
  // page cache and allocator are warm before timing.
  auto fixture = repeat_setup<Fixture>(3, process_start_ns, record, [&] {
    auto fx = std::make_unique<Fixture>();
    fx->config.track_witnesses = false;
    fx->config.spill_budget_bytes = kBudgetBytes;
    fx->config.spill_dir = options.scratch_dir;
    OpTrace warm;
    std::string why;
    record.check("warm-up closure", spilled_closure(*fx, next_op++, warm, why), why);
    return fx;
  });
  record.context["fmcf_threads"] = std::to_string(
      synth::FmcfEnumerator(fixture->library, fixture->config).threads());
  record.params["wires"] = "5";
  record.params["depth"] = std::to_string(kDepth);
  record.params["spill_budget_mib"] = std::to_string(kBudgetBytes >> 20);
  record.params["callers"] = "1";

  std::vector<OpTrace> traces;
  std::string failure;
  closed_loop(1, 0, options.seconds, record,
              [&](std::size_t, std::uint64_t) -> Ops {
                OpTrace trace;
                std::string why;
                const std::uint64_t t0 = now_ns();
                const bool ok = spilled_closure(*fixture, next_op++, trace, why);
                const std::uint64_t t1 = now_ns();
                if (!ok) {
                  if (failure.empty()) failure = why;
                  return kFailedOp;
                }
                traces.push_back(trace);
                return one_op(t1 - t0);
              });
  record.check("every closure matches |B[3]|, |G[3]| and spilled",
               record.failed == 0, failure);
  if (!options.trace || traces.empty()) return;

  std::vector<double> sys_share, disk, heap;
  for (const OpTrace& t : traces) {
    sys_share.push_back(t.cpu_s > 0 ? t.sys_s / t.cpu_s : 0.0);
    disk.push_back(t.disk_mib);
    heap.push_back(t.heap_mib);
  }
  record.layer["spill.sys_share"] = median(sys_share);
  record.layer["spill.disk_mib"] = median(disk);
  record.layer["spill.heap_mib"] = median(heap);
  record.layer["spill.frontier_rows.k3"] =
      static_cast<double>(traces.back().frontier_k3);
}

}  // namespace qbench
