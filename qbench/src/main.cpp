// qbench — the qsyn benchmark binary.
//
//   qbench --workload NAME --seed N --seconds S --trace 0|1
//          --scratch DIR [--trace-out FILE] [--git-rev REV]
//
// Runs one workload (paper_pipeline, synth_queries, automata_serve,
// closure_spill) and prints one JSON record on stdout: the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1),
// plus the output checks, the derived workload parameters and the machine
// context. qbench/run.py builds this binary and turns the record into the
// benchmark's result line.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/simd/kernels.h"
#include "harness.h"

extern char** environ;

namespace qbench {
namespace {

const std::uint64_t g_process_start_ns = now_ns();

/// Every per-layer metric with its unit. A traced run reports all of them;
/// a metric of a layer the workload never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"fmcf.advance_s.k6", "s"},
    {"fmcf.advance_s.k7", "s"},
    {"fmcf.cpu_per_wall", "ratio"},
    {"fmcf.sys_share", "ratio"},
    {"fmcf.minor_faults", "count"},
    {"fmcf.memory_mib", "MiB"},
    {"fmcf.serial_s", "s"},
    {"fmcf.speedup", "x"},
    {"fmcf.frontier_rows.k7", "count"},
    {"fmcf.seen_rows", "count"},
    {"catalog.save_s", "s"},
    {"catalog.file_mib", "MiB"},
    {"catalog.open_us", "us"},
    {"catalog_server.synthesize_us.cold", "us"},
    {"catalog_server.synthesize_us.warm", "us"},
    {"catalog_server.witness_hit_rate", "ratio"},
    {"search.synthesize_ms", "ms"},
    {"search.nodes_per_query", "count"},
    {"search.leaves_per_query", "count"},
    {"search.pruned_visited_per_query", "count"},
    {"search.peak_memo_rows", "count"},
    {"search.fallback_share", "ratio"},
    {"sim.verify_us", "us"},
    {"sim.unitary_hit_rate", "ratio"},
    {"sim.duplicate_folds", "count"},
    {"sim.jobs_per_batch", "count"},
    {"serve.p50_us.step", "us"},
    {"serve.p50_us.sample", "us"},
    {"serve.p50_us.distribution", "us"},
    {"serve.requests_per_round", "count"},
    {"serve.waves_per_round", "count"},
    {"serve.cpu_per_wall", "ratio"},
    {"serve.churn_us", "us"},
    {"serve.default_threads_ops_per_s", "1/s"},
    {"serve.default_threads_p50_us", "us"},
    {"spill.advance_s.k3", "s"},
    {"spill.sys_share", "ratio"},
    {"spill.disk_mib", "MiB"},
    {"spill.heap_mib", "MiB"},
    {"spill.frontier_rows.k3", "count"},
    {"self_ms.client", "ms"},
    {"self_ms.fmcf", "ms"},
    {"self_ms.spill", "ms"},
    {"self_ms.catalog", "ms"},
    {"self_ms.catalog_server", "ms"},
    {"self_ms.search", "ms"},
    {"self_ms.sim", "ms"},
    {"self_ms.serve", "ms"},
    {"self_ms.automata", "ms"},
    {"trace.spans", "count"},
    {"trace.ops_per_s", "1/s"},
    {"trace.p50_us", "us"},
};

/// Per-layer metrics read straight off span durations: the median duration
/// of the named span, scaled to the metric's unit.
struct SpanMedian {
  const char* metric;
  const char* span;
  double scale;  // seconds -> unit
};
constexpr SpanMedian kSpanMedians[] = {
    {"fmcf.advance_s.k6", "fmcf.advance.k6", 1.0},
    {"fmcf.advance_s.k7", "fmcf.advance.k7", 1.0},
    {"catalog.save_s", "catalog.save", 1.0},
    {"catalog.open_us", "catalog.open", 1e6},
    {"catalog_server.synthesize_us.cold", "catalog_server.synthesize.cold", 1e6},
    {"catalog_server.synthesize_us.warm", "catalog_server.synthesize.warm", 1e6},
    {"search.synthesize_ms", "search.synthesize", 1e3},
    {"serve.churn_us", "serve.churn", 1e6},
    {"spill.advance_s.k3", "spill.advance.k3", 1.0},
};

void add_span_metrics(Record& record) {
  const auto spans = Tracer::get().aggregate();
  for (const SpanMedian& m : kSpanMedians) {
    const auto it = spans.find(m.span);
    if (it != spans.end() && it->second.count > 0) {
      record.layer[m.metric] = it->second.durations.quantile(0.5) * 1e-9 * m.scale;
    }
  }
  // Simulator verification cost per verified cascade (batched soundness
  // sweep plus the per-cascade permutation check).
  const auto realizes = spans.find("sim.realizes_permutation");
  if (realizes != spans.end() && realizes->second.count > 0) {
    double total = static_cast<double>(realizes->second.total_ns);
    const auto batch = spans.find("sim.check_mv_model");
    if (batch != spans.end()) total += static_cast<double>(batch->second.total_ns);
    record.layer["sim.verify_us"] =
        total * 1e-3 / static_cast<double>(realizes->second.count);
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metric_json(double value, const char* unit) {
  return "{\"value\": " + format_double(value) + ", \"unit\": " +
         json_string(unit) + "}";
}

void fill_context(Record& record, const std::string& git_rev) {
  auto& ctx = record.context;
  ctx["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  ctx["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  ctx["simd_engine"] = qsyn::simd::active_engine_name();
#ifdef NDEBUG
  ctx["build_type"] = "release (NDEBUG)";
#else
  ctx["build_type"] = "debug (assertions on)";
#endif
#if defined(__clang__)
  ctx["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  ctx["compiler"] = std::string("gcc ") + __VERSION__;
#else
  ctx["compiler"] = "unknown";
#endif
  ctx["git_rev"] = git_rev;
  std::string qsyn_env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "QSYN_", 5) == 0) {
      qsyn_env += (qsyn_env.empty() ? "" : " ") + std::string(*e);
    }
  }
  ctx["qsyn_env"] = qsyn_env;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "qbench: %s\nusage: qbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--trace-out FILE] [--git-rev REV]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace qbench

int main(int argc, char** argv) {
  using namespace qbench;
  Options options;
  std::string trace_out;
  std::string git_rev = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--git-rev") {
      git_rev = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (options.scratch_dir.empty()) return usage("--scratch is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  WorkloadFn workload = nullptr;
  if (options.workload == "paper_pipeline") workload = run_paper_pipeline;
  if (options.workload == "synth_queries") workload = run_synth_queries;
  if (options.workload == "automata_serve") workload = run_automata_serve;
  if (options.workload == "closure_spill") workload = run_closure_spill;
  if (workload == nullptr) return usage("unknown workload");

  std::filesystem::create_directories(options.scratch_dir);
  if (options.trace) Tracer::get().enable();
  Record record;
  try {
    workload(options, g_process_start_ns, record);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  fill_context(record, git_rev);

  const double ok_ops = static_cast<double>(record.attempted - record.failed);
  const double ops_per_s = record.run_s > 0 ? ok_ops / record.run_s : 0.0;
  const double p50_us = record.latency.quantile(0.5) * 1e-3;
  std::ostringstream out;
  out << "{\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << format_double(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"correct\": " << (record.all_checks_ok() ? "true" : "false")
      << ", \"attempted\": " << record.attempted
      << ", \"failed\": " << record.failed
      << ", \"samples\": " << record.latency.count()
      << ", \"setup_reps_s\": [";
  for (std::size_t i = 0; i < record.setup_s.size(); ++i) {
    out << (i ? ", " : "") << format_double(record.setup_s[i]);
  }
  out << "], \"end_to_end\": {"
      << "\"setup_s\": " << metric_json(median(record.setup_s), "s")
      << ", \"ops_per_s\": " << metric_json(ops_per_s, "1/s")
      << ", \"p50_us\": " << metric_json(p50_us, "us");
  if (record.latency.tail_defined(0.99)) {
    out << ", \"p99_us\": "
        << metric_json(record.latency.quantile(0.99) * 1e-3, "us");
  }
  if (record.cold_start_us) {
    out << ", \"cold_start_us\": " << metric_json(*record.cold_start_us, "us");
  }
  out << ", \"peak_rss_mib\": " << metric_json(median(record.window_rss_mib), "MiB")
      << ", \"max_rss_mib\": " << metric_json(Usage::now().max_rss_mib, "MiB")
      << ", \"error_rate\": "
      << metric_json(record.attempted == 0
                         ? 1.0
                         : static_cast<double>(record.failed) /
                               static_cast<double>(record.attempted),
                     "ratio")
      << "}";
  if (options.trace) {
    add_span_metrics(record);
    record.layer["trace.spans"] =
        static_cast<double>(Tracer::get().stored_spans());
    record.layer["trace.ops_per_s"] = ops_per_s;
    record.layer["trace.p50_us"] = p50_us;
    out << ", \"per_layer\": {";
    bool first = true;
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = record.layer.find(m.name);
      out << (first ? "" : ", ") << json_string(m.name) << ": "
          << metric_json(it == record.layer.end() ? 0.0 : it->second, m.unit);
      first = false;
    }
    out << "}";
    for (const auto& [name, value] : record.layer) {
      bool listed = false;
      for (const LayerMetric& m : kLayerMetrics) listed |= name == m.name;
      if (!listed) {
        std::fprintf(stderr, "qbench: unlisted per-layer metric %s\n", name.c_str());
        return 1;
      }
    }
    if (!trace_out.empty()) Tracer::get().write_json(trace_out);
    out << ", \"spans_dropped\": " << Tracer::get().dropped_spans();
  }
  out << ", \"checks\": [";
  for (std::size_t i = 0; i < record.checks.size(); ++i) {
    const Check& c = record.checks[i];
    out << (i ? ", " : "") << "{\"name\": " << json_string(c.name)
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"detail\": " << json_string(c.detail) << "}";
  }
  out << "], \"params\": {";
  bool first = true;
  for (const auto& [key, value] : record.params) {
    out << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  out << "}, \"context\": {";
  first = true;
  for (const auto& [key, value] : record.context) {
    out << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
