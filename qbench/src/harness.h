// qbench/src/harness.h
//
// Measurement plumbing shared by the four workloads: a fine log-bucketed
// latency histogram, the span tracer, process resource snapshots, the
// closed-loop runner and the per-run record the binary prints as JSON.
//
// Everything here is benchmark code: it calls the qsyn library only through
// its public API and times those calls from the outside.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace qbench {

/// Monotonic nanoseconds (steady_clock), the one time base of the benchmark.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median of a sample (0 when empty).
double median(std::vector<double> values);

/// Shortest round-trip-safe text of a number for the JSON record.
std::string format_double(double value);

/// Log-bucketed histogram of nanosecond values: 128 linear sub-buckets per
/// octave, so a bucket is at most 1/128 (0.8%) of its value wide. Quantiles
/// interpolate linearly inside the bucket that holds the requested rank, so
/// repeated runs do not snap to the same bucket bound.
class Histogram {
 public:
  void add(std::uint64_t ns, std::uint64_t times = 1);
  void merge(const Histogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Nearest-rank quantile in nanoseconds (0 when empty).
  [[nodiscard]] double quantile(double q) const;
  /// True when at least ten samples lie beyond quantile q.
  [[nodiscard]] bool tail_defined(double q) const {
    return static_cast<double>(count_) * (1.0 - q) >= 10.0;
  }

 private:
  static constexpr std::size_t kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t(1) << kSubBits;
  static std::size_t bucket_of(std::uint64_t ns);
  static std::uint64_t bucket_low(std::size_t bucket);
  static std::uint64_t bucket_width(std::size_t bucket);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t minor_faults = 0;
  double max_rss_mib = 0.0;
  std::uint64_t wall_ns = 0;
  static Usage now();
};

// --- tracing -----------------------------------------------------------------

/// One closed span. `parent` indexes the same thread's span buffer (or is
/// kNoParent); spans of one op share `op`.
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;
  std::uint32_t op = 0;
};

/// Per-name aggregate, accumulated as spans close.
struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // total minus time covered by child spans
  Histogram durations;
};

/// Process-wide span recorder. Disabled by default: a disabled tracer makes
/// ScopedSpan a single branch. Spans are kept in per-thread buffers (capped;
/// overflow only counts as dropped, aggregates stay exact) and written out
/// by write_json() when the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::size_t kMaxStoredPerThread = std::size_t(1) << 16;

  static Tracer& get();
  [[nodiscard]] bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  /// Aggregates by span name across every thread.
  [[nodiscard]] std::map<std::string, SpanStats> aggregate() const;
  /// Self time per layer (the span-name prefix before the first '.').
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  /// Forgets the per-name aggregates (stored spans stay), so the medians a
  /// traced run reports cover what ran after set-up.
  void reset_stats();
  [[nodiscard]] std::size_t stored_spans() const;
  [[nodiscard]] std::size_t dropped_spans() const;
  /// Writes every stored span as JSON: {"spans": [[name, start, end,
  /// parent, op, thread], ...], "dropped": n}.
  void write_json(const std::string& path) const;

  struct Open {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint32_t op;
    std::uint32_t slot;  // index reserved in `spans`, or kNoParent
  };
  struct Thread {
    std::vector<Span> spans;
    std::vector<Open> stack;
    std::map<const char*, SpanStats> stats;
    std::size_t dropped = 0;
  };
  Thread& local();

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

/// RAII span around one call into a layer. `name` must be a string literal
/// ("<layer>.<call>"). The op id is inherited from the enclosing span unless
/// given.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Thread* thread_ = nullptr;
};

// --- per-run record ----------------------------------------------------------

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one workload run measured. main.cpp turns it into JSON.
struct Record {
  std::vector<double> setup_s;      // one entry per setup repetition
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t warmup_ops = 0;     // untimed ops before the timed window
  double run_s = 0.0;               // timed wall span of the closed loop
  Histogram latency;                // per-op latency
  std::optional<double> cold_start_us;
  std::vector<double> window_rss_mib;  // sampled RSS peak per timed window
  std::map<std::string, double> layer;          // per-layer metrics
  std::map<std::string, std::string> params;    // derived workload parameters
  std::map<std::string, std::string> context;   // resolved thread counts etc.
  std::vector<Check> checks;

  void check(const std::string& name, bool ok, const std::string& detail = "");
  [[nodiscard]] bool all_checks_ok() const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  // per-run directory for catalogs / spill files
};

/// Runs `setup` `reps` times and returns the last fixture; each repetition's
/// wall time lands in record.setup_s (the first one measured from
/// `process_start_ns`, i.e. it includes process start-up).
template <typename Fixture, typename SetupFn>
std::unique_ptr<Fixture> repeat_setup(std::size_t reps,
                                      std::uint64_t process_start_ns,
                                      Record& record, const SetupFn& setup) {
  std::unique_ptr<Fixture> fixture;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::uint64_t t0 = r == 0 ? process_start_ns : now_ns();
    fixture.reset();
    fixture = setup();
    record.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  Tracer::get().reset_stats();
  return fixture;
}

/// peak_rss_mib is the median of per-window RSS peaks: one window per op
/// for a single caller, else slices of this length.
constexpr std::uint64_t kWindowNs = 500000000ull;

/// Samples this process's resident set every few milliseconds from a
/// background thread and keeps the largest sample per window of the timed
/// span that starts at `start_ns`. Windows are ops when `per_op` (the single
/// caller calls next_op() after each), else kWindowNs slices.
class RssSampler {
 public:
  RssSampler(std::uint64_t start_ns, bool per_op);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  void next_op() { op_.fetch_add(1, std::memory_order_relaxed); }
  /// Stops sampling; returns the per-window peaks in MiB.
  std::vector<double> stop();

 private:
  void loop();
  const std::uint64_t start_ns_;
  const bool per_op_;
  std::atomic<std::size_t> op_{0};
  std::mutex mutex_;
  std::map<std::size_t, double> peaks_;  // guarded by mutex_
  bool stopping_ = false;                // guarded by mutex_
  std::condition_variable wake_;
  std::thread thread_;  // last: starts after the members it reads exist
};

/// What one closed-loop call did: `ok` ops that each took `ns` (the timed
/// span only; checks run outside it — a batch's requests share its latency)
/// and `failed` ops whose output check failed.
struct Ops {
  std::uint64_t ns = 0;
  std::uint32_t ok = 0;
  std::uint32_t failed = 0;
};
inline Ops one_op(std::uint64_t ns) { return {ns, 1, 0}; }
inline constexpr Ops kFailedOp{0, 0, 1};

/// Closed-loop runner: `callers` threads each call op(caller, i) -> Ops for
/// `warmup` seconds untimed, then for `seconds` timed. Only calls that start
/// after the warm-up count; fills attempted/failed/run_s/latency.
template <typename OpFn>
void closed_loop(std::size_t callers, double warmup, double seconds,
                 Record& record, const OpFn& op) {
  struct PerCaller {
    Histogram latency;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t last_end_ns = 0;
    std::uint64_t warmup_ops = 0;
    std::uint64_t warmup_failed = 0;
  };
  std::vector<PerCaller> per(callers);
  const std::map<std::string, double> self_before =
      Tracer::get().self_seconds_by_layer();
  const std::uint64_t start =
      now_ns() + static_cast<std::uint64_t>(warmup * 1e9);
  const auto deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  RssSampler rss(start, callers == 1);
  const auto body = [&](std::size_t c) {
    PerCaller& mine = per[c];
    for (std::uint64_t i = 0;; ++i) {
      if (now_ns() < start) {
        const Ops warm = op(c, i);
        mine.warmup_ops += warm.ok + warm.failed;
        mine.warmup_failed += warm.failed;
        continue;
      }
      const Ops done = op(c, i);
      mine.attempted += done.ok + done.failed;
      mine.failed += done.failed;
      mine.last_end_ns = now_ns();
      if (done.ok > 0) mine.latency.add(done.ns, done.ok);
      if (callers == 1) rss.next_op();
      if (mine.last_end_ns >= deadline) break;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < callers; ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& t : threads) t.join();
  record.window_rss_mib = rss.stop();
  std::uint64_t end = start;
  std::uint64_t warmup_ops = 0;
  std::uint64_t warmup_failed = 0;
  for (const PerCaller& mine : per) {
    record.latency.merge(mine.latency);
    record.attempted += mine.attempted;
    record.failed += mine.failed;
    warmup_ops += mine.warmup_ops;
    warmup_failed += mine.warmup_failed;
    end = std::max(end, mine.last_end_ns);
  }
  record.run_s = static_cast<double>(end - start) * 1e-9;
  record.warmup_ops = warmup_ops;
  if (warmup > 0) {
    record.params["warmup_s"] = format_double(warmup);
    record.check("warm-up ops verified", warmup_failed == 0,
                 std::to_string(warmup_failed) + " of " +
                     std::to_string(warmup_ops) + " failed");
  }
  if (Tracer::get().enabled()) {
    // Self time per layer per op, over the closed loop (warm-up included).
    const double ops = static_cast<double>(record.attempted + warmup_ops);
    for (const auto& [layer, self_s] : Tracer::get().self_seconds_by_layer()) {
      const auto it = self_before.find(layer);
      const double before = it == self_before.end() ? 0.0 : it->second;
      record.layer["self_ms." + (layer == "op" ? std::string("client") : layer)] =
          (self_s - before) * 1e3 / ops;
    }
  }
}

/// Runs `fn` in a forked child process and waits for it; throws when the
/// child fails. Set-up uses it to build a closure whose memory must not
/// count toward this process's peak RSS (the parent only serves the saved
/// catalog). Call only while this process runs a single thread.
void run_in_child(const std::function<void()>& fn);

/// Returns freed heap to the OS (malloc_trim), so peak_rss_mib measures one
/// op's working set rather than allocator retention from earlier ops.
void release_free_heap();

/// splitmix64 — derives independent sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- workloads ---------------------------------------------------------------

using WorkloadFn = void (*)(const Options&, std::uint64_t, Record&);
void run_paper_pipeline(const Options& options, std::uint64_t process_start_ns,
                        Record& record);
void run_synth_queries(const Options& options, std::uint64_t process_start_ns,
                       Record& record);
void run_automata_serve(const Options& options, std::uint64_t process_start_ns,
                        Record& record);
void run_closure_spill(const Options& options, std::uint64_t process_start_ns,
                       Record& record);

}  // namespace qbench

