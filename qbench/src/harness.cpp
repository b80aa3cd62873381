// qbench/src/harness.cpp — histogram, tracer, resource snapshots, record.
#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace qbench {

// --- Histogram ---------------------------------------------------------------

std::size_t Histogram::bucket_of(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const std::size_t msb = 63 - static_cast<std::size_t>(__builtin_clzll(ns));
  const std::size_t shift = msb - kSubBits;
  const std::size_t sub = static_cast<std::size_t>(ns >> shift) - kSub;
  return kSub + shift * kSub + sub;
}

std::uint64_t Histogram::bucket_low(std::size_t bucket) {
  if (bucket < kSub) return bucket;
  const std::size_t shift = (bucket - kSub) / kSub;
  const std::size_t sub = (bucket - kSub) % kSub;
  return static_cast<std::uint64_t>(kSub + sub) << shift;
}

std::uint64_t Histogram::bucket_width(std::size_t bucket) {
  if (bucket < kSub) return 1;
  return std::uint64_t(1) << ((bucket - kSub) / kSub);
}

void Histogram::add(std::uint64_t ns, std::uint64_t times) {
  if (buckets_.empty()) buckets_.assign(kSub + (64 - kSubBits) * kSub, 0);
  buckets_[bucket_of(ns)] += times;
  count_ += times;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(other.buckets_.size(), 0);
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Nearest rank: the smallest value with at least ceil(q * n) samples at or
  // below it.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t in_bucket = buckets_[b];
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      const double position =
          (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(in_bucket);
      return static_cast<double>(bucket_low(b)) +
             position * static_cast<double>(bucket_width(b));
    }
    seen += in_bucket;
  }
  return 0.0;
}

// --- Usage -------------------------------------------------------------------

Usage Usage::now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  out.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  out.max_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  out.wall_ns = now_ns();
  return out;
}

// --- RssSampler --------------------------------------------------------------

namespace {
double resident_mib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}
}  // namespace

RssSampler::RssSampler(std::uint64_t start_ns, bool per_op)
    : start_ns_(start_ns), per_op_(per_op), thread_([this] { loop(); }) {}

RssSampler::~RssSampler() { stop(); }

void RssSampler::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    const std::uint64_t now = now_ns();
    if (now >= start_ns_) {
      const std::size_t w = per_op_ ? op_.load(std::memory_order_relaxed)
                                    : static_cast<std::size_t>((now - start_ns_) / kWindowNs);
      double& peak = peaks_[w];
      peak = std::max(peak, resident_mib());
    }
    wake_.wait_for(lock, std::chrono::milliseconds(5), [this] { return stopping_; });
  }
}

std::vector<double> RssSampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::vector<double> out;
  for (const auto& [window, peak] : peaks_) out.push_back(peak);
  return out;
}

// --- Tracer ------------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Thread& Tracer::local() {
  thread_local Thread* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<Thread>();
    mine = fresh.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::move(fresh));
  }
  return *mine;
}

ScopedSpan::ScopedSpan(const char* name, std::uint32_t op) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  thread_ = &tracer.local();
  std::vector<Tracer::Open>& stack = thread_->stack;
  if (op == 0 && !stack.empty()) op = stack.back().op;
  std::uint32_t slot = Tracer::kNoParent;
  if (thread_->spans.size() < Tracer::kMaxStoredPerThread) {
    slot = static_cast<std::uint32_t>(thread_->spans.size());
    Span span;
    span.name = name;
    span.parent = stack.empty() ? Tracer::kNoParent : stack.back().slot;
    span.op = op;
    thread_->spans.push_back(span);
  }
  stack.push_back({name, now_ns(), 0, op, slot});
  if (slot != Tracer::kNoParent) {
    thread_->spans[slot].start_ns = stack.back().start_ns;
  }
}

ScopedSpan::~ScopedSpan() {
  if (thread_ == nullptr) return;
  const std::uint64_t end = now_ns();
  const Tracer::Open open = thread_->stack.back();
  thread_->stack.pop_back();
  const std::uint64_t duration = end - open.start_ns;
  if (!thread_->stack.empty()) thread_->stack.back().child_ns += duration;
  SpanStats& stats = thread_->stats[open.name];
  ++stats.count;
  stats.total_ns += duration;
  stats.self_ns += duration - std::min(duration, open.child_ns);
  stats.durations.add(duration);
  if (open.slot != Tracer::kNoParent) {
    thread_->spans[open.slot].end_ns = end;
  } else {
    ++thread_->dropped;
  }
}

std::map<std::string, SpanStats> Tracer::aggregate() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, SpanStats> out;
  for (const auto& thread : threads_) {
    for (const auto& [name, stats] : thread->stats) {
      SpanStats& into = out[name];
      into.count += stats.count;
      into.total_ns += stats.total_ns;
      into.self_ns += stats.self_ns;
      into.durations.merge(stats.durations);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, stats] : aggregate()) {
    out[name.substr(0, name.find('.'))] +=
        static_cast<double>(stats.self_ns) * 1e-9;
  }
  return out;
}

void Tracer::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& thread : threads_) thread->stats.clear();
}

std::size_t Tracer::stored_spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& thread : threads_) total += thread->spans.size();
  return total;
}

std::size_t Tracer::dropped_spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& thread : threads_) total += thread->dropped;
  return total;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
         "\"op\", \"thread\"],\n \"spans\": [";
  bool first = true;
  std::size_t dropped = 0;
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    dropped += threads_[t]->dropped;
    for (const Span& span : threads_[t]->spans) {
      out << (first ? "\n  " : ",\n  ") << "[\"" << span.name << "\", "
          << span.start_ns << ", " << span.end_ns << ", "
          << (span.parent == kNoParent ? -1 : static_cast<long long>(span.parent))
          << ", " << span.op << ", " << t << "]";
      first = false;
    }
  }
  out << "\n ],\n \"dropped\": " << dropped << "}\n";
}

// --- processes / heap --------------------------------------------------------

void run_in_child(const std::function<void()>& fn) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "qbench: set-up child failed: %s\n", e.what());
      code = 1;
    }
    _exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child process failed");
  }
}

void release_free_heap() { malloc_trim(0); }

// --- Record / helpers --------------------------------------------------------

void Record::check(const std::string& name, bool ok, const std::string& detail) {
  checks.push_back({name, ok, detail});
}

bool Record::all_checks_ok() const {
  for (const Check& c : checks) {
    if (!c.ok) return false;
  }
  return true;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string format_double(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace qbench
