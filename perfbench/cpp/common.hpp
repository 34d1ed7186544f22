// Shared plumbing of the repository benchmark: run configuration,
// measured-metric collection, percentile helpers, RSS sampling and the
// benchmark-side span tracer.
//
// Every layer is measured from outside: the workloads time their own
// calls into each module's public functions (graph, partition, pcp,
// engines, runtime, serve, shard). Spans are recorded only in a traced
// run (--trace 1); in an untraced run ScopedSpan costs one relaxed load.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engines/backend.hpp"
#include "graph/csr.hpp"

namespace perfbench {

/// Deliberate defects for the benchmark's self-test: each must make the
/// run report wrong answers and exit nonzero.
enum class Fault {
  kNone,
  kRefBit,  ///< flip one bit of the benchmark's reference ranks
  kAnswer,  ///< corrupt one answer on its way into the comparison
};

/// Offered rates of the two fixed-rate phases of a serving workload;
/// BENCHMARK.json's command fixes them, so they have no defaults here.
struct Rates {
  double lo = 0.0;
  double hi = 0.0;
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< self-test scale: every workload in seconds
  Fault fault = Fault::kNone;
  std::string out_dir = ".bench_out";
  std::string self_exe;  ///< re-exec'd as shard children (routed)
  Rates serve_rates;   ///< required for serve_rw
  Rates routed_rates;  ///< required for routed
};

/// One measured value with its unit, in the order it was recorded.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the correctness tally, the
/// metrics it measured and the parameters it generated its inputs with.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> params;  ///< provenance, as text
  std::vector<std::string> notes;             ///< human-readable lines

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void param(const std::string& key, const std::string& value) {
    params[key] = value;
  }
  void param(const std::string& key, double value);
  /// Record one correctness verdict.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---- time ----------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleep until `deadline_ns`, spinning for the last stretch so wake-up
/// lateness stays in the microseconds.
void sleep_until_ns(std::int64_t deadline_ns);

// ---- statistics ----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// ---- cpu and memory ------------------------------------------------------

/// CPU seconds (user + system, all threads) used so far by this process
/// plus `children`. Time the host steals from the guest is not included.
[[nodiscard]] double cpu_seconds(const std::vector<pid_t>& children = {});


/// Resident set of `pid` (0 = this process) in bytes; 0 if unreadable.
[[nodiscard]] std::uint64_t rss_bytes(pid_t pid = 0);

/// Samples the summed resident set of this process plus `children`
/// every few milliseconds on a background thread and keeps the peak.
class RssSampler {
 public:
  explicit RssSampler(std::vector<pid_t> children = {});
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  /// Summed RSS right now, in bytes.
  [[nodiscard]] std::uint64_t sample() const;
  /// Stop sampling; returns the peak summed RSS in bytes.
  std::uint64_t stop();

 private:
  std::vector<pid_t> pids_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> peak_{0};
  std::thread thread_;
};

[[nodiscard]] inline double mib(std::uint64_t bytes) {
  return double(bytes) / double(1 << 20);
}

// ---- tracing -------------------------------------------------------------

/// Benchmark-side span recorder. Spans nest per thread: a span's parent
/// is the innermost open span of the same thread.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint32_t tid;
  };

  static Tracer& get();
  void enable(std::size_t per_thread_cap = 200000);
  /// Suspend recording (a traced run's untraced comparison phase).
  void pause(bool paused) { enabled_.store(!paused); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void record(const Span& s);
  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// All spans recorded so far, from every thread.
  [[nodiscard]] std::vector<Span> collect() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  void write_chrome_trace(const std::string& path) const;
  /// Per-span-name table (calls, total and self milliseconds); self
  /// time excludes the part of a span covered by its child spans.
  [[nodiscard]] std::string layer_table() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::uint32_t tid = 0;
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
  std::size_t cap_ = 0;
  mutable std::vector<Buffer*> buffers_;  // guarded by the mutex in .cpp
};

/// RAII span: records [construction, destruction) when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ = 0;
};

/// Time one call: returns seconds and records a span named `name`.
template <class F>
double timed(const char* name, F&& f) {
  ScopedSpan span(name);
  const std::int64_t t0 = now_ns();
  f();
  return 1e-9 * double(now_ns() - t0);
}

// ---- layer probes (pr.cpp) -----------------------------------------------
// Direct calls into partition, pcp and engines on a workload's own graph,
// for the per-layer metrics of a traced run.

/// build_hierarchical_plan and build_bins as the HiPa engine calls them.
void probe_partition_and_bins(const hipa::graph::Graph& g, unsigned threads,
                              Result& out);
/// HiPa PcpmEngine construction plus one telemetered 20-iteration run.
void probe_incore_engine(const hipa::graph::Graph& g, unsigned threads,
                         Result& out);
/// The engines.* and runtime.* split of one telemetered run;
/// `extra_bytes` adds bytes the engine moved outside its phases.
void record_engine_telemetry(const hipa::engine::RunReport& rep,
                             std::uint64_t edges, std::uint64_t extra_bytes,
                             Result& out);

// ---- workloads -----------------------------------------------------------

void run_pr(const Config& cfg, bool streamed, Result& out);
void run_serve_rw(const Config& cfg, Result& out);
void run_routed(const Config& cfg, Result& out);
/// Child mode of the routed workload: one ShardServer process.
int shard_child_main(int argc, char** argv);

}  // namespace perfbench
