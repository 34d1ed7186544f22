// Batched query engine over the snapshot store: one persistent,
// NUMA-pinned worker per node, request coalescing into per-node
// shards, per-request latency into the lifetime metrics plane.
//
// Execution model (the serving-side mirror of the engines' Algorithm 2
// thread model):
//
//   * at construction the service starts one persistent worker thread
//     per snapshot-store node and pins it to a CPU of that node
//     (runtime/affinity; best effort, like the engines). Workers live
//     for the service's lifetime — no thread creation on the request
//     path;
//   * execute_batch() pins ONE snapshot for the whole batch (so every
//     answer in a batch comes from the same epoch), then coalesces the
//     requests into at most one shard per node:
//       - point/batch lookups are routed to the node that owns the
//         vertex under the snapshot's placement slices, so the worker
//         reads only node-local rank pages;
//       - global top-k requests within the index depth go to one
//         worker round-robin and are served from that node's replica
//         (pure local reads);
//       - range-restricted (or deeper-than-index) top-k requests are
//         split across the nodes whose slices intersect the range;
//         each worker scans only its local slice and the caller merges
//         the tiny per-node partials;
//   * each worker drains its shard queue under a mutex+condvar (the
//     queue is cold — the work is the shard body); a per-batch latch
//     releases the caller when every shard finished.
//
// Accounting: the MetricsRegistry is the only record. Each batch adds
// a few relaxed atomics into the calling thread's shard (no lock, no
// per-request storage, so memory stays flat however long the service
// runs), and stats() is a read-only view over a registry snapshot.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "runtime/metrics.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"

namespace hipa::serve {

class MetricsHttpServer;

/// Service construction knobs.
struct ServiceOptions {
  /// Pin each worker to a CPU of its node (best effort).
  bool pin_workers = true;
  /// Lifetime metrics (per-class latency histograms, batch sizes,
  /// queue depth, epoch lag). false = no-op handles, behavior
  /// byte-identical, and stats() reads all zeros.
  bool metrics = true;
  /// Registry to record into; nullptr = the process-global registry.
  runtime::metrics::MetricsRegistry* registry = nullptr;
  /// Metrics scrape endpoint (serve/metrics_export): -1 = no listener
  /// (default), 0 = ephemeral port (tests; see metrics_http_port()),
  /// 1..65535 = fixed port.
  int metrics_port = -1;
  /// Scrape endpoint bind address. The loopback default keeps a
  /// single-host service private; a shard scraped by a remote router
  /// opts into "0.0.0.0" (or a specific interface) explicitly.
  std::string metrics_bind_addr = "127.0.0.1";
};

/// Percentile summary of request latencies, in seconds.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Summary of one histogram snapshot, scaled to export units (seconds
/// for a histogram registered with scale 1e-9). Quantiles and max
/// carry the histogram's one-bucket error; count and mean are exact.
[[nodiscard]] LatencySummary latency_summary(
    const runtime::metrics::HistogramSnapshot& h);

/// The batched query engine. Thread-safe: any number of caller threads
/// may execute() / execute_batch() concurrently; the snapshot store's
/// publisher keeps publishing underneath.
class RankService {
 public:
  explicit RankService(const SnapshotStore& store, ServiceOptions opt = {});
  ~RankService();

  RankService(const RankService&) = delete;
  RankService& operator=(const RankService&) = delete;

  /// Execute one request (a batch of one).
  QueryResult execute(const Query& q);

  /// Execute a batch of requests against ONE pinned snapshot (all
  /// responses carry the same epoch). Throws hipa::Error when nothing
  /// has been published yet.
  std::vector<QueryResult> execute_batch(std::span<const Query> queries);

  /// Lifetime counters, read from the service's registry
  /// (ServiceOptions::registry, else the global one). The registry
  /// counts every service that records into it, so a service that
  /// needs counts of its own passes a private registry. All zeros
  /// when ServiceOptions::metrics is false.
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t point_requests = 0;
    std::uint64_t batch_requests = 0;
    std::uint64_t topk_requests = 0;
    std::uint64_t batches = 0;           ///< execute_batch calls
    std::uint64_t shards_dispatched = 0; ///< per-node tasks enqueued
    std::uint64_t vertices_looked_up = 0;
    /// Per-request wall seconds, indexed by QueryKind. Histogram
    /// snapshots carry no buckets, so the classes cannot be merged.
    std::array<LatencySummary, 3> latency{};
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] unsigned num_workers() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Actual port of the metrics HTTP listener (-1 when
  /// ServiceOptions::metrics_port was left disabled).
  [[nodiscard]] int metrics_http_port() const;

  /// Join the workers. Idempotent; the destructor calls it.
  void stop();

 private:
  /// Work routed to one node in one batch.
  struct Lookup {
    vid_t vertex;
    rank_t* out;
  };
  struct ScanJob {
    VertexRange range;
    unsigned k;
    std::vector<TopKEntry>* out;
  };
  struct ReplicaJob {
    unsigned k;
    std::vector<TopKEntry>* out;
  };
  struct Shard {
    std::vector<Lookup> lookups;
    std::vector<ScanJob> scans;
    std::vector<ReplicaJob> replicas;
    [[nodiscard]] bool empty() const {
      return lookups.empty() && scans.empty() && replicas.empty();
    }
  };

  /// Countdown latch for one batch dispatch.
  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    unsigned remaining = 0;
    void arrive();
    void wait();
  };

  struct Task {
    const Snapshot* snap;
    Shard shard;
    Latch* latch;
  };

  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Task> queue;
    bool shutdown = false;
  };

  void worker_loop(unsigned w, int cpu);
  void run_shard(unsigned w, const Snapshot& snap, const Shard& shard);
  [[nodiscard]] unsigned worker_of_node(unsigned node) const {
    return node % static_cast<unsigned>(workers_.size());
  }

  const SnapshotStore& store_;
  ServiceOptions opt_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool stopped_ = false;

  /// Lifetime metric handles, indexed by QueryKind where per-class.
  struct Instruments {
    std::array<runtime::metrics::Counter, 3> requests;
    std::array<runtime::metrics::Histogram, 3> latency;
    runtime::metrics::Counter batches;
    runtime::metrics::Counter shards_dispatched;
    runtime::metrics::Counter vertices_looked_up;
    runtime::metrics::Histogram batch_size;
    runtime::metrics::Gauge queue_depth;
    runtime::metrics::Gauge answer_epoch;
    runtime::metrics::Gauge epoch_lag;
  };
  Instruments metrics_;
  /// What stats() reads; nullptr when metrics are off.
  runtime::metrics::MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<MetricsHttpServer> metrics_server_;
  std::atomic<std::uint64_t> rr_node_{0};  ///< round-robin for replicas
};

}  // namespace hipa::serve
