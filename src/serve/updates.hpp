// Edge-update ingestion and snapshot refresh: the path from "a link
// changed" to "queries see new ranks".
//
//   * UpdateQueue — lock-free MPSC edge-update queue (Treiber stack
//     with an exchange-based drain). Any number of producer threads
//     push() concurrently with one consumer; drain() detaches the
//     whole pending list in one atomic exchange and returns it in
//     arrival (FIFO) order. Producers never lock, never wait, and
//     never touch the graph.
//   * UpdateRefresher — the single consumer: drains the queue, applies
//     the updates to its private edge list, rebuilds the CSR, picks a
//     recompute strategy by batch size —
//       small batch (<= small_batch_max): PageRank-Delta, which only
//         propagates changed mass (paper §6's incremental extension;
//         approximate, bounded by its epsilon);
//       large batch: a full HiPa engine run (exact, and — with the
//         deterministic PCPM gather — bitwise-reproducible);
//     — and atomically publishes the resulting ranks as the next
//     snapshot epoch. Readers keep querying the previous epoch for the
//     whole recompute; the publish is the store's one-word swap.
//
// refresh_now() is the synchronous form (tests, benches, examples);
// start()/stop() runs the same cycle on a background polling thread —
// the "background refresher" of the serving layer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "algos/pagerank.hpp"
#include "algos/pagerank_delta.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "runtime/metrics.hpp"
#include "serve/snapshot.hpp"

namespace hipa::serve {

/// One queued mutation: insert (default) or remove an edge.
struct EdgeUpdate {
  Edge edge{};
  bool remove = false;
};

/// Lock-free multi-producer single-consumer update queue.
class UpdateQueue {
 public:
  UpdateQueue() = default;
  ~UpdateQueue();

  UpdateQueue(const UpdateQueue&) = delete;
  UpdateQueue& operator=(const UpdateQueue&) = delete;

  /// Enqueue (lock-free, any thread).
  void push(EdgeUpdate u);
  void push_add(Edge e) { push(EdgeUpdate{e, false}); }
  void push_remove(Edge e) { push(EdgeUpdate{e, true}); }

  /// Detach and return everything pending, oldest first. Single
  /// consumer only (the refresher).
  [[nodiscard]] std::vector<EdgeUpdate> drain();

  /// Updates pushed minus updates drained (racy by nature; monotone
  /// counters underneath).
  [[nodiscard]] std::size_t approx_pending() const {
    const std::uint64_t p = pushed_.load(std::memory_order_relaxed);
    const std::uint64_t d = drained_.load(std::memory_order_relaxed);
    return p > d ? static_cast<std::size_t>(p - d) : 0;
  }
  [[nodiscard]] std::uint64_t total_pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    EdgeUpdate update;
    Node* next = nullptr;
  };
  std::atomic<Node*> head_{nullptr};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> drained_{0};  ///< consumer-only writes
};

/// Refresh strategy knobs.
struct RefreshOptions {
  /// Batches of at most this many updates refresh with PageRank-Delta;
  /// larger batches trigger a full engine run.
  std::uint64_t small_batch_max = 64;
  /// Delta-path options. threads defaults to 1 here (deterministic:
  /// the delta push phase uses atomic adds, so only a single-threaded
  /// run is bitwise-reproducible).
  algo::DeltaOptions delta{.threads = 1, .num_nodes = 1};
  /// Full-run path: methodology + parameters for the kernel-generic
  /// runners. `full.kernel` selects which rank-producing kernel backs
  /// the refresh — kPageRank (default) or kPersonalized with
  /// `full.personalized` seeds; non-rank kernels are rejected.
  algo::Method full_method = algo::Method::kHipa;
  algo::MethodParams full{};
  /// CSR canonicalization for rebuilds (duplicates dropped so repeated
  /// inserts of one edge are idempotent).
  graph::BuildOptions build{.sort_neighbors = true,
                            .remove_duplicates = true};
  /// Non-empty: full recomputes stream from this segmented HCSR v3/v4
  /// file through OocoreEngine instead of running over the in-memory
  /// CSR — the shard-fleet refresh mode, where a process serves a
  /// vertex slice without holding the whole in-core graph. File-backed
  /// mode is full-run only (kernel must stay kPageRank) and the
  /// topology is the file's: edge updates cannot be applied, so
  /// refresh_now() rejects a non-empty queue, and refresh_now()
  /// recomputes unconditionally (the use case is "the file was
  /// re-converted on disk").
  std::string graph_path;
  /// OocoreEngine knobs for file-backed full runs.
  unsigned oocore_threads = 2;
  std::size_t oocore_resident_budget_bytes = 0;  ///< 0 = unlimited
  /// Background-thread poll period.
  double poll_seconds = 0.005;
  /// Lifetime metrics (refresh latency by kind, applied updates,
  /// publish epoch, queue lag, folded engine-run totals). false =
  /// no-op handles, behavior byte-identical.
  bool metrics = true;
  /// Registry to record into; nullptr = the process-global registry.
  runtime::metrics::MetricsRegistry* registry = nullptr;
};

/// What one refresh cycle did.
struct RefreshReport {
  std::uint64_t epoch = 0;  ///< published epoch; 0 = queue was empty
  std::size_t updates_applied = 0;
  bool full_run = false;    ///< full engine run vs PageRank-Delta
  unsigned iterations = 0;
  double seconds = 0.0;     ///< drain + rebuild + recompute + publish
};

/// The single consumer: owns the evolving edge list + CSR, recomputes
/// and publishes. All refreshing (synchronous or background) is
/// serialized internally; producers only ever touch the queue.
class UpdateRefresher {
 public:
  /// `edges` is the base edge list; ids must be < num_vertices (the
  /// store's vertex universe is fixed at its construction).
  UpdateRefresher(vid_t num_vertices, std::vector<Edge> edges,
                  SnapshotStore& store, UpdateQueue& queue,
                  RefreshOptions opt = {});
  ~UpdateRefresher();

  UpdateRefresher(const UpdateRefresher&) = delete;
  UpdateRefresher& operator=(const UpdateRefresher&) = delete;

  /// Full run over the base edges and publish epoch 1 (or the next
  /// epoch if the store already holds snapshots). Returns the epoch.
  std::uint64_t publish_initial();

  /// One synchronous refresh cycle: drain → apply → rebuild →
  /// recompute → publish. No-op (epoch 0) when the queue is empty.
  RefreshReport refresh_now();

  /// Start/stop the background refresher thread (idempotent). The
  /// thread polls the queue every poll_seconds and runs refresh_now()
  /// whenever updates are pending.
  void start();
  void stop();
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Current graph (consumer-side; callers must not race a running
  /// background refresher — exposed for tests and examples).
  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  [[nodiscard]] std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(edges_.size());
  }

  // Counters (monotone, racy-read safe).
  [[nodiscard]] std::uint64_t refreshes() const {
    return refreshes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t delta_refreshes() const {
    return delta_refreshes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t full_refreshes() const {
    return full_refreshes_.load(std::memory_order_relaxed);
  }

 private:
  void apply(const std::vector<EdgeUpdate>& updates);
  void background_loop();
  /// One full engine run with the configured method + kernel.
  [[nodiscard]] engine::RunResult full_run();

  vid_t num_vertices_;
  std::vector<Edge> edges_;
  graph::Graph graph_;
  SnapshotStore& store_;
  UpdateQueue& queue_;
  RefreshOptions opt_;

  std::mutex refresh_mutex_;  ///< serializes refresh cycles
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  std::atomic<std::uint64_t> refreshes_{0};
  std::atomic<std::uint64_t> delta_refreshes_{0};
  std::atomic<std::uint64_t> full_refreshes_{0};

  // Lifetime metric handles; registry_ doubles as the "metrics on"
  // flag and the sink for fold_run_metrics after full engine runs.
  runtime::metrics::MetricsRegistry* registry_ = nullptr;
  runtime::metrics::Counter delta_refreshes_metric_;
  runtime::metrics::Counter full_refreshes_metric_;
  runtime::metrics::Counter updates_applied_metric_;
  runtime::metrics::Histogram delta_latency_metric_;
  runtime::metrics::Histogram full_latency_metric_;
  runtime::metrics::Histogram batch_updates_metric_;
  runtime::metrics::Gauge publish_epoch_metric_;
  runtime::metrics::Gauge queue_lag_metric_;
};

}  // namespace hipa::serve
