// Edge-update ingestion and snapshot refresh: the path from "a link
// changed" to "queries see new ranks".
//
//   * UpdateQueue — lock-free MPSC edge-update queue (Treiber stack
//     with an exchange-based drain). Any number of producer threads
//     push() concurrently with one consumer; drain() detaches the
//     whole pending list in one atomic exchange and returns it in
//     arrival (FIFO) order. Producers never lock, never wait, and
//     never touch the graph.
//   * UpdateRefresher — the single consumer: drains the queue, splices
//     the changed rows into its CSR (out and in; no rebuild, no edge
//     list), picks a recompute strategy by batch size —
//       small batch (<= small_batch_max): a warm-started push. The
//         refresher keeps the last published ranks x and their residual
//         r against the current graph. Each changed source u moves
//         r[w] by -a*x[u]/d_u over its old out-row and +a*x[u]/d'_u
//         over its new one (the dynamic-graph invariant of Zhang,
//         Lofgren & Goel, KDD 2016), then a serial FIFO worklist
//         pushes every |r[v]| >= epsilon/|V| onward. Only mass
//         downstream of the change moves; the result is approximate,
//         bounded by epsilon, serial and bitwise reproducible. A push
//         that visits more edges than one full run would is abandoned
//         and the batch runs full instead. The
//         correction never touches the teleport vector, so a PPR-backed
//         refresher stays PPR;
//       large batch: a full engine run of the configured kernel
//         (exact, and — with the deterministic PCPM gather — bitwise-
//         reproducible), after which x = its ranks and r = 0;
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
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "algos/pagerank.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/splice.hpp"
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

/// Knobs of the small-batch warm push.
struct WarmPushOptions {
  /// A vertex pushes while |residual| >= epsilon / |V|. Tighter than
  /// the cold solver's 1e-2: after 20 batches of up to 64 updates on
  /// R-MAT scale 14, 1e-2 leaves the warm ranks 1.8x the full run's own
  /// L1 error away from a fresh full run, 3e-4 leaves 0.4x, and at
  /// scale 18 it costs ~4 ms more per refresh.
  double epsilon = 3e-4;
  /// Worklist rounds per refresh; what is left waits in the residual
  /// for the next refresh.
  unsigned max_iterations = 100;
};

/// Refresh strategy knobs.
struct RefreshOptions {
  /// Batches of at most this many updates refresh with the warm push;
  /// larger batches trigger a full engine run. A small batch runs full
  /// too when it arrives before any full run (no published ranks to
  /// warm from), or when its push visits more edges than one full run
  /// would (|E| x `full.pr.iterations`): the push is abandoned there.
  std::uint64_t small_batch_max = 64;
  /// Warm-push knobs. Its damping is the full-run kernel's
  /// (`full.pr.damping`, or `full.personalized.damping` for PPR), since
  /// the push continues the ranks that kernel produced.
  WarmPushOptions delta{};
  /// Full-run path: methodology + parameters for the kernel-generic
  /// runners. `full.kernel` selects which rank-producing kernel backs
  /// the refresh — kPageRank (default) or kPersonalized with
  /// `full.personalized` seeds; non-rank kernels are rejected.
  algo::Method full_method = algo::Method::kHipa;
  algo::MethodParams full{};
  /// CSR canonicalization of the base graph (duplicates dropped so
  /// repeated inserts of one edge are idempotent). Refreshes splice
  /// rows and keep that form: the graph always equals build_graph()
  /// over the edited edge list. The constructor rejects
  /// remove_duplicates = false and symmetrize = true: a splice cannot
  /// tell a parallel copy or a reverse edge from the original.
  /// remove_self_loops is honored.
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
  bool full_run = false;    ///< full engine run vs warm push
  unsigned iterations = 0;  ///< engine iterations, or worklist rounds
  double seconds = 0.0;     ///< drain + splice + recompute + publish
};

/// The single consumer: owns the evolving CSR and the warm-push state,
/// recomputes and publishes. All refreshing (synchronous or background) is
/// serialized internally; producers only ever touch the queue.
class UpdateRefresher {
 public:
  /// `edges` is the base edge list; ids must be < num_vertices (the
  /// store's vertex universe is fixed at its construction). It is
  /// built into the CSR and released.
  UpdateRefresher(vid_t num_vertices, std::vector<Edge> edges,
                  SnapshotStore& store, UpdateQueue& queue,
                  RefreshOptions opt = {});
  ~UpdateRefresher();

  UpdateRefresher(const UpdateRefresher&) = delete;
  UpdateRefresher& operator=(const UpdateRefresher&) = delete;

  /// Full run over the base edges and publish epoch 1 (or the next
  /// epoch if the store already holds snapshots). Returns the epoch.
  std::uint64_t publish_initial();

  /// One synchronous refresh cycle: drain → splice → recompute →
  /// publish. No-op (epoch 0) when the queue is empty.
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
  /// Edges of the served graph (after deduplication).
  [[nodiscard]] std::uint64_t num_edges() const {
    return graph_.num_edges();
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
  void background_loop();
  /// One full engine run with the configured method + kernel.
  [[nodiscard]] engine::RunResult full_run();
  /// `batch` as final-state out-edits, sorted (validates every id).
  [[nodiscard]] std::vector<graph::RowEdit> final_edits(
      const std::vector<EdgeUpdate>& batch) const;
  /// Restart the warm state from a full run's ranks (r = 0).
  void reset_warm(std::span<const rank_t> ranks);
  /// Move the residual by the rank flow `old_out` -> graph_.out changed
  /// for each edited source, then push it. Returns the worklist rounds,
  /// or nullopt once the edges visited pass one full run's (the warm
  /// state is then stale).
  std::optional<unsigned> warm_push(const graph::CsrGraph& old_out,
                                    std::span<const graph::RowEdit> edits);

  vid_t num_vertices_;
  graph::Graph graph_;
  SnapshotStore& store_;
  UpdateQueue& queue_;
  RefreshOptions opt_;
  /// Damping of the kernel behind the full run (and so behind x_).
  double damping_ = 0.85;

  // Warm-push state; x_ is empty until a full run succeeds.
  std::vector<double> x_;             ///< last published ranks
  std::vector<double> r_;             ///< residual of x_ on graph_
  std::vector<vid_t> frontier_;       ///< vertices queued for a push
  std::vector<vid_t> next_frontier_;  ///< the round being collected
  std::vector<std::uint8_t> queued_;  ///< membership of both frontiers
  std::vector<rank_t> publish_buf_;   ///< x_ narrowed for publishing

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
