#include "serve/updates.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "engines/backend.hpp"
#include "engines/metrics_bridge.hpp"
#include "engines/oocore_engine.hpp"

namespace hipa::serve {

// ---------------------------------------------------------------------------
// UpdateQueue
// ---------------------------------------------------------------------------

UpdateQueue::~UpdateQueue() {
  Node* n = head_.exchange(nullptr, std::memory_order_acquire);
  while (n != nullptr) {
    Node* next = n->next;
    delete n;
    n = next;
  }
}

void UpdateQueue::push(EdgeUpdate u) {
  Node* node = new Node{u, nullptr};
  // Treiber push: link onto the current head until the CAS wins. The
  // release pairs with drain()'s acquire exchange, publishing the
  // node's contents to the consumer.
  Node* head = head_.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!head_.compare_exchange_weak(head, node,
                                        std::memory_order_release,
                                        std::memory_order_relaxed));
  pushed_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<EdgeUpdate> UpdateQueue::drain() {
  // One atomic exchange detaches the whole pending stack; nothing a
  // producer pushes afterwards is part of this batch.
  Node* n = head_.exchange(nullptr, std::memory_order_acquire);
  std::vector<EdgeUpdate> out;
  while (n != nullptr) {
    out.push_back(n->update);
    Node* next = n->next;
    delete n;
    n = next;
  }
  // The stack yields newest-first; callers want arrival order.
  std::reverse(out.begin(), out.end());
  drained_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// UpdateRefresher
// ---------------------------------------------------------------------------

UpdateRefresher::UpdateRefresher(vid_t num_vertices,
                                 std::vector<Edge> edges,
                                 SnapshotStore& store, UpdateQueue& queue,
                                 RefreshOptions opt)
    : num_vertices_(num_vertices),
      store_(store),
      queue_(queue),
      opt_(std::move(opt)) {
  HIPA_CHECK(num_vertices_ == store_.num_vertices(),
             "refresher vertex count " << num_vertices_
                                       << " != store vertices "
                                       << store_.num_vertices());
  for (const Edge& e : edges) {
    HIPA_CHECK(e.src < num_vertices_ && e.dst < num_vertices_,
               "base edge (" << e.src << ", " << e.dst
                             << ") outside vertex universe "
                             << num_vertices_);
  }
  HIPA_CHECK(opt_.build.remove_duplicates && !opt_.build.symmetrize,
             "refresher splices a duplicate-free, unsymmetrized CSR: "
             "build options need remove_duplicates and no symmetrize");
  if (opt_.full.kernel == algo::Kernel::kPersonalized) {
    damping_ = opt_.full.personalized.damping;
  } else {
    damping_ = opt_.full.pr.damping;
  }
  graph_ = graph::build_graph(num_vertices_, edges, opt_.build);

  if (opt_.metrics) {
    namespace m = runtime::metrics;
    registry_ = opt_.registry != nullptr ? opt_.registry
                                         : &m::MetricsRegistry::global();
    delta_refreshes_metric_ =
        registry_->counter("hipa_refreshes_total", "Refresh cycles by kind",
                           {"kind", "delta"});
    full_refreshes_metric_ =
        registry_->counter("hipa_refreshes_total", "Refresh cycles by kind",
                           {"kind", "full"});
    updates_applied_metric_ = registry_->counter(
        "hipa_updates_applied_total", "Edge updates applied to the graph");
    delta_latency_metric_ = registry_->histogram(
        "hipa_refresh_seconds", "Refresh cycle latency by kind",
        {"kind", "delta"}, /*scale=*/1e-9);
    full_latency_metric_ = registry_->histogram(
        "hipa_refresh_seconds", "Refresh cycle latency by kind",
        {"kind", "full"}, /*scale=*/1e-9);
    batch_updates_metric_ = registry_->histogram(
        "hipa_refresh_batch_updates", "Edge updates per refresh batch");
    publish_epoch_metric_ = registry_->gauge(
        "hipa_publish_epoch", "Last epoch published by the refresher");
    queue_lag_metric_ = registry_->gauge(
        "hipa_update_queue_lag", "Updates still pending after a drain");
  }
}

UpdateRefresher::~UpdateRefresher() { stop(); }

engine::RunResult UpdateRefresher::full_run() {
  // File-backed mode: stream the segmented graph through OocoreEngine
  // (bounded resident bytes, ranks bitwise identical to in-core) — the
  // refresh path of a shard that never holds the whole CSR. Only the
  // plain PageRank kernel runs out-of-core.
  if (!opt_.graph_path.empty()) {
    HIPA_CHECK(opt_.full.kernel == algo::Kernel::kPageRank,
               "file-backed refresh supports only the pagerank kernel, got "
                   << algo::kernel_name(opt_.full.kernel));
    engine::NativeBackend backend;
    engine::OocoreOptions oo;
    oo.num_threads = opt_.oocore_threads;
    oo.resident_budget_bytes = opt_.oocore_resident_budget_bytes;
    engine::OocoreEngine eng(opt_.graph_path, oo, backend);
    engine::RunResult result = eng.run(opt_.full.pr);
    HIPA_CHECK(result.ranks.size() == num_vertices_,
               "segmented file '" << opt_.graph_path << "' holds "
                                  << result.ranks.size()
                                  << " vertices, store expects "
                                  << num_vertices_);
    return result;
  }
  // Route through the kernel-generic facade, honoring the configured
  // rank-producing kernel (the snapshot store serves rank_t vectors,
  // so only the PageRank family can back a refresh).
  switch (opt_.full.kernel) {
    case algo::Kernel::kPageRank:
      return algo::run_method_native(opt_.full_method, graph_, opt_.full);
    case algo::Kernel::kPersonalized: {
      auto kr = algo::run_kernel_native<engine::PprKernel>(
          opt_.full_method, graph_, opt_.full.personalized, opt_.full);
      engine::RunResult result;
      result.report = std::move(kr.report);
      result.ranks = std::move(kr.values);
      return result;
    }
    case algo::Kernel::kBfs:
    case algo::Kernel::kWcc:
    case algo::Kernel::kSssp:
      break;
  }
  HIPA_CHECK(false, "refresh kernel must be rank-valued (pagerank or ppr), "
                    "got "
                        << algo::kernel_name(opt_.full.kernel));
  __builtin_unreachable();
}

std::uint64_t UpdateRefresher::publish_initial() {
  std::lock_guard<std::mutex> lock(refresh_mutex_);
  Timer timer;
  const engine::RunResult result = full_run();
  reset_warm(result.ranks);
  full_refreshes_.fetch_add(1, std::memory_order_relaxed);
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t epoch = store_.publish(result);
  full_refreshes_metric_.inc();
  full_latency_metric_.record(
      runtime::metrics::seconds_to_ns(timer.seconds()));
  publish_epoch_metric_.set(static_cast<std::int64_t>(epoch));
  if (registry_ != nullptr) {
    engine::fold_run_metrics(*registry_, result.report);
  }
  return epoch;
}

std::vector<graph::RowEdit> UpdateRefresher::final_edits(
    const std::vector<EdgeUpdate>& batch) const {
  // The newest update of an edge wins: a remove drops every occurrence,
  // and an insert of a present edge is a no-op under deduplication.
  std::vector<graph::RowEdit> edits;
  edits.reserve(batch.size());
  for (const EdgeUpdate& u : batch) {
    HIPA_CHECK(u.edge.src < num_vertices_ && u.edge.dst < num_vertices_,
               "update edge (" << u.edge.src << ", " << u.edge.dst
                               << ") outside vertex universe "
                               << num_vertices_);
    if (opt_.build.remove_self_loops && u.edge.src == u.edge.dst) continue;
    edits.push_back(graph::RowEdit{u.edge.src, u.edge.dst, !u.remove});
  }
  return graph::coalesce_edits(std::move(edits));
}

void UpdateRefresher::reset_warm(std::span<const rank_t> ranks) {
  x_.assign(ranks.begin(), ranks.end());
  r_.assign(ranks.size(), 0.0);
  queued_.assign(ranks.size(), 0);
  frontier_.clear();
}

std::optional<unsigned> UpdateRefresher::warm_push(
    const graph::CsrGraph& old_out, std::span<const graph::RowEdit> edits) {
  const double threshold =
      opt_.delta.epsilon / static_cast<double>(num_vertices_);
  // Edge visits one full run makes: past this, the full run is cheaper.
  const std::uint64_t budget =
      graph_.num_edges() * std::uint64_t{opt_.full.pr.iterations};
  std::uint64_t visited = 0;
  auto enqueue = [&](std::vector<vid_t>& into, vid_t w) {
    if (queued_[w] == 0 && std::abs(r_[w]) >= threshold) {
      queued_[w] = 1;
      into.push_back(w);
    }
  };
  // Residual correction: with x fixed, r = b - x + a*M*x, so changing
  // u's out-row moves a*x[u]/deg(u) from the old row's targets to the
  // new row's. The teleport term b does not change.
  for (std::size_t i = 0; i < edits.size(); ++i) {
    const vid_t u = edits[i].row;
    if (i > 0 && edits[i - 1].row == u) continue;
    const std::span<const vid_t> before = old_out.neighbors(u);
    const std::span<const vid_t> after = graph_.out.neighbors(u);
    if (std::equal(before.begin(), before.end(), after.begin(), after.end())) {
      continue;
    }
    if (!before.empty()) {
      const double flow =
          damping_ * x_[u] / static_cast<double>(before.size());
      for (vid_t w : before) r_[w] -= flow;
    }
    if (!after.empty()) {
      const double flow = damping_ * x_[u] / static_cast<double>(after.size());
      for (vid_t w : after) r_[w] += flow;
    }
    for (vid_t w : before) enqueue(frontier_, w);
    for (vid_t w : after) enqueue(frontier_, w);
    visited += before.size() + after.size();
    if (visited > budget) return std::nullopt;
  }
  // FIFO worklist push, one round per generation: settle r[v] into
  // x[v] and spread a*r[v] over v's out-row (sinks keep their mass, as
  // in the engines). A vertex still queued later in this round absorbs
  // the new residual when its turn comes.
  unsigned rounds = 0;
  while (!frontier_.empty() && rounds < opt_.delta.max_iterations) {
    next_frontier_.clear();
    for (const vid_t v : frontier_) {
      queued_[v] = 0;
      const double res = r_[v];
      if (std::abs(res) < threshold) continue;
      r_[v] = 0.0;
      x_[v] += res;
      const std::span<const vid_t> out = graph_.out.neighbors(v);
      if (out.empty()) continue;
      visited += out.size();
      if (visited > budget) return std::nullopt;
      const double push = damping_ * res / static_cast<double>(out.size());
      for (const vid_t w : out) {
        r_[w] += push;
        enqueue(next_frontier_, w);
      }
    }
    frontier_.swap(next_frontier_);
    ++rounds;
  }
  return rounds;
}

RefreshReport UpdateRefresher::refresh_now() {
  std::lock_guard<std::mutex> lock(refresh_mutex_);
  RefreshReport report;
  const std::vector<EdgeUpdate> batch = queue_.drain();
  if (!opt_.graph_path.empty()) {
    // File-backed topology is immutable from here; updates belong in a
    // re-converted file, not the queue.
    HIPA_CHECK(batch.empty(),
               "file-backed refresher cannot apply "
                   << batch.size()
                   << " queued edge updates — re-convert the segmented "
                      "file and refresh instead");
    Timer timer;
    const engine::RunResult result = full_run();
    report.full_run = true;
    report.iterations = result.report.iterations;
    report.epoch = store_.publish(result);
    full_refreshes_.fetch_add(1, std::memory_order_relaxed);
    refreshes_.fetch_add(1, std::memory_order_relaxed);
    report.seconds = timer.seconds();
    full_refreshes_metric_.inc();
    full_latency_metric_.record(
        runtime::metrics::seconds_to_ns(report.seconds));
    publish_epoch_metric_.set(static_cast<std::int64_t>(report.epoch));
    if (registry_ != nullptr) {
      engine::fold_run_metrics(*registry_, result.report);
    }
    return report;
  }
  if (batch.empty()) return report;

  Timer timer;
  const std::vector<graph::RowEdit> edits = final_edits(batch);
  graph::Graph next = graph::splice_graph(graph_, edits);

  report.updates_applied = batch.size();
  std::optional<unsigned> rounds;
  // No published ranks yet: nothing to warm-start from.
  if (batch.size() <= opt_.small_batch_max && !x_.empty()) {
    std::swap(graph_, next);  // `next` now holds the previous graph
    rounds = warm_push(next.out, edits);
    next = graph::Graph{};  // free it before a fallback full run
  } else {
    graph_ = std::move(next);
  }
  report.full_run = !rounds.has_value();
  if (report.full_run) {
    x_.clear();  // stale for the new graph until the full run succeeds
    const engine::RunResult result = full_run();
    reset_warm(result.ranks);
    report.iterations = result.report.iterations;
    report.epoch = store_.publish(result);
    full_refreshes_.fetch_add(1, std::memory_order_relaxed);
    if (registry_ != nullptr) {
      engine::fold_run_metrics(*registry_, result.report);
    }
  } else {
    report.iterations = *rounds;
    publish_buf_.assign(x_.begin(), x_.end());
    report.epoch = store_.publish(std::span<const rank_t>(publish_buf_));
    delta_refreshes_.fetch_add(1, std::memory_order_relaxed);
  }
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  report.seconds = timer.seconds();

  const std::uint64_t wall_ns = runtime::metrics::seconds_to_ns(report.seconds);
  if (report.full_run) {
    full_refreshes_metric_.inc();
    full_latency_metric_.record(wall_ns);
  } else {
    delta_refreshes_metric_.inc();
    delta_latency_metric_.record(wall_ns);
  }
  updates_applied_metric_.inc(batch.size());
  batch_updates_metric_.record(batch.size());
  publish_epoch_metric_.set(static_cast<std::int64_t>(report.epoch));
  queue_lag_metric_.set(
      static_cast<std::int64_t>(queue_.approx_pending()));
  return report;
}

void UpdateRefresher::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] { background_loop(); });
}

void UpdateRefresher::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void UpdateRefresher::background_loop() {
  const auto poll = std::chrono::duration<double>(opt_.poll_seconds);
  while (running_.load(std::memory_order_acquire)) {
    if (queue_.approx_pending() > 0) {
      (void)refresh_now();
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait_for(lock, poll, [this] {
      return !running_.load(std::memory_order_acquire);
    });
  }
  // Final drain so updates pushed just before stop() are not lost.
  if (queue_.approx_pending() > 0) (void)refresh_now();
}

}  // namespace hipa::serve
