#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "runtime/affinity.hpp"
#include "serve/metrics_export.hpp"

namespace hipa::serve {

namespace {

/// CPU for worker `w`, which serves store node `node`: the w-th CPU of
/// that node (wrapping), so multiple workers mapped onto one host node
/// spread over its cores. -1 = no pinning.
int worker_cpu(unsigned w, unsigned node, bool pin) {
  if (!pin) return -1;
  const runtime::HostTopology& topo = runtime::topology();
  const auto& cpus = topo.node_cpus[node % topo.num_nodes()];
  if (cpus.empty()) return -1;
  return static_cast<int>(cpus[w % cpus.size()]);
}

}  // namespace

void RankService::Latch::arrive() {
  std::lock_guard<std::mutex> lock(mutex);
  if (--remaining == 0) cv.notify_all();
}

void RankService::Latch::wait() {
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [this] { return remaining == 0; });
}

RankService::RankService(const SnapshotStore& store, ServiceOptions opt)
    : store_(store), opt_(std::move(opt)) {
  const unsigned nodes = store_.num_nodes();
  HIPA_CHECK(nodes >= 1, "store has no nodes");

  namespace m = runtime::metrics;
  m::MetricsRegistry* reg = nullptr;
  if (opt_.metrics) {
    reg = opt_.registry != nullptr ? opt_.registry
                                   : &m::MetricsRegistry::global();
    registry_ = reg;
    const QueryKind kinds[] = {QueryKind::kPoint, QueryKind::kBatch,
                               QueryKind::kTopK};
    for (const QueryKind k : kinds) {
      const auto i = static_cast<unsigned>(k);
      const m::MetricLabel label{"class", std::string(query_kind_name(k))};
      metrics_.requests[i] = reg->counter(
          "hipa_queries_total", "Queries answered by class", label);
      metrics_.latency[i] = reg->histogram(
          "hipa_query_latency_seconds", "Per-request latency by class",
          label, /*scale=*/1e-9);
    }
    metrics_.batches =
        reg->counter("hipa_batches_total", "execute_batch calls");
    metrics_.shards_dispatched = reg->counter(
        "hipa_shards_dispatched_total", "Per-node shard tasks enqueued");
    metrics_.vertices_looked_up = reg->counter(
        "hipa_vertices_looked_up_total", "Rank cells read for lookups");
    metrics_.batch_size =
        reg->histogram("hipa_batch_size_queries", "Queries per batch");
    metrics_.queue_depth = reg->gauge(
        "hipa_worker_queue_depth", "Deepest worker queue at last dispatch");
    metrics_.answer_epoch = reg->gauge(
        "hipa_answer_epoch", "Snapshot epoch of the last answered batch");
    metrics_.epoch_lag = reg->gauge(
        "hipa_answer_epoch_lag",
        "Live store epoch minus last answered epoch (replica staleness)");
  }
  if (opt_.metrics_port >= 0) {
    metrics_server_ = std::make_unique<MetricsHttpServer>(
        reg != nullptr ? *reg : m::MetricsRegistry::global(),
        opt_.metrics_port, opt_.metrics_bind_addr);
  }

  workers_.reserve(nodes);
  for (unsigned w = 0; w < nodes; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Start threads only after the vector is fully built — worker_loop
  // indexes workers_.
  for (unsigned w = 0; w < nodes; ++w) {
    const int cpu = worker_cpu(/*w=*/0, /*node=*/w, opt_.pin_workers);
    workers_[w]->thread =
        std::thread([this, w, cpu] { worker_loop(w, cpu); });
  }
}

RankService::~RankService() { stop(); }

int RankService::metrics_http_port() const {
  return metrics_server_ == nullptr ? -1 : metrics_server_->port();
}

void RankService::stop() {
  if (stopped_) return;
  stopped_ = true;
  metrics_server_.reset();
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mutex);
      worker->shutdown = true;
    }
    worker->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void RankService::worker_loop(unsigned w, int cpu) {
  if (cpu >= 0) runtime::pin_current_thread(static_cast<unsigned>(cpu));
  Worker& self = *workers_[w];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(self.mutex);
      self.cv.wait(lock,
                   [&] { return self.shutdown || !self.queue.empty(); });
      if (self.queue.empty()) return;  // shutdown with a drained queue
      task = std::move(self.queue.front());
      self.queue.pop_front();
    }
    run_shard(w, *task.snap, task.shard);
    task.latch->arrive();
  }
}

void RankService::run_shard(unsigned w, const Snapshot& snap,
                            const Shard& shard) {
  (void)w;
  const std::span<const rank_t> ranks = snap.ranks();
  for (const Lookup& lk : shard.lookups) {
    // Ids were bounds-checked at routing time.
    *lk.out = ranks[lk.vertex];
  }
  for (const ScanJob& job : shard.scans) {
    *job.out = partial_top_k(ranks, job.range, job.k);
  }
  for (const ReplicaJob& job : shard.replicas) {
    const std::span<const TopKEntry> rep = snap.topk().replica(
        snap.topk().num_nodes() == 0 ? 0 : w % snap.topk().num_nodes());
    const std::size_t take = std::min<std::size_t>(job.k, rep.size());
    job.out->assign(rep.begin(),
                    rep.begin() + static_cast<std::ptrdiff_t>(take));
  }
}

QueryResult RankService::execute(const Query& q) {
  std::vector<QueryResult> out = execute_batch(std::span(&q, 1));
  return std::move(out.front());
}

std::vector<QueryResult> RankService::execute_batch(
    std::span<const Query> queries) {
  Timer batch_timer;
  const SnapshotRef snap = store_.current();
  HIPA_CHECK(snap.valid(), "no snapshot published yet");
  const Snapshot& s = *snap;
  const std::span<const VertexRange> node_ranges = s.node_ranges();
  const unsigned num_nodes = static_cast<unsigned>(node_ranges.size());
  const TopKIndex& index = s.topk();

  std::vector<QueryResult> results(queries.size());
  // Per-request partial-scan buffers for split top-k queries; stable
  // addresses because the outer vector is sized once.
  struct SplitTopK {
    std::size_t request;
    unsigned k;
    std::vector<std::vector<TopKEntry>> partials;
  };
  std::vector<SplitTopK> splits;

  // ---- Route every request into per-node shards --------------------
  std::vector<Shard> shards(workers_.size());
  std::uint64_t vertices_looked_up = 0;
  // First pass: count split top-k queries so `splits` never
  // reallocates after shards start pointing into it.
  for (const Query& q : queries) {
    if (q.kind == QueryKind::kTopK && q.topk.k > 0 &&
        !(q.topk.global() && q.topk.k <= index.k() &&
          index.num_nodes() > 0)) {
      splits.push_back({});
    }
  }
  std::size_t next_split = 0;

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    QueryResult& r = results[i];
    r.epoch = s.epoch();
    switch (q.kind) {
      case QueryKind::kPoint: {
        HIPA_CHECK(q.vertex < s.num_vertices(),
                   "point lookup vertex " << q.vertex
                                          << " out of range (n = "
                                          << s.num_vertices() << ")");
        r.ranks.resize(1);
        shards[worker_of_node(s.node_of(q.vertex))].lookups.push_back(
            Lookup{q.vertex, r.ranks.data()});
        ++vertices_looked_up;
        break;
      }
      case QueryKind::kBatch: {
        r.ranks.resize(q.vertices.size());
        for (std::size_t j = 0; j < q.vertices.size(); ++j) {
          const vid_t v = q.vertices[j];
          HIPA_CHECK(v < s.num_vertices(),
                     "batch lookup vertex " << v << " out of range (n = "
                                            << s.num_vertices() << ")");
          shards[worker_of_node(s.node_of(v))].lookups.push_back(
              Lookup{v, &r.ranks[j]});
        }
        vertices_looked_up += q.vertices.size();
        break;
      }
      case QueryKind::kTopK: {
        const TopKQuery& tq = q.topk;
        if (tq.k == 0) break;
        if (tq.global() && tq.k <= index.k() && index.num_nodes() > 0) {
          // Replica-served: one worker, round-robin over nodes.
          const unsigned node = static_cast<unsigned>(
              rr_node_.fetch_add(1, std::memory_order_relaxed) %
              num_nodes);
          shards[worker_of_node(node)].replicas.push_back(
              ReplicaJob{tq.k, &r.topk});
          break;
        }
        // Split scan: each node's worker scans the intersection of the
        // request range with its local slice; merge on the caller.
        const VertexRange want =
            tq.global() ? VertexRange{0, s.num_vertices()} : tq.range;
        HIPA_CHECK(want.begin <= want.end && want.end <= s.num_vertices(),
                   "top-k range [" << want.begin << ", " << want.end
                                   << ") exceeds snapshot vertices "
                                   << s.num_vertices());
        SplitTopK& split = splits[next_split++];
        split.request = i;
        split.k = tq.k;
        split.partials.resize(num_nodes);
        for (unsigned node = 0; node < num_nodes; ++node) {
          const VertexRange local{
              std::max(want.begin, node_ranges[node].begin),
              std::min(want.end, node_ranges[node].end)};
          if (local.begin >= local.end) continue;
          shards[worker_of_node(node)].scans.push_back(
              ScanJob{local, tq.k, &split.partials[node]});
        }
        break;
      }
    }
  }

  // ---- Dispatch one task per non-empty shard and wait --------------
  Latch latch;
  std::vector<unsigned> dispatched;
  for (unsigned w = 0; w < workers_.size(); ++w) {
    if (!shards[w].empty()) dispatched.push_back(w);
  }
  latch.remaining = static_cast<unsigned>(dispatched.size());
  if (!dispatched.empty()) {
    std::size_t deepest_queue = 0;
    for (unsigned w : dispatched) {
      Worker& worker = *workers_[w];
      {
        std::lock_guard<std::mutex> lock(worker.mutex);
        worker.queue.push_back(Task{&s, std::move(shards[w]), &latch});
        deepest_queue = std::max(deepest_queue, worker.queue.size());
      }
      worker.cv.notify_one();
    }
    metrics_.queue_depth.set(static_cast<std::int64_t>(deepest_queue));
    latch.wait();
  }

  // ---- Merge split top-k partials ----------------------------------
  for (SplitTopK& split : splits) {
    results[split.request].topk = merge_top_k(split.partials, split.k);
  }

  // ---- Record lifetime metrics --------------------------------------
  // A few relaxed atomic adds into this thread's shard: caller threads
  // never serialize here, and nothing grows with the request count.
  const std::uint64_t wall_ns =
      runtime::metrics::seconds_to_ns(batch_timer.seconds());
  std::array<std::uint64_t, 3> by_class{};
  for (const Query& q : queries) ++by_class[static_cast<unsigned>(q.kind)];
  for (unsigned c = 0; c < 3; ++c) {
    if (by_class[c] == 0) continue;
    metrics_.requests[c].inc(by_class[c]);
    // Every request in the batch observed the batch's wall time.
    for (std::uint64_t i = 0; i < by_class[c]; ++i) {
      metrics_.latency[c].record(wall_ns);
    }
  }
  metrics_.batches.inc();
  metrics_.shards_dispatched.inc(dispatched.size());
  metrics_.vertices_looked_up.inc(vertices_looked_up);
  metrics_.batch_size.record(queries.size());
  metrics_.answer_epoch.set(static_cast<std::int64_t>(s.epoch()));
  metrics_.epoch_lag.set(
      static_cast<std::int64_t>(store_.epoch() - s.epoch()));
  return results;
}

LatencySummary latency_summary(const runtime::metrics::HistogramSnapshot& h) {
  LatencySummary out;
  out.count = h.count;
  out.mean_seconds = h.mean() * h.scale;
  out.p50_seconds = h.p50 * h.scale;
  out.p95_seconds = h.p95 * h.scale;
  out.p99_seconds = h.p99 * h.scale;
  out.p999_seconds = h.p999 * h.scale;
  out.max_seconds = h.max * h.scale;
  return out;
}

RankService::Stats RankService::stats() const {
  Stats out;
  if (registry_ == nullptr) return out;
  const runtime::metrics::MetricsSnapshot snap = registry_->snapshot();
  const auto count = [&](std::string_view name,
                         std::string_view label = {}) -> std::uint64_t {
    const runtime::metrics::CounterSnapshot* c =
        snap.find_counter(name, label);
    return c == nullptr ? 0 : c->value;
  };
  std::array<std::uint64_t, 3> by_class{};
  for (unsigned c = 0; c < 3; ++c) {
    const std::string_view kind = query_kind_name(static_cast<QueryKind>(c));
    by_class[c] = count("hipa_queries_total", kind);
    if (const runtime::metrics::HistogramSnapshot* h =
            snap.find_histogram("hipa_query_latency_seconds", kind)) {
      out.latency[c] = latency_summary(*h);
    }
  }
  out.point_requests = by_class[static_cast<unsigned>(QueryKind::kPoint)];
  out.batch_requests = by_class[static_cast<unsigned>(QueryKind::kBatch)];
  out.topk_requests = by_class[static_cast<unsigned>(QueryKind::kTopK)];
  out.requests = out.point_requests + out.batch_requests + out.topk_requests;
  out.batches = count("hipa_batches_total");
  out.shards_dispatched = count("hipa_shards_dispatched_total");
  out.vertices_looked_up = count("hipa_vertices_looked_up_total");
  return out;
}

}  // namespace hipa::serve
