#include "shard/shard_server.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "engines/backend.hpp"
#include "engines/oocore_engine.hpp"
#include "graph/io.hpp"

namespace hipa::shard {

ShardServer::ShardServer(ShardServerOptions opt) : opt_(std::move(opt)) {
  HIPA_CHECK(!opt_.graph_path.empty(), "shard needs a segmented graph path");
  HIPA_CHECK(!opt_.range.empty(), "shard range is empty");

  // One cheap open to learn the universe and validate ownership; the
  // recompute path re-opens with its own staging budget.
  {
    graph::SegmentedCsr scsr = graph::SegmentedCsr::open(opt_.graph_path);
    num_global_ = scsr.num_vertices();
  }
  HIPA_CHECK(opt_.range.end <= num_global_,
             "shard range [" << opt_.range.begin << ", " << opt_.range.end
                             << ") outside vertex universe " << num_global_);

  serve::StoreOptions store_opt;
  store_opt.num_nodes = 1;  // the shard IS the locality domain
  store_opt.topk_k = opt_.topk_k;
  store_opt.registry = opt_.registry;
  store_ = std::make_unique<serve::SnapshotStore>(opt_.range.size(),
                                                  store_opt);

  // Same name + help as the refresher's gauge: the poll client reads
  // one publish-epoch signal regardless of which component publishes.
  runtime::metrics::MetricsRegistry& reg =
      opt_.registry != nullptr ? *opt_.registry
                               : runtime::metrics::MetricsRegistry::global();
  publish_epoch_metric_ =
      reg.gauge("hipa_publish_epoch", "Last epoch published by the refresher");

  if (opt_.compute_on_start) republish();

  serve::ServiceOptions svc_opt;
  svc_opt.pin_workers = opt_.pin_workers;
  svc_opt.registry = opt_.registry;
  svc_opt.metrics_port = opt_.metrics_port;
  svc_opt.metrics_bind_addr = opt_.metrics_bind_addr;
  service_ = std::make_unique<serve::RankService>(*store_, svc_opt);
}

ShardServer::~ShardServer() { stop(); }

void ShardServer::serve(std::unique_ptr<Listener> listener) {
  HIPA_CHECK(listener_ == nullptr, "shard already serving");
  listener_ = std::move(listener);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint64_t ShardServer::republish() {
  // Stream the shared file; every shard executes the identical
  // deterministic kernel, so slices agree bitwise across the fleet.
  engine::NativeBackend backend;
  engine::OocoreOptions oo;
  oo.num_threads = opt_.compute_threads;
  oo.resident_budget_bytes = opt_.resident_budget_bytes;
  engine::OocoreEngine eng(opt_.graph_path, oo, backend);
  engine::PageRankOptions pr(opt_.iterations, opt_.damping);
  const engine::RunResult result = eng.run(pr);
  HIPA_CHECK(result.ranks.size() == num_global_,
             "recompute produced " << result.ranks.size() << " ranks for "
                                   << num_global_ << " vertices");
  const std::span<const rank_t> slice(result.ranks.data() + opt_.range.begin,
                                      opt_.range.size());
  return publish_and_notify(slice);
}

std::uint64_t ShardServer::publish_slice(std::span<const rank_t> slice) {
  HIPA_CHECK(slice.size() == opt_.range.size(),
             "slice size " << slice.size() << " != owned range size "
                           << opt_.range.size());
  return publish_and_notify(slice);
}

std::uint64_t ShardServer::publish_and_notify(std::span<const rank_t> slice) {
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    epoch = store_->publish(slice);
    publish_epoch_metric_.set(static_cast<std::int64_t>(epoch));
  }
  const Frame notice = encode_republish_notice(RepublishNotice{epoch});
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (Conn* c : subscribers_) (void)c->send(notice);
  return epoch;
}

void ShardServer::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] {
    return stop_requested_ || stopping_.load(std::memory_order_acquire);
  });
}

void ShardServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Second caller (e.g. destructor after explicit stop): nothing to
    // join — the first stop() owns teardown.
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (listener_ != nullptr) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& c : conns_) c->close();
    handlers.swap(handlers_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
}

HelloAck ShardServer::hello_ack() const {
  HelloAck ack;
  ack.shard_id = opt_.shard_id;
  ack.range = opt_.range;
  ack.num_vertices_global = num_global_;
  ack.epoch = store_->epoch();
  ack.topk_k = opt_.topk_k;
  const int mp = service_->metrics_http_port();
  ack.metrics_port = mp > 0 ? static_cast<std::uint16_t>(mp) : 0;
  return ack;
}

bool ShardServer::to_local(const serve::Query& in, serve::Query* out) const {
  const VertexRange owned = opt_.range;
  switch (in.kind) {
    case serve::QueryKind::kPoint:
      if (!owned.contains(in.vertex)) return false;
      *out = serve::Query::point(in.vertex - owned.begin);
      return true;
    case serve::QueryKind::kBatch: {
      std::vector<vid_t> local(in.vertices.size());
      for (std::size_t i = 0; i < in.vertices.size(); ++i) {
        if (!owned.contains(in.vertices[i])) return false;
        local[i] = in.vertices[i] - owned.begin;
      }
      *out = serve::Query::batch(std::move(local));
      return true;
    }
    case serve::QueryKind::kTopK: {
      if (in.topk.global()) {
        *out = serve::Query::top_k(in.topk.k);
        return true;
      }
      // Clip the requested global range to the owned slice; the caller
      // pre-checks for an empty intersection.
      const vid_t lo = std::max(in.topk.range.begin, owned.begin);
      const vid_t hi = std::min(in.topk.range.end, owned.end);
      *out = serve::Query::top_k(in.topk.k,
                                 VertexRange{lo - owned.begin,
                                             hi - owned.begin});
      return true;
    }
  }
  return false;
}

void ShardServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::unique_ptr<Conn> accepted = listener_->accept();
    if (accepted == nullptr) return;  // listener closed
    std::shared_ptr<Conn> conn(std::move(accepted));
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      conn->close();
      return;
    }
    conns_.push_back(conn);
    handlers_.emplace_back([this, conn] { handle_conn(conn); });
  }
}

void ShardServer::handle_conn(const std::shared_ptr<Conn>& conn) {
  Frame f;
  while (conn->recv(&f)) {
    switch (f.type) {
      case MsgType::kHello: {
        if (!decode_hello(f).has_value()) break;
        {
          std::lock_guard<std::mutex> lock(conns_mutex_);
          subscribers_.push_back(conn.get());
        }
        (void)conn->send(encode_hello_ack(hello_ack()));
        break;
      }
      case MsgType::kQueryBatch: {
        const std::optional<QueryBatch> qb = decode_query_batch(f);
        if (!qb.has_value()) break;  // corrupt envelope: drop
        // Scatter targets: executable local queries, plus constant
        // empty answers for top-k ranges that miss the owned slice.
        std::vector<serve::Query> local;
        local.reserve(qb->queries.size());
        std::vector<int> exec_index(qb->queries.size(), -1);
        bool bad = false;
        for (std::size_t i = 0; i < qb->queries.size() && !bad; ++i) {
          const serve::Query& q = qb->queries[i];
          if (q.kind == serve::QueryKind::kTopK && !q.topk.global() &&
              (q.topk.range.end <= opt_.range.begin ||
               q.topk.range.begin >= opt_.range.end)) {
            continue;  // empty intersection: answer stays empty
          }
          serve::Query lq;
          if (!to_local(q, &lq)) {
            bad = true;
            break;
          }
          exec_index[i] = static_cast<int>(local.size());
          local.push_back(std::move(lq));
        }
        if (bad) {
          (void)conn->send(encode_error(ErrorReply{
              qb->request_id, "query outside owned vertex range"}));
          break;
        }
        std::vector<serve::QueryResult> results;
        if (!local.empty()) results = service_->execute_batch(local);

        AnswerBatch ab;
        ab.request_id = qb->request_id;
        ab.epoch = results.empty() ? store_->epoch() : results[0].epoch;
        ab.answers.resize(qb->queries.size());
        for (std::size_t i = 0; i < qb->queries.size(); ++i) {
          if (exec_index[i] < 0) continue;
          serve::QueryResult& r =
              results[static_cast<std::size_t>(exec_index[i])];
          Answer& a = ab.answers[i];
          a.ranks = std::move(r.ranks);
          a.topk = std::move(r.topk);
          for (serve::TopKEntry& e : a.topk) e.vertex += opt_.range.begin;
        }
        (void)conn->send(encode_answer_batch(ab));
        break;
      }
      case MsgType::kShutdown: {
        conn->close();
        std::lock_guard<std::mutex> lock(stop_mutex_);
        stop_requested_ = true;
        stop_cv_.notify_all();
        break;
      }
      default:
        break;  // server-to-client types arriving here are ignored
    }
  }
  // Connection gone: drop the subscription; the shared_ptr in conns_
  // is reaped by stop() (bounded by process lifetime, not per-conn —
  // fleets hold a handful of router connections).
  std::lock_guard<std::mutex> lock(conns_mutex_);
  subscribers_.erase(
      std::remove(subscribers_.begin(), subscribers_.end(), conn.get()),
      subscribers_.end());
}

}  // namespace hipa::shard
