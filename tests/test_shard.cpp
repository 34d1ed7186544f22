// Multi-shard serving tests: wire protocol round-trips and rejection
// of malformed payloads, transport contracts (loopback + TCP frame
// validation), ShardServer's global<->local id translation over a
// live connection, ShardRouter scatter/merge identity against a
// single-process RankService, and — the TSan-gated core contract —
// epoch consistency under concurrent republish: racing router queries
// against shard republishes must never merge a torn answer (every
// per-shard contribution uniform in one epoch, the mixed-epoch flag
// exactly when shards answered from different epochs).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engines/backend.hpp"
#include "engines/oocore_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "runtime/metrics.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "shard/proto.hpp"
#include "shard/router.hpp"
#include "shard/shard_server.hpp"
#include "shard/transport.hpp"

namespace hipa::shard {
namespace {

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Small skewed graph saved as a segmented v4 file (several segments).
std::string make_graph_file(const char* name, vid_t n, eid_t m,
                            std::uint64_t seed) {
  const std::vector<Edge> edges = graph::generate_erdos_renyi(n, m, seed);
  const graph::Graph g = graph::build_graph(n, edges);
  const std::string path = tmp_path(name);
  graph::save_segmented_csr(path, g, /*target_segment_bytes=*/8192);
  return path;
}

/// Reference ranks: the same deterministic streaming engine the shards
/// run, over the whole file.
std::vector<rank_t> reference_ranks(const std::string& path, unsigned iters) {
  engine::NativeBackend backend;
  engine::OocoreOptions oo;
  oo.num_threads = 2;
  engine::OocoreEngine eng(path, oo, backend);
  return eng.run(engine::PageRankOptions(iters)).ranks;
}

// ---------------------------------------------------------------------------
// Protocol round-trips
// ---------------------------------------------------------------------------

TEST(ShardProto, ControlMessagesRoundTrip) {
  const Frame hello = encode_hello(Hello{7});
  EXPECT_EQ(hello.type, MsgType::kHello);
  const auto h = decode_hello(hello);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->client_id, 7u);

  HelloAck ack;
  ack.shard_id = 3;
  ack.range = VertexRange{128, 1024};
  ack.num_vertices_global = 4096;
  ack.epoch = 42;
  ack.topk_k = 64;
  ack.metrics_port = 9464;
  const auto a = decode_hello_ack(encode_hello_ack(ack));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->shard_id, 3u);
  EXPECT_TRUE(a->range == (VertexRange{128, 1024}));
  EXPECT_EQ(a->num_vertices_global, 4096u);
  EXPECT_EQ(a->epoch, 42u);
  EXPECT_EQ(a->topk_k, 64u);
  EXPECT_EQ(a->metrics_port, 9464);

  const auto n = decode_republish_notice(
      encode_republish_notice(RepublishNotice{17}));
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->epoch, 17u);

  const auto e = decode_error(encode_error(ErrorReply{9, "bad range"}));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->request_id, 9u);
  EXPECT_EQ(e->message, "bad range");

  EXPECT_EQ(encode_shutdown().type, MsgType::kShutdown);
}

TEST(ShardProto, QueryBatchRoundTrip) {
  QueryBatch qb;
  qb.request_id = 77;
  qb.queries.push_back(serve::Query::point(12345));
  qb.queries.push_back(serve::Query::batch({1, 99, 7}));
  qb.queries.push_back(serve::Query::top_k(16));
  qb.queries.push_back(serve::Query::top_k(8, VertexRange{100, 500}));

  const auto d = decode_query_batch(encode_query_batch(qb));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->request_id, 77u);
  ASSERT_EQ(d->queries.size(), 4u);
  EXPECT_EQ(d->queries[0].kind, serve::QueryKind::kPoint);
  EXPECT_EQ(d->queries[0].vertex, 12345u);
  EXPECT_EQ(d->queries[1].kind, serve::QueryKind::kBatch);
  EXPECT_EQ(d->queries[1].vertices, (std::vector<vid_t>{1, 99, 7}));
  EXPECT_EQ(d->queries[2].kind, serve::QueryKind::kTopK);
  EXPECT_TRUE(d->queries[2].topk.global());
  EXPECT_EQ(d->queries[2].topk.k, 16u);
  EXPECT_FALSE(d->queries[3].topk.global());
  EXPECT_TRUE(d->queries[3].topk.range == (VertexRange{100, 500}));
}

TEST(ShardProto, AnswerBatchRoundTripBitwise) {
  AnswerBatch ab;
  ab.request_id = 5;
  ab.epoch = 12;
  Answer a1;
  a1.ranks = {0.25f, 1e-9f, 3.5f};
  Answer a2;
  a2.topk = {{42, 0.5f}, {7, 0.25f}};
  ab.answers.push_back(a1);
  ab.answers.push_back(a2);

  const auto d = decode_answer_batch(encode_answer_batch(ab));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->epoch, 12u);
  ASSERT_EQ(d->answers.size(), 2u);
  ASSERT_EQ(d->answers[0].ranks.size(), 3u);
  EXPECT_EQ(std::memcmp(d->answers[0].ranks.data(), a1.ranks.data(),
                        a1.ranks.size() * sizeof(rank_t)),
            0);
  ASSERT_EQ(d->answers[1].topk.size(), 2u);
  EXPECT_EQ(std::memcmp(d->answers[1].topk.data(), a2.topk.data(),
                        a2.topk.size() * sizeof(serve::TopKEntry)),
            0);
}

TEST(ShardProto, RejectsMalformedPayloads) {
  QueryBatch qb;
  qb.request_id = 1;
  qb.queries.push_back(serve::Query::batch({1, 2, 3}));
  Frame f = encode_query_batch(qb);

  // Truncation at every prefix length must fail, never crash.
  for (std::size_t cut = 0; cut < f.payload.size(); ++cut) {
    Frame t;
    t.type = f.type;
    t.payload.assign(f.payload.begin(),
                     f.payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_query_batch(t).has_value()) << "cut=" << cut;
  }
  // Trailing garbage is equally fatal (done() check).
  Frame trail = f;
  trail.payload.push_back(0);
  EXPECT_FALSE(decode_query_batch(trail).has_value());

  // Unknown query kind.
  WireWriter w;
  w.u64(1);  // request id
  w.u32(1);  // one query
  w.u8(200);  // no such kind
  Frame bad;
  bad.type = MsgType::kQueryBatch;
  bad.payload = w.take();
  EXPECT_FALSE(decode_query_batch(bad).has_value());

  // A corrupt element count must not trigger a huge allocation.
  WireWriter w2;
  w2.u64(1);
  w2.u32(1);
  w2.u8(1);  // kBatch
  w2.u32(0xFFFFFFFFu);  // claims 4 billion vertices
  Frame huge;
  huge.type = MsgType::kQueryBatch;
  huge.payload = w2.take();
  EXPECT_FALSE(decode_query_batch(huge).has_value());
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

TEST(ShardTransport, LoopbackRoundTripAndClose) {
  LoopbackListener listener;
  std::unique_ptr<Conn> client = listener.connect();
  ASSERT_NE(client, nullptr);
  std::unique_ptr<Conn> server = listener.accept();
  ASSERT_NE(server, nullptr);

  ASSERT_TRUE(client->send(encode_hello(Hello{1})));
  Frame f;
  ASSERT_TRUE(server->recv(&f));
  EXPECT_EQ(f.type, MsgType::kHello);
  ASSERT_TRUE(server->send(encode_republish_notice(RepublishNotice{3})));
  ASSERT_TRUE(client->recv(&f));
  EXPECT_EQ(f.type, MsgType::kRepublishNotice);

  // close() unblocks a pending recv on the peer.
  std::thread t([&] {
    Frame g;
    EXPECT_FALSE(server->recv(&g));
  });
  client->close();
  t.join();
  EXPECT_FALSE(client->send(encode_shutdown()));
}

TEST(ShardTransport, TcpRoundTripEphemeralPort) {
  std::unique_ptr<Listener> listener = listen_tcp("127.0.0.1", 0);
  ASSERT_GT(listener->port(), 0);

  std::unique_ptr<Conn> server;
  std::thread t([&] { server = listener->accept(); });
  std::unique_ptr<Conn> client = connect_tcp("127.0.0.1", listener->port());
  t.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  AnswerBatch ab;
  ab.request_id = 11;
  ab.epoch = 2;
  ab.answers.resize(1);
  ab.answers[0].ranks = {0.125f};
  ASSERT_TRUE(server->send(encode_answer_batch(ab)));
  Frame f;
  ASSERT_TRUE(client->recv(&f));
  const auto d = decode_answer_batch(f);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->answers[0].ranks[0], 0.125f);
}

/// Little-endian field writer for handcrafting corrupt frame headers.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t v,
            std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

TEST(ShardTransport, TcpRejectsCorruptFrames) {
  std::unique_ptr<Listener> listener = listen_tcp("127.0.0.1", 0);

  const auto poison = [&](const std::vector<std::uint8_t>& bytes) {
    std::unique_ptr<Conn> server;
    std::thread t([&] { server = listener->accept(); });
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(listener->port()));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    t.join();
    ASSERT_NE(server, nullptr);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    Frame f;
    EXPECT_FALSE(server->recv(&f)) << "poisoned stream must kill recv";
    ::close(fd);
  };

  // Bad magic.
  {
    std::vector<std::uint8_t> b;
    put_le(b, 0xDEADBEEFu, 4);
    put_le(b, 8, 4);  // kError
    put_le(b, 0, 8);
    put_le(b, fnv1a(nullptr, 0), 8);
    poison(b);
  }
  // Bad checksum over a real payload.
  {
    const char payload[4] = {'a', 'b', 'c', 'd'};
    std::vector<std::uint8_t> b;
    put_le(b, kFrameMagic, 4);
    put_le(b, 8, 4);  // kError
    put_le(b, sizeof payload, 8);
    put_le(b, fnv1a(payload, sizeof payload) + 1, 8);
    b.insert(b.end(), payload, payload + sizeof payload);
    poison(b);
  }
  // Retired (5, 6) and unknown type numbers, framed correctly
  // otherwise.
  for (const std::uint32_t type : {0u, 5u, 6u, 10u}) {
    std::vector<std::uint8_t> b;
    put_le(b, kFrameMagic, 4);
    put_le(b, type, 4);
    put_le(b, 0, 8);
    put_le(b, fnv1a(nullptr, 0), 8);
    poison(b);
  }
  // Absurd length field.
  {
    std::vector<std::uint8_t> b;
    put_le(b, kFrameMagic, 4);
    put_le(b, 8, 4);  // kError
    put_le(b, kMaxFramePayload + 1, 8);
    put_le(b, 0, 8);
    poison(b);
  }
}

// ---------------------------------------------------------------------------
// Health poll client
// ---------------------------------------------------------------------------

/// Answers the next request on a loopback port with one HTTP/1.0
/// response carrying `body_bytes` bytes of body.
class OneShotHttp {
 public:
  explicit OneShotHttp(std::size_t body_bytes) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof addr;
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), len) != 0 ||
        ::listen(fd_, 1) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ADD_FAILURE() << "loopback listener: " << std::strerror(errno);
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, body_bytes] {
      const int c = ::accept(fd_, nullptr, nullptr);
      if (c < 0) return;
      char req[512];
      (void)::recv(c, req, sizeof req, 0);
      const std::string resp =
          "HTTP/1.0 200 OK\r\n\r\n" + std::string(body_bytes, 'x');
      // The client hangs up early once it passes its cap.
      for (std::size_t off = 0; off < resp.size();) {
        const ssize_t n = ::send(c, resp.data() + off, resp.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
      ::close(c);
    });
  }
  OneShotHttp(const OneShotHttp&) = delete;
  OneShotHttp& operator=(const OneShotHttp&) = delete;
  ~OneShotHttp() {
    if (thread_.joinable()) thread_.join();
    ::close(fd_);
  }
  [[nodiscard]] int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(HealthPoll, HttpGetBoundsTheResponse) {
  {
    OneShotHttp server(30000);  // a 64-histogram /metrics.json
    ASSERT_GT(server.port(), 0);
    const auto body = http_get("127.0.0.1", server.port(), "/metrics.json");
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(body->size(), 30000u);
  }
  {
    // Headers plus a body of exactly the cap exceed it.
    OneShotHttp server(kMaxHttpResponseBytes);
    ASSERT_GT(server.port(), 0);
    EXPECT_FALSE(
        http_get("127.0.0.1", server.port(), "/metrics.json").has_value());
  }
}

// ---------------------------------------------------------------------------
// ShardServer over loopback
// ---------------------------------------------------------------------------

TEST(ShardServer, TranslatesIdsAndAnswersOwnedSlice) {
  const vid_t n = 600;
  const std::string path = make_graph_file("shard_server.hcsr", n, 4000, 3);
  const std::vector<rank_t> expect = reference_ranks(path, 10);

  runtime::metrics::MetricsRegistry registry;
  ShardServerOptions opt;
  opt.shard_id = 1;
  opt.range = VertexRange{200, 400};
  opt.graph_path = path;
  opt.iterations = 10;
  opt.topk_k = 8;
  opt.registry = &registry;
  ShardServer server(opt);
  EXPECT_EQ(server.num_vertices_global(), n);
  EXPECT_EQ(server.epoch(), 1u);

  auto listener = std::make_unique<LoopbackListener>();
  LoopbackListener* lp = listener.get();
  server.serve(std::move(listener));
  std::unique_ptr<Conn> conn = lp->connect();
  ASSERT_NE(conn, nullptr);

  ASSERT_TRUE(conn->send(encode_hello(Hello{0})));
  Frame f;
  ASSERT_TRUE(conn->recv(&f));
  const auto ack = decode_hello_ack(f);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->range == (VertexRange{200, 400}));
  EXPECT_EQ(ack->num_vertices_global, n);
  EXPECT_EQ(ack->epoch, 1u);

  // One envelope: owned point + owned batch + global top-k + a ranged
  // top-k that misses the slice entirely (constant empty answer).
  QueryBatch qb;
  qb.request_id = 1;
  qb.queries.push_back(serve::Query::point(250));
  qb.queries.push_back(serve::Query::batch({399, 200, 307}));
  qb.queries.push_back(serve::Query::top_k(4));
  qb.queries.push_back(serve::Query::top_k(4, VertexRange{0, 100}));
  ASSERT_TRUE(conn->send(encode_query_batch(qb)));
  ASSERT_TRUE(conn->recv(&f));
  ASSERT_EQ(f.type, MsgType::kAnswerBatch);
  const auto ab = decode_answer_batch(f);
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(ab->request_id, 1u);
  EXPECT_EQ(ab->epoch, 1u);
  ASSERT_EQ(ab->answers.size(), 4u);

  ASSERT_EQ(ab->answers[0].ranks.size(), 1u);
  EXPECT_EQ(ab->answers[0].ranks[0], expect[250]);
  ASSERT_EQ(ab->answers[1].ranks.size(), 3u);
  EXPECT_EQ(ab->answers[1].ranks[0], expect[399]);
  EXPECT_EQ(ab->answers[1].ranks[1], expect[200]);
  EXPECT_EQ(ab->answers[1].ranks[2], expect[307]);
  // Top-k entries come back with GLOBAL ids inside the owned range.
  ASSERT_EQ(ab->answers[2].topk.size(), 4u);
  for (const serve::TopKEntry& e : ab->answers[2].topk) {
    ASSERT_GE(e.vertex, 200u);
    ASSERT_LT(e.vertex, 400u);
    EXPECT_EQ(e.rank, expect[e.vertex]);
  }
  EXPECT_TRUE(ab->answers[3].ranks.empty());
  EXPECT_TRUE(ab->answers[3].topk.empty());

  // A point outside the owned range fails the whole envelope.
  QueryBatch bad;
  bad.request_id = 2;
  bad.queries.push_back(serve::Query::point(10));
  ASSERT_TRUE(conn->send(encode_query_batch(bad)));
  ASSERT_TRUE(conn->recv(&f));
  ASSERT_EQ(f.type, MsgType::kError);
  const auto err = decode_error(f);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->request_id, 2u);

  // Subscribed connections get republish notices.
  const std::uint64_t e2 = server.republish();
  EXPECT_EQ(e2, 2u);
  ASSERT_TRUE(conn->recv(&f));
  ASSERT_EQ(f.type, MsgType::kRepublishNotice);
  EXPECT_EQ(decode_republish_notice(f)->epoch, 2u);

  // The shard's registry counts what its service executed: the point,
  // the batch and the global top-k. The top-k range that misses the
  // owned slice is answered empty without running, and the rejected
  // envelope's out-of-range point never reaches the service.
  const runtime::metrics::MetricsSnapshot snap = registry.snapshot();
  for (const char* kind : {"point", "batch", "topk"}) {
    const runtime::metrics::CounterSnapshot* served =
        snap.find_counter("hipa_queries_total", kind);
    ASSERT_NE(served, nullptr) << kind;
    EXPECT_EQ(served->value, 1u) << kind;
  }

  // Shutdown ends wait().
  ASSERT_TRUE(conn->send(encode_shutdown()));
  server.wait();
  server.stop();
}

// ---------------------------------------------------------------------------
// Router: identity with a single-process service
// ---------------------------------------------------------------------------

/// A fleet of in-process shards over loopback listeners plus targets
/// for a router. Distinct registries keep per-shard metrics separate.
struct LoopbackFleet {
  std::vector<std::unique_ptr<runtime::metrics::MetricsRegistry>> registries;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<LoopbackListener*> listeners;
  std::vector<ShardTarget> targets;

  void add_shard(const std::string& path, VertexRange range, unsigned iters,
                 unsigned topk_k, bool compute_on_start = true) {
    registries.push_back(
        std::make_unique<runtime::metrics::MetricsRegistry>());
    ShardServerOptions opt;
    opt.shard_id = static_cast<std::uint32_t>(servers.size());
    opt.range = range;
    opt.graph_path = path;
    opt.iterations = iters;
    opt.topk_k = topk_k;
    opt.compute_on_start = compute_on_start;
    opt.registry = registries.back().get();
    servers.push_back(std::make_unique<ShardServer>(opt));
  }

  void serve_all() {
    for (auto& s : servers) {
      auto listener = std::make_unique<LoopbackListener>();
      LoopbackListener* lp = listener.get();
      s->serve(std::move(listener));
      listeners.push_back(lp);
      ShardTarget t;
      t.name = "loopback" + std::to_string(targets.size());
      t.connect = [lp] { return lp->connect(); };
      targets.push_back(std::move(t));
    }
  }
};

TEST(ShardRouter, BitwiseIdenticalToSingleProcess) {
  const vid_t n = 800;
  const std::string path = make_graph_file("router_ident.hcsr", n, 6000, 9);
  constexpr unsigned kIters = 10;
  constexpr unsigned kTopK = 16;

  // Single-process truth: the same engine ranks served whole.
  engine::NativeBackend backend;
  engine::OocoreOptions oo;
  oo.num_threads = 2;
  engine::OocoreEngine eng(path, oo, backend);
  const engine::RunResult truth = eng.run(engine::PageRankOptions(kIters));
  runtime::metrics::MetricsRegistry single_reg;
  serve::StoreOptions so;
  so.num_nodes = 1;
  so.topk_k = kTopK;
  so.registry = &single_reg;
  serve::SnapshotStore store(n, so);
  store.publish(std::span<const rank_t>(truth.ranks));
  serve::ServiceOptions svo;
  svo.registry = &single_reg;
  serve::RankService single(store, svo);

  LoopbackFleet fleet;
  fleet.add_shard(path, VertexRange{0, 256}, kIters, kTopK);
  fleet.add_shard(path, VertexRange{256, 512}, kIters, kTopK);
  fleet.add_shard(path, VertexRange{512, 800}, kIters, kTopK);
  fleet.serve_all();
  ShardRouter router(fleet.targets);
  EXPECT_EQ(router.num_shards(), 3u);
  EXPECT_EQ(router.num_vertices(), n);

  // Batch spanning all shards: bitwise the engine's ranks.
  std::vector<vid_t> vs;
  for (vid_t v = 3; v < n; v += 97) vs.push_back(v);
  const std::vector<serve::Query> queries = {
      serve::Query::batch(vs), serve::Query::top_k(kTopK),
      serve::Query::point(700),
      serve::Query::top_k(8, VertexRange{100, 600})};
  RouterReply reply = router.execute_batch(queries);
  ASSERT_EQ(reply.results.size(), 4u);
  for (const RouterResult& r : reply.results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.mixed_epochs);
    EXPECT_FALSE(r.stale);
    EXPECT_EQ(r.result.epoch, 1u);
  }
  EXPECT_FALSE(reply.mixed_epochs);

  const std::vector<serve::QueryResult> expect =
      single.execute_batch(queries);

  ASSERT_EQ(reply.results[0].result.ranks.size(), expect[0].ranks.size());
  EXPECT_EQ(std::memcmp(reply.results[0].result.ranks.data(),
                        expect[0].ranks.data(),
                        expect[0].ranks.size() * sizeof(rank_t)),
            0);
  ASSERT_EQ(reply.results[1].result.topk.size(), expect[1].topk.size());
  EXPECT_EQ(std::memcmp(reply.results[1].result.topk.data(),
                        expect[1].topk.data(),
                        expect[1].topk.size() * sizeof(serve::TopKEntry)),
            0);
  ASSERT_EQ(reply.results[2].result.ranks.size(), 1u);
  EXPECT_EQ(reply.results[2].result.ranks[0], expect[2].ranks[0]);
  ASSERT_EQ(reply.results[3].result.topk.size(), expect[3].topk.size());
  EXPECT_EQ(std::memcmp(reply.results[3].result.topk.data(),
                        expect[3].topk.data(),
                        expect[3].topk.size() * sizeof(serve::TopKEntry)),
            0);

  // Out-of-universe queries fail without touching the fleet.
  const RouterResult bad = router.execute(serve::Query::point(n));
  EXPECT_FALSE(bad.ok);
  router.stop();
}

TEST(ShardRouter, RejectsBrokenShardMap) {
  const vid_t n = 600;
  const std::string path = make_graph_file("router_gap.hcsr", n, 3000, 4);
  LoopbackFleet fleet;
  fleet.add_shard(path, VertexRange{0, 200}, 4, 8);
  fleet.add_shard(path, VertexRange{300, 600}, 4, 8);  // gap [200, 300)
  fleet.serve_all();
  EXPECT_THROW(ShardRouter{fleet.targets}, Error);
}

// ---------------------------------------------------------------------------
// Epoch consistency under concurrent republish (the tsan contract)
// ---------------------------------------------------------------------------

// Shards republish synthetic slices where every rank encodes the
// publishing epoch (rank == (float)epoch across the whole slice).
// Racing router queries then self-certify: a torn merge — values from
// two epochs inside ONE shard's contribution, or a mixed-epoch merge
// not flagged — is directly visible in the answer bytes.
TEST(ShardRouterRace, EpochConsistentUnderConcurrentRepublish) {
  const vid_t n = 1024;
  const std::string path = make_graph_file("router_race.hcsr", n, 4000, 5);
  constexpr vid_t kSplit = 512;
  constexpr unsigned kTopK = 8;

  LoopbackFleet fleet;
  fleet.add_shard(path, VertexRange{0, kSplit}, 2, kTopK,
                  /*compute_on_start=*/false);
  fleet.add_shard(path, VertexRange{kSplit, n}, 2, kTopK,
                  /*compute_on_start=*/false);
  // Epoch 1 everywhere before the router hellos.
  const std::vector<rank_t> one(kSplit, 1.0f);
  ASSERT_EQ(fleet.servers[0]->publish_slice(one), 1u);
  ASSERT_EQ(fleet.servers[1]->publish_slice(one), 1u);
  fleet.serve_all();
  ShardRouter router(fleet.targets);

  constexpr std::uint64_t kEpochs = 40;
  std::atomic<bool> publishing{true};
  std::thread publisher([&] {
    for (std::uint64_t e = 2; e <= kEpochs; ++e) {
      const std::vector<rank_t> slice(kSplit, static_cast<rank_t>(e));
      ASSERT_EQ(fleet.servers[0]->publish_slice(slice), e);
      ASSERT_EQ(fleet.servers[1]->publish_slice(slice), e);
    }
    publishing.store(false, std::memory_order_release);
  });

  const auto check_uniform = [](std::span<const rank_t> group,
                                std::uint64_t lo, std::uint64_t hi,
                                const char* what) -> std::uint64_t {
    // Every value in one shard's contribution must be the SAME valid
    // epoch — anything else is a torn answer.
    const auto epoch = static_cast<std::uint64_t>(group.front());
    EXPECT_GE(epoch, lo) << what;
    EXPECT_LE(epoch, hi) << what;
    EXPECT_EQ(static_cast<rank_t>(epoch), group.front()) << what;
    for (const rank_t v : group) {
      EXPECT_EQ(v, group.front()) << what << ": torn per-shard answer";
    }
    return epoch;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t floor = 1;  // epochs only move forward per shard
      while (publishing.load(std::memory_order_acquire)) {
        // Batch straddling the shard boundary: positions [0, 3) owned
        // by shard 0, [3, 6) by shard 1.
        const std::vector<vid_t> vs = {5,
                                       100,
                                       static_cast<vid_t>(kSplit - 1),
                                       kSplit,
                                       kSplit + 77,
                                       n - 1};
        const std::vector<serve::Query> qs = {
            serve::Query::batch(vs),
            serve::Query::top_k(4)};
        RouterReply reply = router.execute_batch(qs);
        ASSERT_EQ(reply.results.size(), 2u);
        const RouterResult& batch = reply.results[0];
        const RouterResult& topk = reply.results[1];
        ASSERT_TRUE(batch.ok) << batch.error;
        ASSERT_TRUE(topk.ok) << topk.error;

        ASSERT_EQ(batch.result.ranks.size(), 6u);
        const std::span<const rank_t> ranks(batch.result.ranks);
        const std::uint64_t b0 =
            check_uniform(ranks.subspan(0, 3), floor, kEpochs, "batch/s0");
        const std::uint64_t b1 =
            check_uniform(ranks.subspan(3, 3), floor, kEpochs, "batch/s1");
        EXPECT_EQ(batch.mixed_epochs, b0 != b1)
            << "mixed-epoch merge not flagged (r" << r << ")";
        EXPECT_EQ(batch.result.epoch, std::max(b0, b1))
            << "claimed epoch != evidence in the answer bytes";

        // Top-k entries group by owner range; same uniformity law.
        ASSERT_EQ(topk.result.topk.size(), 4u);
        std::vector<rank_t> g0;
        std::vector<rank_t> g1;
        for (const serve::TopKEntry& e : topk.result.topk) {
          ASSERT_LT(e.vertex, n);
          (e.vertex < kSplit ? g0 : g1).push_back(e.rank);
        }
        std::uint64_t t0 = 0;
        std::uint64_t t1 = 0;
        if (!g0.empty()) {
          t0 = check_uniform(g0, floor, kEpochs, "topk/s0");
        }
        if (!g1.empty()) {
          t1 = check_uniform(g1, floor, kEpochs, "topk/s1");
        }
        if (!g0.empty() && !g1.empty()) {
          EXPECT_EQ(topk.mixed_epochs, t0 != t1);
          EXPECT_EQ(topk.result.epoch, std::max(t0, t1));
        }
        EXPECT_FALSE(topk.stale) << "no shard died in this test";
        // Monotonicity: a later read never sees an older epoch than a
        // completed earlier read established fleet-wide.
        floor = std::max(floor, std::min(b0, b1));
      }
    });
  }
  publisher.join();
  for (std::thread& t : readers) t.join();

  const RouterStats stats = router.stats();
  EXPECT_GT(stats.requests, 0u);
  EXPECT_GT(stats.republish_notices, 0u);
  router.stop();
}

}  // namespace
}  // namespace hipa::shard
