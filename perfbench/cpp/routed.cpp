// routed: a ShardRouter over kShards ShardServer child processes that
// share one segmented HCSR file, driven by an open-loop mix of point
// lookups (one owner each) and global top-k (fan-out to every shard).
//
// The benchmark binary is its own fleet: it re-executes itself with
// --shard-child once per shard; each child reports its ports over a
// pipe and dies with its parent. Answers are compared bitwise against
// serve::evaluate over a single-process snapshot of the same ranks,
// computed in this process by the same deterministic streaming engine
// the shards run. After the window a probe connection speaks shard/proto
// straight to one shard, bypassing the router, to time the wire alone.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "engines/oocore_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "serve/snapshot.hpp"
#include "serving.hpp"
#include "shard/proto.hpp"
#include "shard/router.hpp"
#include "shard/shard_server.hpp"
#include "shard/transport.hpp"

namespace perfbench {

namespace {

using namespace hipa;

constexpr unsigned kShards = 2;
constexpr unsigned kShardThreads = 2;  // ShardServer compute threads
constexpr unsigned kIterations = 20;
constexpr unsigned kTopKDepth = 64;    // replicated top-k per shard
constexpr double kLimitUs = 2000.0;    // p99 limit for max_qps
constexpr unsigned kSenders = 1;
constexpr unsigned kBatchCap = 64;

struct Child {
  pid_t pid = -1;
  int port = 0;
  int metrics_port = 0;
};

Child spawn_shard(const std::string& self, const std::string& graph,
                  std::uint32_t id, VertexRange range) {
  int fds[2];
  HIPA_CHECK(::pipe(fds) == 0, "pipe: " << std::strerror(errno));
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  HIPA_CHECK(pid >= 0, "fork: " << std::strerror(errno));
  if (pid == 0) {
    ::close(fds[0]);
    // Die with the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    const std::string a_graph = "--graph=" + graph;
    const std::string a_id = "--shard-id=" + std::to_string(id);
    const std::string a_range = "--range=" + std::to_string(range.begin) +
                                ":" + std::to_string(range.end);
    const std::string a_fd = "--notify-fd=" + std::to_string(fds[1]);
    const char* argv[] = {self.c_str(),    "--shard-child", a_graph.c_str(),
                          a_id.c_str(),    a_range.c_str(), a_fd.c_str(),
                          nullptr};
    ::execv(self.c_str(), const_cast<char* const*>(argv));
    std::fprintf(stderr, "execv %s: %s\n", self.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string line;
  char c = 0;
  while (::read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  ::close(fds[0]);
  Child child;
  child.pid = pid;
  if (std::sscanf(line.c_str(), "%d %d", &child.port, &child.metrics_port) !=
      2) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    HIPA_CHECK(false, "shard " << id << " failed to start");
  }
  return child;
}

/// The shard processes plus the router in front of them.
struct Fleet {
  std::vector<Child> children;
  std::unique_ptr<shard::ShardRouter> router;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    if (router) router->stop();
    router.reset();
    for (Child& c : children) {
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
    }
  }
  [[nodiscard]] std::vector<pid_t> pids() const {
    std::vector<pid_t> p;
    for (const Child& c : children) p.push_back(c.pid);
    return p;
  }
};

std::unique_ptr<Fleet> spawn_fleet(const std::string& self,
                                   const std::string& graph, vid_t n) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<shard::ShardTarget> targets;
  for (unsigned s = 0; s < kShards; ++s) {
    const VertexRange range{
        static_cast<vid_t>(std::uint64_t{n} * s / kShards),
        static_cast<vid_t>(std::uint64_t{n} * (s + 1) / kShards)};
    fleet->children.push_back(spawn_shard(self, graph, s, range));
    targets.push_back(shard::tcp_target("127.0.0.1",
                                        fleet->children.back().port,
                                        fleet->children.back().metrics_port));
  }
  shard::RouterOptions ro;
  ro.query_timeout_seconds = 5.0;
  fleet->router =
      std::make_unique<shard::ShardRouter>(std::move(targets), ro);
  return fleet;
}

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = arg + len;
  return true;
}

}  // namespace

int shard_child_main(int argc, char** argv) {
  shard::ShardServerOptions opt;
  int notify_fd = -1;
  for (int i = 2; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--graph=", &v)) {
      opt.graph_path = v;
    } else if (parse_flag(argv[i], "--shard-id=", &v)) {
      opt.shard_id = static_cast<std::uint32_t>(std::stoul(v));
    } else if (parse_flag(argv[i], "--range=", &v)) {
      unsigned b = 0, e = 0;
      if (std::sscanf(v.c_str(), "%u:%u", &b, &e) != 2) return 2;
      opt.range = VertexRange{b, e};
    } else if (parse_flag(argv[i], "--notify-fd=", &v)) {
      notify_fd = std::stoi(v);
    } else {
      std::fprintf(stderr, "shard child: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  opt.compute_threads = kShardThreads;
  opt.iterations = kIterations;
  opt.topk_k = kTopKDepth;
  opt.metrics_port = 0;  // ephemeral: the router's health poller scrapes it
  try {
    shard::ShardServer server(opt);
    std::unique_ptr<shard::Listener> listener =
        shard::listen_tcp("127.0.0.1", 0);
    const int port = listener->port();
    server.serve(std::move(listener));
    if (notify_fd >= 0) {
      ::dprintf(notify_fd, "%d %d\n", port, server.metrics_http_port());
      ::close(notify_fd);
    }
    server.wait();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard child: %s\n", e.what());
    return 1;
  }
  return 0;
}

void run_routed(const Config& cfg, Result& out) {
  graph::RmatParams rp;
  rp.scale = cfg.tiny ? 12 : 18;
  rp.edge_factor = cfg.tiny ? 8 : 16;
  rp.seed = cfg.seed;
  const vid_t n = vid_t{1} << rp.scale;
  Mix mix;
  mix.point = 90;
  mix.batch = 0;
  mix.global_topk = 10;
  out.param("generator", "rmat");
  out.param("rmat.scale", rp.scale);
  out.param("rmat.edge_factor", rp.edge_factor);
  out.param("mix", "point 90 / global top-10 10");
  out.param("shards", kShards);
  out.param("rate_lo", cfg.routed_rates.lo);
  out.param("rate_hi", cfg.routed_rates.hi);
  out.param("senders", kSenders);
  out.param("limit_us", kLimitUs);

  std::vector<Edge> edges;
  {
    ScopedSpan span("gen.rmat");
    edges = graph::generate_rmat(rp);
  }
  const std::string path = cfg.out_dir + "/routed-" +
                           std::to_string(cfg.seed) + ".hcsr";

  // Set-up: CSR, segmented file, fleet (each shard computes its ranks
  // on start) and the router's hello round.
  std::vector<double> setup_s, build_s, open_s, fleet_s;
  std::unique_ptr<Fleet> fleet;
  std::optional<graph::Graph> g;
  for (unsigned rep = 0; rep < (cfg.tiny ? 2u : 3u); ++rep) {
    fleet.reset();
    g.reset();
    ScopedSpan span("setup");
    const std::int64_t t0 = now_ns();
    build_s.push_back(timed("graph.build_graph",
                            [&] { g = graph::build_graph(n, edges); }));
    timed("graph.save_segmented_csr", [&] {
      graph::save_segmented_csr(
          path, *g, graph::segment_payload_bytes(n, g->num_edges()) / 8);
    });
    graph::SegmentedCsr scsr;
    open_s.push_back(timed("graph.segment_open", [&] {
      scsr = graph::SegmentedCsr::open(path);
    }));
    fleet_s.push_back(timed(
        "shard.spawn_fleet",
        [&] { fleet = spawn_fleet(cfg.self_exe, path, n); }));
    setup_s.push_back(1e-9 * double(now_ns() - t0));
  }
  out.set("setup_s", median(setup_s), "s");
  out.set("graph.build_s", median(build_s), "s");
  out.set("graph.segment_open_s", median(open_s), "s");
  // The fleet's PageRank: start-up until every shard has streamed the
  // file, computed and published its ranks and answered the router.
  out.set("pr_run_s", median(fleet_s), "s");
  shard::ShardRouter& router = *fleet->router;

  // Single-process reference: the shards' engine over the whole file.
  engine::RunResult ref;
  {
    engine::NativeBackend backend;
    engine::OocoreOptions oo;
    oo.num_threads = kShardThreads;
    std::unique_ptr<engine::OocoreEngine> eng;
    const double ctor_s = timed("engines.oocore_ctor", [&] {
      eng = std::make_unique<engine::OocoreEngine>(path, oo, backend);
    });
    engine::PageRankOptions pr(kIterations);
    if (cfg.trace) pr.telemetry = runtime::Telemetry::kOn;
    {
      ScopedSpan span("engines.run");
      ref = eng->run(pr);
    }
    if (cfg.trace) {
      out.set("engines.ctor_s", ctor_s, "s");
      const engine::OocoreStats& st = eng->stats();
      out.set("engines.io_wait_s", st.io_wait_seconds, "s");
      out.set("engines.fetch_s", st.fetch_seconds, "s");
      out.set("engines.overlap", st.overlap_ratio(), "ratio");
      record_engine_telemetry(ref.report, g->num_edges(), st.bytes_fetched,
                              out);
    }
  }
  std::vector<rank_t> ranks = ref.ranks;
  if (cfg.fault == Fault::kRefBit) {
    const vid_t top = own_top_k(ranks, {0, n}, 1)[0].vertex;
    std::uint32_t bits;
    std::memcpy(&bits, &ranks[top], sizeof bits);
    bits ^= 1u;
    std::memcpy(&ranks[top], &bits, sizeof bits);
  }
  serve::StoreOptions so;
  so.num_nodes = 1;
  so.topk_k = kTopKDepth;
  serve::SnapshotStore store(n, so);
  store.publish(std::span<const rank_t>(ranks));
  const serve::SnapshotRef snap = store.current();

  // ---- readers --------------------------------------------------------
  struct SenderState {
    std::vector<serve::Query> qs;
    std::uint64_t shards_touched = 0, queries = 0;
  };
  std::vector<SenderState> senders(kSenders);
  std::atomic<bool> corrupt_once{cfg.fault == Fault::kAnswer};
  std::atomic<std::uint64_t> checked{0}, wrong{0};
  std::uint64_t phase_seed = 0;
  const BatchCall call = [&](unsigned sid, std::uint64_t first,
                             unsigned count, Outcome* outc) {
    SenderState& s = senders[sid];
    {
      OwnCpu own;
      s.qs.clear();
      for (unsigned i = 0; i < count; ++i) {
        s.qs.push_back(make_query(mix, phase_seed, first + i, n));
      }
    }
    shard::RouterReply reply;
    {
      ScopedSpan span("shard.router_execute_batch");
      reply = router.execute_batch(s.qs);
    }
    OwnCpu own;
    std::uint64_t bad = 0;
    for (unsigned i = 0; i < count; ++i) {
      const serve::Query& q = s.qs[i];
      outc[i].topk = q.kind == serve::QueryKind::kTopK;
      s.shards_touched += outc[i].topk ? kShards : 1;
      if (i >= reply.results.size()) {
        ++bad;
        continue;
      }
      shard::RouterResult& r = reply.results[i];
      if (r.result.ranks.size() == 1 && corrupt_once.exchange(false)) {
        r.result.ranks[0] = std::nextafter(r.result.ranks[0], 1.0f);
      }
      const serve::QueryResult want = serve::evaluate(*snap, q);
      outc[i].ok = r.ok && !r.mixed_epochs && !r.stale &&
                   r.result.epoch == want.epoch &&
                   same_bits<rank_t>(r.result.ranks, want.ranks) &&
                   same_bits<serve::TopKEntry>(r.result.topk, want.topk);
      if (!outc[i].ok) ++bad;
    }
    s.queries += count;
    checked.fetch_add(count);
    wrong.fetch_add(bad);
  };

  // ---- window -----------------------------------------------------------
  const double S = cfg.seconds;
  const double expected_max = cfg.routed_rates.hi / 0.6;
  const unsigned steps = cfg.tiny ? 3 : 8;
  const double search_s = 0.4 * S;
  const double saturate_s = 0.3 * S;
  OpenLoop loop(
      max_phase_requests(cfg.routed_rates, 0.3 * S, 0.3 * S,
                         std::max(saturate_s, 2 * search_s / steps)),
      kSenders, kBatchCap);
  auto phase = [&](double rate, double secs, std::uint64_t salt) {
    phase_seed = stream_seed(cfg.seed, salt);
    return loop.run(rate, secs, phase_seed, kLimitUs, call);
  };
  std::optional<PhaseStats> untraced_lo, traced_lo;
  if (cfg.trace) {
    Tracer::get().pause(true);
    untraced_lo = phase(cfg.routed_rates.lo, 0.1 * S, 0x10);
    Tracer::get().pause(false);
    traced_lo = phase(cfg.routed_rates.lo, 0.1 * S, 0x10);
  }
  const shard::RouterStats before = router.stats();
  const std::vector<pid_t> pids = fleet->pids();
  RssSampler rss(pids);
  const std::uint64_t rss_start = rss.sample();
  const Rounds rw = interleaved_rounds(loop, cfg.routed_rates, 0.3 * S,
                                      0.3 * S, saturate_s * expected_max,
                                      cfg.tiny ? 2 : 4, cfg.seed, phase_seed,
                                      kLimitUs, call, pids);
  const PhaseStats& hi = rw.hi;
  phase_seed = stream_seed(cfg.seed, 0x50);
  std::vector<PhaseStats> tried;
  double max_qps = 0.0;
  if (cfg.trace) {
    max_qps = search_max_rate(loop, expected_max, kLimitUs, steps,
                              search_s / steps, phase_seed, call, &tried);
  }
  const std::uint64_t rss_end = rss.sample();
  const std::uint64_t rss_peak = rss.stop();
  const shard::RouterStats after = router.stats();

  // Probe: shard/proto over shard/transport straight to shard 0.
  std::vector<double> rtt_us;
  {
    std::unique_ptr<shard::Conn> conn =
        shard::connect_tcp("127.0.0.1", fleet->children[0].port);
    const VertexRange own = router.shard_range(0);
    for (unsigned i = 0; i < (cfg.tiny ? 200u : 2000u); ++i) {
      const vid_t v = own.begin + static_cast<vid_t>(
                                      stream_seed(cfg.seed, 0x60 + i) % own.size());
      shard::QueryBatch qb;
      qb.request_id = i + 1;
      qb.queries.push_back(serve::Query::point(v));
      shard::Frame f;
      const std::int64_t t0 = now_ns();
      bool ok = conn->send(shard::encode_query_batch(qb)) && conn->recv(&f);
      rtt_us.push_back(1e-3 * double(now_ns() - t0));
      const std::optional<shard::AnswerBatch> ab =
          ok ? shard::decode_answer_batch(f) : std::nullopt;
      ok = ab && ab->request_id == qb.request_id && ab->answers.size() == 1 &&
           same_bits<rank_t>(ab->answers[0].ranks,
                             std::span<const rank_t>(ranks).subspan(v, 1));
      checked.fetch_add(1);
      if (!ok) wrong.fetch_add(1);
    }
  }
  if (cfg.trace) {
    graph::SegmentedCsr scsr = graph::SegmentedCsr::open(path);
    std::vector<unsigned char> buf(scsr.max_payload_bytes());
    const double read_s = timed("graph.read_segment_all", [&] {
      for (unsigned s = 0; s < scsr.num_segments(); ++s) {
        scsr.read_segment(s, buf.data());
      }
    });
    out.set("graph.segment_read_gbps",
            1e-9 * double(scsr.total_payload_bytes()) / read_s, "GB/s");
  }
  fleet.reset();
  std::remove(path.c_str());

  out.attempted += checked.load();
  out.failed += wrong.load();
  std::uint64_t touched = 0, queries = 0;
  for (const SenderState& s : senders) {
    touched += s.shards_touched;
    queries += s.queries;
  }
  const double routed_queries = double(after.requests - before.requests);
  report_reads(out, rw, tried, max_qps, kLimitUs);
  out.set("peak_rss_mb", mib(rss_peak), "MiB");
  out.set("serve.rss_growth_mb", mib(rss_end) - mib(rss_start), "MiB");
  out.set("shard.router_call_us_p50", hi.call_p50_us, "us");
  out.set("shard.router_call_us_p99", hi.call_p99_us, "us");
  out.set("shard.direct_rtt_us", median(rtt_us), "us");
  out.set("shard.envelopes_per_request",
          routed_queries > 0 ? double(after.envelopes_sent -
                                      before.envelopes_sent) /
                                   routed_queries
                             : 0.0,
          "ratio");
  out.set("shard.fanout", queries > 0 ? double(touched) / double(queries)
                                      : 0.0,
          "ratio");
  if (untraced_lo) {
    out.set("trace.overhead_ms",
            1e-3 * (traced_lo->p50_us - untraced_lo->p50_us), "ms");
  }
}

}  // namespace perfbench
