// Multi-shard distributed serving benchmark: router QPS + latency at
// 1/2/4 shards, merge-vs-single-process answer identity, and failover
// time from SIGKILL to the first rerouted answer.
//
// The binary is its own fleet: the launcher fork+execs itself with
// --serve once per shard (each child a real ShardServer process over
// its slice of one shared segmented HCSR v4 file, metrics endpoint on
// an ephemeral port) and drives a ShardRouter at it.
//
//   * configs — for 1, 2 and 4 shards, C client threads push a mixed
//     workload (point + batch + global top-k) through the router for a
//     fixed window; per-request wall latency merges into p50/p95/p99.
//     The 1-shard row is the "distribution tax" baseline: the same
//     wire protocol with no fan-out.
//   * identity — the 4-shard router's answers are memcmp'd against a
//     single-process RankService over the same graph + epoch (the
//     engine run is deterministic, so per-shard recomputes and the
//     whole-graph run agree bitwise). Hard gate.
//   * failover — mid-load, one shard is SIGKILLed. The router must
//     detect (broken round-trip or failed health probe), settle the
//     killed shard's top-k contribution from its last good partial,
//     and keep answering: failover_seconds is the gap from kill() to
//     the first successful global top-k. Clients steer owner-bound
//     lookups away from the killed range (the documented semantic for
//     those is an error after query_timeout, never a wrong answer);
//     every answer in the window is still checked bitwise against the
//     reference ranks — wrong_answers must be ZERO. Hard gate.
//
// Emits BENCH_dist.json (override with --out=); validated by
// bench_gate, alone and against the "dist" bands of
// BENCH_baseline.json. `--smoke` shrinks everything
// for the perf-smoke ctest chain.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "engines/backend.hpp"
#include "engines/oocore_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "runtime/metrics.hpp"
#include "runtime/placement.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "shard/router.hpp"
#include "shard/shard_server.hpp"
#include "shard/transport.hpp"

namespace {

using namespace hipa;

constexpr unsigned kTopK = 64;  // replicated depth = the global top-64

// ---------------------------------------------------------------------------
// Child mode: one shard process (fork+exec'd from the launcher).
// ---------------------------------------------------------------------------

struct ServeArgs {
  std::string graph;
  std::uint32_t shard_id = 0;
  VertexRange range{};
  unsigned iters = 10;
  int notify_fd = -1;
};

int run_serve(const ServeArgs& a) {
  shard::ShardServerOptions opt;
  opt.shard_id = a.shard_id;
  opt.range = a.range;
  opt.graph_path = a.graph;
  opt.iterations = a.iters;
  opt.topk_k = kTopK;
  opt.metrics_port = 0;  // ephemeral; reported over the notify pipe
  shard::ShardServer server(opt);
  std::unique_ptr<shard::Listener> listener =
      shard::listen_tcp("127.0.0.1", 0);
  const int port = listener->port();
  server.serve(std::move(listener));
  if (a.notify_fd >= 0) {
    ::dprintf(a.notify_fd, "%d %d\n", port, server.metrics_http_port());
    ::close(a.notify_fd);
  }
  server.wait();
  return 0;
}

// ---------------------------------------------------------------------------
// Launcher: fleet spawning
// ---------------------------------------------------------------------------

struct Child {
  pid_t pid = -1;
  int port = 0;
  int metrics_port = 0;
  VertexRange range{};
};

Child spawn_shard(const std::string& self, const std::string& graph,
                  std::uint32_t shard, VertexRange range, unsigned iters) {
  int fds[2];
  HIPA_CHECK(::pipe(fds) == 0, "pipe: " + std::string(strerror(errno)));
  const pid_t pid = ::fork();
  HIPA_CHECK(pid >= 0, "fork: " + std::string(strerror(errno)));
  if (pid == 0) {
    ::close(fds[0]);
    const std::string sid = "--shard-id=" + std::to_string(shard);
    const std::string grf = "--graph=" + graph;
    const std::string rng = "--range=" + std::to_string(range.begin) + ":" +
                            std::to_string(range.end);
    const std::string itr = "--iters=" + std::to_string(iters);
    const std::string nfd = "--notify-fd=" + std::to_string(fds[1]);
    const char* argv[] = {self.c_str(), "--serve",    grf.c_str(),
                          sid.c_str(),  rng.c_str(),  itr.c_str(),
                          nfd.c_str(),  nullptr};
    ::execv(self.c_str(), const_cast<char* const*>(argv));
    std::fprintf(stderr, "execv %s: %s\n", self.c_str(), strerror(errno));
    ::_exit(127);
  }
  ::close(fds[1]);
  // The child reports "port metrics_port\n" once it is accepting.
  std::string line;
  char c = 0;
  while (::read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  ::close(fds[0]);
  Child child;
  child.pid = pid;
  child.range = range;
  if (std::sscanf(line.c_str(), "%d %d", &child.port,
                  &child.metrics_port) != 2) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    HIPA_CHECK(false, "shard " + std::to_string(shard) +
                          " failed to start (no port handshake)");
  }
  return child;
}

void reap(Child& c) {
  if (c.pid <= 0) return;
  ::kill(c.pid, SIGKILL);
  ::waitpid(c.pid, nullptr, 0);
  c.pid = -1;
}

/// Spawn `shards` children over an even split of [0, n) and connect a
/// router (health probes against each child's metrics endpoint).
struct Fleet {
  std::vector<Child> children;
  std::unique_ptr<shard::ShardRouter> router;

  Fleet() = default;
  Fleet(Fleet&&) = default;
  Fleet& operator=(Fleet&&) = default;

  ~Fleet() {
    if (router != nullptr) router->stop();
    for (Child& c : children) reap(c);
  }
};

Fleet spawn_fleet(const std::string& self, const std::string& graph,
                  vid_t n, unsigned shards, unsigned iters,
                  const shard::RouterOptions& ropt) {
  Fleet fleet;
  std::vector<shard::ShardTarget> targets;
  for (unsigned s = 0; s < shards; ++s) {
    const VertexRange range{
        static_cast<vid_t>(std::uint64_t{n} * s / shards),
        static_cast<vid_t>(std::uint64_t{n} * (s + 1) / shards)};
    fleet.children.push_back(spawn_shard(self, graph, s, range, iters));
    targets.push_back(shard::tcp_target("127.0.0.1",
                                        fleet.children.back().port,
                                        fleet.children.back().metrics_port));
  }
  fleet.router =
      std::make_unique<shard::ShardRouter>(std::move(targets), ropt);
  return fleet;
}

// ---------------------------------------------------------------------------
// Load driving
// ---------------------------------------------------------------------------

struct DriveResult {
  unsigned clients = 0;
  double seconds = 0.0;
  std::uint64_t requests = 0;
  double qps = 0.0;
  serve::LatencySummary latency;
};

/// C client threads pushing mixed batches (point + batch(8) + global
/// top-k) through the router for `window` seconds.
DriveResult drive(shard::ShardRouter& router, vid_t n, unsigned clients,
                  double window) {
  DriveResult result;
  result.clients = clients;
  std::atomic<bool> stop{false};
  runtime::metrics::MetricsRegistry reg;
  const runtime::metrics::Histogram latency = reg.histogram(
      "client_latency_seconds", "Client-side request latency", {}, 1e-9);
  std::vector<std::uint64_t> counts(clients, 0);
  std::vector<std::thread> threads;
  Timer wall;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937 rng(4321u + c);
      std::uniform_int_distribution<vid_t> pick(0, n - 1);
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<vid_t> ids(8);
        for (vid_t& v : ids) v = pick(rng);
        const std::vector<serve::Query> qs = {
            serve::Query::point(pick(rng)),
            serve::Query::batch(std::move(ids)), serve::Query::top_k(10)};
        Timer t;
        const shard::RouterReply reply = router.execute_batch(qs);
        const std::uint64_t ns = runtime::metrics::seconds_to_ns(t.seconds());
        for (std::size_t i = 0; i < reply.results.size(); ++i) {
          latency.record(ns);
        }
        counts[c] += reply.results.size();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(window));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  result.seconds = wall.seconds();
  for (unsigned c = 0; c < clients; ++c) result.requests += counts[c];
  result.latency = serve::latency_summary(
      *reg.snapshot().find_histogram("client_latency_seconds"));
  result.qps = result.seconds > 0.0
                   ? static_cast<double>(result.requests) / result.seconds
                   : 0.0;
  return result;
}

void emit_host(bench::JsonWriter& jw) {
  const runtime::HostTopology& topo = runtime::topology();
  jw.key("host");
  jw.begin_object();
  jw.kv("cpus", topo.num_cpus());
  jw.kv("numa_nodes", topo.num_nodes());
  jw.kv("topology_source", topo.from_sysfs ? "sysfs" : "fallback");
  jw.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  // Child mode first: the launcher re-execs this binary per shard.
  bool serve_mode = false;
  ServeArgs sa;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (cli::flag_is(a, "--serve")) {
      serve_mode = true;
    } else if (const char* graph_arg = cli::flag_value(a, "--graph=")) {
      sa.graph = graph_arg;
    } else if (const char* shard_arg = cli::flag_value(a, "--shard-id=")) {
      sa.shard_id = static_cast<std::uint32_t>(
          cli::parse_u64("--shard-id", shard_arg));
    } else if (const char* range_arg = cli::flag_value(a, "--range=")) {
      unsigned long lo = 0;
      unsigned long hi = 0;
      HIPA_CHECK(
          std::sscanf(range_arg, "%lu:%lu", &lo, &hi) == 2 && lo < hi,
          "--range expects a:b");
      sa.range = VertexRange{static_cast<vid_t>(lo),
                             static_cast<vid_t>(hi)};
    } else if (const char* iters_arg = cli::flag_value(a, "--iters=")) {
      sa.iters =
          static_cast<unsigned>(cli::parse_u64("--iters", iters_arg));
    } else if (const char* fd_arg = cli::flag_value(a, "--notify-fd=")) {
      sa.notify_fd =
          static_cast<int>(cli::parse_u64("--notify-fd", fd_arg));
    }
  }
  if (serve_mode) {
    try {
      return run_serve(sa);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_dist --serve: %s\n", e.what());
      return 1;
    }
  }

  bench::Flags flags = bench::Flags::parse(argc, argv);
  const std::string out_path =
      flags.out.empty() ? "BENCH_dist.json" : flags.out;
  const double window = flags.smoke ? 0.2 : flags.quick ? 0.5 : 1.5;
  const unsigned clients =
      std::max(2u, std::min(4u, runtime::available_cpus()));
  const unsigned iters =
      flags.iterations != 0 ? flags.iterations : flags.smoke ? 4 : 10;

  bench::print_banner("Multi-shard serving: router QPS, identity, failover",
                      "ROADMAP: scale-out serving over the HiPa kernel");

  // Shared segmented graph: one skewed synthetic dataset on disk, the
  // fleet's common substrate (written next to the JSON output).
  graph::ZipfParams zp;
  zp.num_vertices = flags.smoke ? 20000u : 150000u;
  zp.num_edges = flags.smoke ? 140000u : 1800000u;
  zp.seed = 42;
  const graph::Graph g = graph::build_graph(
      zp.num_vertices, graph::generate_zipf(zp));
  const vid_t n = g.num_vertices();
  const std::string graph_path = out_path + ".hcsr";
  graph::save_segmented_csr(graph_path, g, 256u << 10);
  std::printf("dataset zipf-synth: %u vertices, %llu edges (%s)\n\n", n,
              static_cast<unsigned long long>(g.num_edges()),
              graph_path.c_str());

  // Reference ranks: the same deterministic streaming engine the
  // shards run, over the whole file.
  std::vector<rank_t> reference;
  {
    engine::NativeBackend backend;
    engine::OocoreOptions oo;
    oo.num_threads = std::max(1u, runtime::available_cpus());
    engine::OocoreEngine eng(graph_path, oo, backend);
    reference = eng.run(engine::PageRankOptions(iters)).ranks;
  }

  const std::string self = argv[0];
  shard::RouterOptions ropt;
  ropt.health_poll_seconds = 0.05;
  ropt.query_timeout_seconds = 5.0;

  std::FILE* jf = std::fopen(out_path.c_str(), "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  bench::JsonWriter jw(jf);
  jw.begin_object();
  jw.kv("bench", "dist");
  jw.kv("quick", flags.quick);
  jw.kv("smoke", flags.smoke);
  emit_host(jw);
  jw.key("dataset");
  jw.begin_object();
  jw.kv("name", "zipf-synth");
  jw.kv("vertices", static_cast<std::uint64_t>(n));
  jw.kv("edges", static_cast<std::uint64_t>(g.num_edges()));
  jw.end_object();
  jw.key("shard_defaults");
  jw.begin_object();
  jw.kv("iterations", iters);
  jw.kv("topk_k", kTopK);
  jw.end_object();

  // ---- Router QPS / latency at 1, 2, 4 shards ---------------------
  std::printf("router load (%u clients, %.2fs windows):\n", clients,
              window);
  jw.key("configs");
  jw.begin_array();
  for (const unsigned shards : {1u, 2u, 4u}) {
    Fleet fleet = spawn_fleet(self, graph_path, n, shards, iters, ropt);
    const DriveResult r = drive(*fleet.router, n, clients, window);
    std::printf("  %u shard%s %9.0f qps | p50 %7.1f  p95 %7.1f  "
                "p99 %7.1f us\n",
                shards, shards == 1 ? " " : "s", r.qps,
                r.latency.p50_seconds * 1e6, r.latency.p95_seconds * 1e6,
                r.latency.p99_seconds * 1e6);
    jw.begin_object();
    jw.kv("shards", shards);
    jw.kv("clients", r.clients);
    jw.kv("seconds", r.seconds);
    jw.kv("requests", r.requests);
    jw.kv("qps", r.qps);
    jw.kv("p50_us", r.latency.p50_seconds * 1e6);
    jw.kv("p95_us", r.latency.p95_seconds * 1e6);
    jw.kv("p99_us", r.latency.p99_seconds * 1e6);
    jw.kv("mean_us", r.latency.mean_seconds * 1e6);
    jw.end_object();
  }
  jw.end_array();

  // ---- Identity + failover on one 4-shard fleet -------------------
  constexpr unsigned kFleetShards = 4;
  Fleet fleet =
      spawn_fleet(self, graph_path, n, kFleetShards, iters, ropt);
  shard::ShardRouter& router = *fleet.router;

  // Identity: every router answer bitwise equals the single-process
  // service over the same ranks at the same epoch.
  bool identical = true;
  std::uint64_t identity_queries = 0;
  {
    serve::StoreOptions so;
    so.num_nodes = 1;
    so.topk_k = kTopK;
    serve::SnapshotStore store(n, so);
    store.publish(std::span<const rank_t>(reference));
    serve::RankService single(store);

    std::vector<vid_t> vs;
    for (vid_t v = 1; v < n; v += 101) vs.push_back(v);
    const std::vector<serve::Query> qs = {
        serve::Query::batch(vs), serve::Query::top_k(kTopK),
        serve::Query::point(n / 2),
        serve::Query::top_k(16, VertexRange{n / 5, 4 * n / 5})};
    const shard::RouterReply routed = router.execute_batch(qs);
    const std::vector<serve::QueryResult> direct =
        single.execute_batch(qs);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const shard::RouterResult& r = routed.results[i];
      const serve::QueryResult& d = direct[i];
      identity_queries += 1;
      if (!r.ok || r.result.epoch != 1 || d.epoch != 1 ||
          r.result.ranks.size() != d.ranks.size() ||
          r.result.topk.size() != d.topk.size() ||
          std::memcmp(r.result.ranks.data(), d.ranks.data(),
                      d.ranks.size() * sizeof(rank_t)) != 0 ||
          std::memcmp(r.result.topk.data(), d.topk.data(),
                      d.topk.size() * sizeof(serve::TopKEntry)) != 0) {
        identical = false;
      }
    }
  }
  std::printf("\n%u-shard router vs single process: %s (%llu queries)\n",
              kFleetShards, identical ? "bitwise identical" : "MISMATCH",
              static_cast<unsigned long long>(identity_queries));
  jw.key("identity");
  jw.begin_object();
  jw.kv("shards", kFleetShards);
  jw.kv("memcmp_identical", identical);
  jw.kv("queries", identity_queries);
  jw.kv("epoch", std::uint64_t{1});
  jw.end_object();

  // Failover: SIGKILL shard 1 mid-load. Clients steer owner-bound
  // lookups to surviving ranges (dead-range lookups are a documented
  // timeout error, never a wrong answer) but keep issuing global
  // top-k, which exercises the stale-partial substitution. Every
  // answer is checked bitwise against the reference.
  constexpr unsigned kVictim = 1;
  const VertexRange dead = fleet.children[kVictim].range;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> load;
  for (unsigned c = 0; c < clients; ++c) {
    load.emplace_back([&, c] {
      std::mt19937 rng(9000u + c);
      std::uniform_int_distribution<vid_t> pick(0, n - 1);
      const auto alive_vertex = [&] {
        vid_t v = pick(rng);
        while (dead.contains(v)) v = pick(rng);
        return v;
      };
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<serve::Query> qs = {
            serve::Query::point(alive_vertex()),
            serve::Query::top_k(10)};
        const shard::RouterReply reply = router.execute_batch(qs);
        for (std::size_t i = 0; i < reply.results.size(); ++i) {
          const shard::RouterResult& r = reply.results[i];
          if (!r.ok) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          answered.fetch_add(1, std::memory_order_relaxed);
          bool good = true;
          if (i == 0) {
            good = r.result.ranks.size() == 1 &&
                   r.result.ranks[0] == reference[qs[0].vertex];
          } else {
            for (const serve::TopKEntry& e : r.result.topk) {
              if (e.vertex >= n || e.rank != reference[e.vertex]) {
                good = false;
              }
            }
          }
          if (!good) wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Warm up (the router must have a cached top-k partial from the
  // victim before it dies), then kill and time the reroute.
  std::this_thread::sleep_for(std::chrono::duration<double>(window / 4));
  ::kill(fleet.children[kVictim].pid, SIGKILL);
  ::waitpid(fleet.children[kVictim].pid, nullptr, 0);
  fleet.children[kVictim].pid = -1;
  Timer fail_timer;
  double failover_seconds = -1.0;
  while (fail_timer.seconds() < 30.0) {
    const shard::RouterResult probe =
        router.execute(serve::Query::top_k(10));
    if (probe.ok) {
      failover_seconds = fail_timer.seconds();
      break;
    }
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(window / 2));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : load) t.join();
  const shard::RouterStats stats = router.stats();
  const bool failover_ok = failover_seconds >= 0.0 && wrong.load() == 0;
  std::printf("failover: shard %u killed; first rerouted answer after "
              "%.1f ms | %llu answered, %llu errors, %llu wrong %s\n",
              kVictim, failover_seconds * 1e3,
              static_cast<unsigned long long>(answered.load()),
              static_cast<unsigned long long>(errors.load()),
              static_cast<unsigned long long>(wrong.load()),
              failover_ok ? "OK" : "FAIL");

  jw.key("failover");
  jw.begin_object();
  jw.kv("shards", kFleetShards);
  jw.kv("killed_shard", kVictim);
  jw.kv("failover_seconds", failover_seconds);
  jw.kv("answered", answered.load());
  jw.kv("errors", errors.load());
  jw.kv("wrong_answers", wrong.load());
  jw.kv("stale_merges", stats.stale_merges);
  jw.kv("timeouts", stats.timeouts);
  jw.end_object();
  jw.end_object();
  std::fputc('\n', jf);
  std::fclose(jf);
  std::remove(graph_path.c_str());
  std::printf("wrote %s\n", out_path.c_str());
  return (identical && failover_ok) ? 0 : 1;
}
