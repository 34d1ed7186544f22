// hipa-shardctl: spawn and drive a local shard fleet.
//
// Launcher mode (default) forks N shard processes — each one this
// same binary re-exec'd in --serve mode — over even vertex ranges of
// a segmented HCSR v3/v4 graph, connects a ShardRouter to the fleet, and
// drops into a REPL:
//
//   hipa-shardctl --graph=web.hcsr --shards=4
//   hipa-shardctl --demo                  # synthesizes a small graph
//
//   > topk 10            merged global top-k (epoch + flags shown)
//   > point 12345        rank of one vertex (routed to its owner)
//   > status             per-shard health / epoch / range + router stats
//   > kill 2             SIGKILL shard 2 (watch the router fail over)
//   > restart 2          respawn shard 2; the router re-hellos it
//   > quit
//
// Serve mode (`--serve`) is the child side: open the graph, own
// --range, listen on an ephemeral port, and report "port metrics-port"
// over --notify-fd so the parent learns where the shard landed. It is
// also usable standalone to run one shard per host.
//
// Every child binds 127.0.0.1 and dies with the controlling terminal
// (SIGKILL on quit): this tool is a harness for local experiments and
// the failover demo, not a daemon manager.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "shard/router.hpp"
#include "shard/shard_server.hpp"
#include "shard/transport.hpp"

namespace {

using hipa::VertexRange;
using hipa::vid_t;

struct ServeArgs {
  std::string graph;
  std::uint32_t shard_id = 0;
  VertexRange range{};
  int port = 0;           ///< 0 = ephemeral
  int metrics_port = 0;   ///< 0 = ephemeral
  unsigned threads = 2;
  unsigned iters = 20;
  int notify_fd = -1;
};

/// Child side: one shard process. Blocks until a kShutdown frame or a
/// signal ends it.
int run_serve(const ServeArgs& a) {
  hipa::shard::ShardServerOptions opt;
  opt.shard_id = a.shard_id;
  opt.range = a.range;
  opt.graph_path = a.graph;
  opt.compute_threads = a.threads;
  opt.iterations = a.iters;
  opt.metrics_port = a.metrics_port;
  hipa::shard::ShardServer server(opt);
  auto listener = hipa::shard::listen_tcp("127.0.0.1", a.port);
  const int bound = listener->port();
  server.serve(std::move(listener));
  std::fprintf(stderr,
               "shard %u: range [%u, %u) on 127.0.0.1:%d "
               "(metrics :%d), epoch %llu\n",
               a.shard_id, a.range.begin, a.range.end, bound,
               server.metrics_http_port(),
               static_cast<unsigned long long>(server.epoch()));
  if (a.notify_fd >= 0) {
    // The parent blocks on this line to learn the ephemeral ports.
    ::dprintf(a.notify_fd, "%d %d\n", bound, server.metrics_http_port());
    ::close(a.notify_fd);
  }
  server.wait();
  return 0;
}

// ---------------------------------------------------------------------------
// Launcher: fork/exec children, drive a router.

struct Child {
  pid_t pid = -1;
  int port = -1;
  int metrics_port = -1;
  VertexRange range{};
};

/// fork + exec ourselves in --serve mode; blocks until the child
/// reports its ports. `self` is argv[0] of the launcher.
Child spawn_shard(const std::string& self, const std::string& graph,
                  std::size_t shard, VertexRange range, unsigned threads,
                  unsigned iters) {
  int notify[2];
  HIPA_CHECK(::pipe(notify) == 0, "pipe failed: " << std::strerror(errno));
  const pid_t pid = ::fork();
  HIPA_CHECK(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    // Child: exec immediately (the parent is multithreaded once the
    // router exists, so nothing but exec is safe after fork).
    ::close(notify[0]);
    char shard_flag[48], range_flag[48], fd_flag[32], threads_flag[32],
        iters_flag[32];
    std::snprintf(shard_flag, sizeof shard_flag, "--shard-id=%zu", shard);
    std::snprintf(range_flag, sizeof range_flag, "--range=%u:%u",
                  range.begin, range.end);
    std::snprintf(fd_flag, sizeof fd_flag, "--notify-fd=%d", notify[1]);
    std::snprintf(threads_flag, sizeof threads_flag, "--threads=%u",
                  threads);
    std::snprintf(iters_flag, sizeof iters_flag, "--iters=%u", iters);
    const std::string graph_flag = "--graph=" + graph;
    const char* argv[] = {self.c_str(),       "--serve",
                          graph_flag.c_str(), shard_flag,
                          range_flag,         fd_flag,
                          threads_flag,       iters_flag,
                          nullptr};
    ::execv(self.c_str(), const_cast<char* const*>(argv));
    std::perror("hipa-shardctl: execv");
    ::_exit(127);
  }
  ::close(notify[1]);
  std::string line;
  char c;
  while (::read(notify[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  ::close(notify[0]);
  Child child;
  child.pid = pid;
  child.range = range;
  if (std::sscanf(line.c_str(), "%d %d", &child.port,
                  &child.metrics_port) != 2) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    HIPA_CHECK(false, "shard " << shard << " failed to start (no port "
                               << "report; see its stderr above)");
  }
  return child;
}

void reap(Child& c) {
  if (c.pid <= 0) return;
  ::kill(c.pid, SIGKILL);
  ::waitpid(c.pid, nullptr, 0);
  c.pid = -1;
}

const char* health_name(hipa::shard::ShardHealth h) {
  switch (h) {
    case hipa::shard::ShardHealth::kAlive: return "alive";
    case hipa::shard::ShardHealth::kDegraded: return "degraded";
    case hipa::shard::ShardHealth::kDead: return "dead";
  }
  return "?";
}

void print_result(const hipa::shard::RouterResult& r) {
  if (!r.ok) {
    std::printf("  error: %s\n", r.error.c_str());
    return;
  }
  std::printf("  epoch %llu%s%s\n",
              static_cast<unsigned long long>(r.result.epoch),
              r.mixed_epochs ? "  [mixed epochs]" : "",
              r.stale ? "  [stale partial]" : "");
  for (const float rank : r.result.ranks) {
    std::printf("  rank %.9g\n", static_cast<double>(rank));
  }
  for (std::size_t i = 0; i < r.result.topk.size(); ++i) {
    std::printf("  #%-3zu v%-10u %.9g\n", i + 1, r.result.topk[i].vertex,
                static_cast<double>(r.result.topk[i].rank));
  }
}

int run_launcher(const std::string& self, const std::string& graph,
                 std::size_t shards, unsigned threads, unsigned iters) {
  const vid_t num_vertices =
      hipa::graph::SegmentedCsr::open(graph).num_vertices();
  HIPA_CHECK(shards >= 1 && shards <= num_vertices,
             "cannot split " << num_vertices << " vertices into " << shards
                             << " shards");

  std::fprintf(stderr, "spawning %zu shards over %u vertices of %s\n",
               shards, num_vertices, graph.c_str());
  std::vector<Child> children;
  std::vector<hipa::shard::ShardTarget> targets;
  for (std::size_t s = 0; s < shards; ++s) {
    const vid_t begin =
        static_cast<vid_t>(num_vertices * s / shards);
    const vid_t end =
        static_cast<vid_t>(num_vertices * (s + 1) / shards);
    children.push_back(
        spawn_shard(self, graph, s, VertexRange{begin, end}, threads,
                    iters));
    targets.push_back(hipa::shard::tcp_target(
        "127.0.0.1", children.back().port, children.back().metrics_port));
  }

  hipa::shard::ShardRouter router(std::move(targets));
  std::fprintf(stderr, "router up: %zu shards, %u vertices. "
                       "try: topk 10 | point 0 | status | kill 0 | "
                       "restart 0 | quit\n",
               router.num_shards(), router.num_vertices());

  std::string line;
  while (std::fputs("> ", stdout), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "topk") {
      unsigned k = 10;
      in >> k;
      print_result(router.execute(hipa::serve::Query::top_k(k)));
    } else if (cmd == "point") {
      vid_t v = 0;
      if (!(in >> v) || v >= router.num_vertices()) {
        std::printf("  usage: point <vertex < %u>\n", router.num_vertices());
        continue;
      }
      print_result(router.execute(hipa::serve::Query::point(v)));
    } else if (cmd == "status") {
      for (std::size_t s = 0; s < router.num_shards(); ++s) {
        const VertexRange r = router.shard_range(s);
        std::printf("  shard %zu  [%u, %u)  %s  epoch %llu  pid %d  "
                    ":%d (metrics :%d)\n",
                    s, r.begin, r.end, health_name(router.health(s)),
                    static_cast<unsigned long long>(router.shard_epoch(s)),
                    children[s].pid, children[s].port,
                    children[s].metrics_port);
      }
      const hipa::shard::RouterStats st = router.stats();
      std::printf("  router: %llu requests, %llu envelopes, "
                  "%llu reconnects, %llu failovers, %llu stale merges, "
                  "%llu mixed-epoch merges, %llu timeouts\n",
                  static_cast<unsigned long long>(st.requests),
                  static_cast<unsigned long long>(st.envelopes_sent),
                  static_cast<unsigned long long>(st.reconnects),
                  static_cast<unsigned long long>(st.failovers),
                  static_cast<unsigned long long>(st.stale_merges),
                  static_cast<unsigned long long>(st.mixed_epoch_merges),
                  static_cast<unsigned long long>(st.timeouts));
    } else if (cmd == "kill" || cmd == "restart") {
      std::size_t s = 0;
      if (!(in >> s) || s >= children.size()) {
        std::printf("  usage: %s <shard < %zu>\n", cmd.c_str(),
                    children.size());
        continue;
      }
      reap(children[s]);
      std::printf("  shard %zu killed\n", s);
      if (cmd == "restart") {
        children[s] = spawn_shard(self, graph, s, children[s].range,
                                  threads, iters);
        router.update_target(
            s, hipa::shard::tcp_target("127.0.0.1", children[s].port,
                                       children[s].metrics_port));
        std::printf("  shard %zu respawned on :%d\n", s, children[s].port);
      }
    } else {
      std::printf("  commands: topk [k] | point <v> | status | kill <i> | "
                  "restart <i> | quit\n");
    }
  }

  router.stop();
  for (Child& c : children) reap(c);
  return 0;
}

void usage() {
  std::fputs(
      "usage: hipa-shardctl (--graph=FILE.hcsr | --demo) [--shards=N]\n"
      "                     [--threads=N] [--iters=N]\n"
      "       hipa-shardctl --serve --graph=FILE --shard-id=I "
      "--range=A:B\n"
      "                     [--port=P] [--metrics-port=P] [--threads=N]\n"
      "                     [--iters=N] [--notify-fd=FD]\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  bool serve = false;
  bool demo = false;
  ServeArgs sa;
  std::size_t shards = 2;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (hipa::cli::flag_is(arg, "--serve")) {
      serve = true;
    } else if (hipa::cli::flag_is(arg, "--demo")) {
      demo = true;
    } else if (const char* v = hipa::cli::flag_value(arg, "--graph=")) {
      sa.graph = v;
    } else if (const char* v2 = hipa::cli::flag_value(arg, "--shard-id=")) {
      sa.shard_id =
          static_cast<std::uint32_t>(hipa::cli::parse_u64("--shard-id", v2));
    } else if (const char* v3 = hipa::cli::flag_value(arg, "--range=")) {
      unsigned a = 0, b = 0;
      if (std::sscanf(v3, "%u:%u", &a, &b) != 2 || b <= a) {
        usage();
        return 2;
      }
      sa.range = VertexRange{a, b};
    } else if (const char* v4 = hipa::cli::flag_value(arg, "--port=")) {
      sa.port = std::atoi(v4);
    } else if (const char* v5 =
                   hipa::cli::flag_value(arg, "--metrics-port=")) {
      sa.metrics_port = std::atoi(v5);
    } else if (const char* v6 = hipa::cli::flag_value(arg, "--threads=")) {
      sa.threads =
          static_cast<unsigned>(hipa::cli::parse_positive("--threads", v6));
    } else if (const char* v7 = hipa::cli::flag_value(arg, "--iters=")) {
      sa.iters =
          static_cast<unsigned>(hipa::cli::parse_positive("--iters", v7));
    } else if (const char* v8 = hipa::cli::flag_value(arg, "--notify-fd=")) {
      sa.notify_fd = std::atoi(v8);
    } else if (const char* v9 = hipa::cli::flag_value(arg, "--shards=")) {
      shards = hipa::cli::parse_positive("--shards", v9);
    } else {
      usage();
      return 2;
    }
  }

  try {
    if (serve) {
      if (sa.graph.empty() || sa.range.size() == 0) {
        usage();
        return 2;
      }
      return run_serve(sa);
    }
    if (demo && sa.graph.empty()) {
      // Synthesize a small skewed graph so the quickstart needs no
      // dataset: 50k vertices, 400k edges, segmented at 256 KiB.
      hipa::graph::ZipfParams zp;
      zp.num_vertices = 50000;
      zp.num_edges = 400000;
      zp.seed = 42;
      const hipa::graph::Graph g = hipa::graph::build_graph(
          zp.num_vertices, hipa::graph::generate_zipf(zp));
      sa.graph = "/tmp/hipa-shardctl-demo.hcsr";
      hipa::graph::save_segmented_csr(sa.graph, g, 256u << 10);
      std::fprintf(stderr, "demo graph: %s (%u vertices)\n",
                   sa.graph.c_str(), zp.num_vertices);
    }
    if (sa.graph.empty()) {
      usage();
      return 2;
    }
    return run_launcher(argv[0], sa.graph, shards, sa.threads, sa.iters);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hipa-shardctl: %s\n", e.what());
    return 1;
  }
}
