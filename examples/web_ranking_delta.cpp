// Incremental web ranking through the serving layer (paper §6
// extension): live link updates flow through the MPSC UpdateQueue into
// the background refresh cycle — small bursts are absorbed by a push
// warm-started from the published ranks (only the mass downstream of
// the changed links moves), a big recrawl batch triggers a full exact
// HiPa run — and every refresh atomically republishes the next snapshot
// epoch while queries keep reading the previous one.
//
// The second half keeps the original convergence lesson with the cold
// PageRank-Delta solver: its epsilon trades edge pushes against L1
// error relative to the fixed-iteration baseline.
#include <cstdio>
#include <random>
#include <utility>
#include <vector>

#include "algos/pagerank.hpp"
#include "algos/pagerank_delta.hpp"
#include "graph/datasets.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "serve/updates.hpp"

int main() {
  using namespace hipa;

  std::printf("building the web-hyperlink stand-in...\n");
  const graph::Graph g = graph::make_dataset("wiki", 128);
  const vid_t n = g.num_vertices();
  std::printf("graph: %u pages, %llu links\n\n", n,
              static_cast<unsigned long long>(g.num_edges()));

  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (vid_t v = 0; v < n; ++v) {
    for (vid_t u : g.out.neighbors(v)) edges.push_back(Edge{v, u});
  }

  // ---- Live updates: queue -> delta refresh -> republish ----------
  serve::SnapshotStore store(n);
  serve::UpdateQueue queue;
  serve::RefreshOptions ropt;
  ropt.small_batch_max = 64;  // bursts <= 64 edges take the delta path
  ropt.delta.epsilon = 1e-3;
  ropt.full.pr.iterations = 30;
  serve::UpdateRefresher refresher(n, std::move(edges), store, queue,
                                   ropt);
  refresher.publish_initial();
  std::printf("epoch %llu published (full run over the crawl).\n\n",
              static_cast<unsigned long long>(store.epoch()));

  const auto show_top = [&](const char* when) {
    const serve::SnapshotRef snap = store.current();
    const auto top = serve::topk_query(*snap, serve::TopKQuery{.k = 3});
    std::printf("  top pages %s:", when);
    for (const auto& e : top) {
      std::printf("  #%u (%.3e)", e.vertex, e.rank);
    }
    std::printf("   [epoch %llu]\n",
                static_cast<unsigned long long>(snap->epoch()));
  };
  show_top("at launch   ");

  std::printf("\nlive link churn (each burst -> one refresh cycle):\n");
  std::printf("%-18s %8s %8s %7s %8s\n", "burst", "applied", "path",
              "rounds", "seconds");
  std::mt19937 rng(7);
  std::uniform_int_distribution<vid_t> pick(0, n - 1);
  const std::pair<const char*, unsigned> bursts[] = {
      {"8 new links", 8},
      {"40 new links", 40},
      {"recrawl: 5000", 5000},  // > small_batch_max: exact full run
  };
  for (const auto& [label, count] : bursts) {
    for (unsigned i = 0; i < count; ++i) {
      queue.push_add(Edge{pick(rng), pick(rng)});
    }
    const serve::RefreshReport r = refresher.refresh_now();
    std::printf("%-18s %8zu %8s %7u %8.3f\n", label, r.updates_applied,
                r.full_run ? "full" : "delta", r.iterations, r.seconds);
  }
  show_top("after churn ");
  std::printf("  (%llu delta refreshes, %llu full; readers kept the "
              "previous epoch\n   for the whole recompute — publish is "
              "one atomic swap)\n",
              static_cast<unsigned long long>(refresher.delta_refreshes()),
              static_cast<unsigned long long>(refresher.full_refreshes()));

  // ---- Convergence/work tradeoff of the delta path ----------------
  const graph::Graph& live = refresher.graph();
  std::printf("\ndelta epsilon vs fixed 30-iteration PageRank on the "
              "live graph:\n");
  const auto plain = algo::pagerank_reference(live, 30);
  const std::uint64_t plain_work = 30ull * live.num_edges();

  std::printf("%-12s %10s %12s %14s %12s\n", "epsilon", "rounds",
              "edge pushes", "vs plain work", "L1 error");
  for (const double eps : {1e-1, 1e-2, 1e-3, 1e-4}) {
    algo::DeltaOptions opt;
    opt.epsilon = eps;
    opt.max_iterations = 200;
    opt.threads = 4;
    engine::NativeBackend backend;
    const auto r = algo::pagerank_delta(live, opt, backend);
    std::printf("%-12.0e %10u %12llu %13.1f%% %12.2e\n", eps,
                r.iterations,
                static_cast<unsigned long long>(r.total_pushes),
                100.0 * static_cast<double>(r.total_pushes) /
                    static_cast<double>(plain_work),
                algo::l1_distance(r.ranks, plain));
  }
  std::printf("\n(tighter epsilon -> more pushes, smaller error; even "
              "1e-4 needs a fraction\n of the fixed-iteration edge "
              "traversals — which is why small update bursts\n refresh "
              "with delta and only a recrawl pays for the full run)\n");
  return 0;
}
