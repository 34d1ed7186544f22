// Serving quickstart: compute → publish → query → update → refresh.
//
// The minimal end-to-end tour of the serve/ subsystem:
//   1. build a graph and a SnapshotStore sized to it,
//   2. publish the first snapshot (full HiPa run via UpdateRefresher),
//   3. answer point / batch / top-k queries through RankService,
//   4. push edge updates into the MPSC queue, refresh, and watch the
//      next epoch answer with fresh ranks.
#include <cstdio>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/updates.hpp"

int main() {
  using namespace hipa;

  // 1. A small web-hyperlink stand-in, flattened to an edge list (the
  //    refresher owns the evolving list).
  const graph::Graph g = graph::make_dataset("wiki", 64);
  const vid_t n = g.num_vertices();
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (vid_t v = 0; v < n; ++v) {
    for (vid_t u : g.out.neighbors(v)) edges.push_back(Edge{v, u});
  }
  std::printf("graph: %u pages, %zu links\n", n, edges.size());

  // 2. Store + refresher; the first publish is a full engine run.
  serve::SnapshotStore store(n);
  serve::UpdateQueue queue;
  serve::UpdateRefresher refresher(n, std::move(edges), store, queue);
  const std::uint64_t epoch0 = refresher.publish_initial();
  std::printf("published epoch %llu\n",
              static_cast<unsigned long long>(epoch0));

  // 3. Queries through the batched service (one pinned worker per
  //    NUMA node; every answer carries its snapshot epoch).
  serve::RankService service(store);
  const serve::QueryResult point = service.execute(serve::Query::point(0));
  std::printf("rank(page 0) = %.6f  [epoch %llu]\n", point.ranks[0],
              static_cast<unsigned long long>(point.epoch));

  const serve::QueryResult top = service.execute(serve::Query::top_k(5));
  std::printf("top-5:");
  for (const serve::TopKEntry& e : top.topk) {
    std::printf("  #%u=%.6f", e.vertex, e.rank);
  }
  std::printf("\n");

  // 4. The hottest page gains a few in-links; a small batch refreshes
  //    with a push warm-started from the published ranks and
  //    republishes.
  const vid_t star = top.topk.front().vertex;
  for (vid_t src = 1; src <= 3; ++src) {
    queue.push_add(Edge{src % n, star});
  }
  const serve::RefreshReport r = refresher.refresh_now();
  std::printf("refresh: %zu updates -> epoch %llu (%s, %u rounds)\n",
              r.updates_applied,
              static_cast<unsigned long long>(r.epoch),
              r.full_run ? "full run" : "delta", r.iterations);

  const serve::QueryResult after = service.execute(serve::Query::top_k(5));
  std::printf("top-5 now:");
  for (const serve::TopKEntry& e : after.topk) {
    std::printf("  #%u=%.6f", e.vertex, e.rank);
  }
  std::printf("\n");

  // Lifetime counters, read from the metrics registry.
  const serve::RankService::Stats stats = service.stats();
  std::printf("service: %llu requests",
              static_cast<unsigned long long>(stats.requests));
  for (const serve::QueryKind kind :
       {serve::QueryKind::kPoint, serve::QueryKind::kBatch,
        serve::QueryKind::kTopK}) {
    const serve::LatencySummary& l =
        stats.latency[static_cast<unsigned>(kind)];
    std::printf(", %s p99 %.1f us (%llu)",
                std::string(serve::query_kind_name(kind)).c_str(),
                l.p99_seconds * 1e6,
                static_cast<unsigned long long>(l.count));
  }
  std::printf("\n");
  return 0;
}
