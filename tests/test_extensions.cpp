// Tests for the paper's §6 extension algorithms: SpMV, PageRank-Delta
// and BFS under the HiPa methodology, on both backends.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "algos/bfs.hpp"
#include "algos/pagerank.hpp"
#include "algos/pagerank_delta.hpp"
#include "algos/spmv.hpp"
#include "algos/wcc.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace hipa::algo {
namespace {

graph::Graph test_graph(std::uint64_t seed, vid_t n = 3000,
                        eid_t m = 24000) {
  return graph::build_graph(
      n, graph::generate_zipf({.num_vertices = n, .num_edges = m,
                               .seed = seed}));
}

// ---- SpMV -------------------------------------------------------------------

TEST(Spmv, ReferenceOnTinyGraph) {
  const graph::Graph g = graph::build_graph(3, {{0, 2}, {1, 2}, {2, 0}});
  const std::vector<rank_t> x = {1.0f, 2.0f, 4.0f};
  const auto y = spmv_reference(g, x);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 3.0f);
}

class SpmvEngine : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpmvEngine, HipaMatchesReferenceSim) {
  const std::uint64_t part_bytes = GetParam();
  const graph::Graph g = test_graph(401);
  std::vector<rank_t> x(g.num_vertices());
  Xoshiro256 rng(5);
  for (auto& v : x) v = static_cast<rank_t>(rng.uniform());
  const auto want = spmv_reference(g, x);

  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::hipa(8, 2, part_bytes);
  engine::PcpmEngine<engine::SimBackend> eng(g, opt, backend);
  std::vector<rank_t> y;
  const auto report = eng.run_spmv(x, y);
  ASSERT_EQ(y.size(), want.size());
  EXPECT_LT(linf_distance(y, want), 1e-4);
  EXPECT_GT(report.stats.total_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(PartitionSizes, SpmvEngine,
                         ::testing::Values<std::uint64_t>(256, 4096,
                                                          1u << 22));

TEST(Spmv, HipaMatchesReferenceNative) {
  const graph::Graph g = test_graph(402);
  std::vector<rank_t> x(g.num_vertices(), 1.0f);
  const auto want = spmv_reference(g, x);
  engine::NativeBackend backend;
  auto opt = engine::PcpmOptions::hipa(4, 1, 2048);
  engine::PcpmEngine<engine::NativeBackend> eng(g, opt, backend);
  std::vector<rank_t> y;
  eng.run_spmv(x, y);
  EXPECT_LT(linf_distance(y, want), 1e-4);
}

TEST(Spmv, AllOnesCountsInDegrees) {
  const graph::Graph g = test_graph(403, 500, 4000);
  std::vector<rank_t> ones(g.num_vertices(), 1.0f);
  const auto y = spmv_reference(g, ones);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FLOAT_EQ(y[v], static_cast<rank_t>(g.in.degree(v)));
  }
}

// ---- PageRank-Delta ---------------------------------------------------------

TEST(Delta, ReferenceConvergesToPlainPagerank) {
  const graph::Graph g = test_graph(411, 800, 6400);
  DeltaOptions opt;
  opt.epsilon = 1e-4;
  opt.max_iterations = 200;
  const auto delta = pagerank_delta_reference(g, opt);
  const auto plain = pagerank_reference(g, 60);
  EXPECT_LT(delta.iterations, 200u);  // converged, not exhausted
  EXPECT_LT(l1_distance(delta.ranks, plain), 1e-2);
}

TEST(Delta, ParallelMatchesReferenceSim) {
  const graph::Graph g = test_graph(412, 1000, 8000);
  DeltaOptions opt;
  opt.epsilon = 1e-4;
  opt.threads = 8;
  opt.num_nodes = 2;
  opt.partition_bytes = 1024;
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  const auto got = pagerank_delta(g, opt, backend);
  const auto plain = pagerank_reference(g, 60);
  EXPECT_LT(l1_distance(got.ranks, plain), 1e-2);
  EXPECT_GT(got.total_pushes, 0u);
}

TEST(Delta, ParallelMatchesReferenceNative) {
  const graph::Graph g = test_graph(413, 1000, 8000);
  DeltaOptions opt;
  opt.epsilon = 1e-4;
  opt.threads = 4;
  engine::NativeBackend backend;
  const auto got = pagerank_delta(g, opt, backend);
  const auto plain = pagerank_reference(g, 60);
  EXPECT_LT(l1_distance(got.ranks, plain), 1e-2);
}

TEST(Delta, LooserEpsilonDoesLessWork) {
  const graph::Graph g = test_graph(414, 1500, 12000);
  DeltaOptions tight;
  tight.epsilon = 1e-5;
  DeltaOptions loose;
  loose.epsilon = 1e-1;
  const auto a = pagerank_delta_reference(g, tight);
  const auto b = pagerank_delta_reference(g, loose);
  EXPECT_GT(a.total_pushes, b.total_pushes);
  EXPECT_GE(a.iterations, b.iterations);
}

TEST(Delta, RankMassApproximatelyConserved) {
  // All vertices have out-edges => total rank ~= 1 at convergence.
  const graph::Graph g = graph::build_graph(
      4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}});
  DeltaOptions opt;
  opt.epsilon = 1e-6;
  opt.max_iterations = 500;
  const auto r = pagerank_delta_reference(g, opt);
  const double total =
      std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-3);
}

// ---- BFS --------------------------------------------------------------------

TEST(Bfs, ReferenceOnPath) {
  const graph::Graph g =
      graph::build_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto r = bfs_reference(g, 0);
  EXPECT_EQ(r.distance[0], 0u);
  EXPECT_EQ(r.distance[3], 3u);
  EXPECT_EQ(r.levels, 3u);
  EXPECT_EQ(r.reached, 4u);
}

TEST(Bfs, UnreachableVerticesStayUnreached) {
  const graph::Graph g = graph::build_graph(4, {{0, 1}, {2, 3}});
  const auto r = bfs_reference(g, 0);
  EXPECT_EQ(r.distance[2], kUnreached);
  EXPECT_EQ(r.distance[3], kUnreached);
  EXPECT_EQ(r.reached, 2u);
}

class BfsBackends : public ::testing::TestWithParam<unsigned> {};

TEST_P(BfsBackends, ParallelMatchesReferenceSim) {
  const unsigned threads = GetParam();
  const graph::Graph g = test_graph(421, 2000, 10000);
  const auto want = bfs_reference(g, 0);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  BfsOptions opt;
  opt.threads = threads;
  opt.num_nodes = 2;
  opt.partition_bytes = 1024;
  const auto got = bfs(g, 0, opt, backend);
  EXPECT_EQ(got.distance, want.distance);
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.reached, want.reached);
}

INSTANTIATE_TEST_SUITE_P(Threads, BfsBackends,
                         ::testing::Values(1u, 3u, 16u));

TEST(Bfs, ParallelMatchesReferenceNative) {
  const graph::Graph g = test_graph(422, 2000, 10000);
  const auto want = bfs_reference(g, 7);
  engine::NativeBackend backend;
  BfsOptions opt;
  opt.threads = 4;
  const auto got = bfs(g, 7, opt, backend);
  EXPECT_EQ(got.distance, want.distance);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const graph::Graph g = graph::build_graph(2, {{0, 1}});
  EXPECT_THROW(bfs_reference(g, 5), Error);
}


// ---- WCC --------------------------------------------------------------------

TEST(Wcc, ReferenceOnTwoComponents) {
  const graph::Graph g =
      graph::build_graph(5, {{0, 1}, {1, 2}, {3, 4}});
  const auto labels = wcc_reference(g);
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[1], 0u);
  EXPECT_EQ(labels[2], 0u);
  EXPECT_EQ(labels[3], 3u);
  EXPECT_EQ(labels[4], 3u);
  EXPECT_EQ(count_components(labels), 2u);
}

TEST(Wcc, DirectionIgnored) {
  // 2 -> 0 only; weak connectivity joins them anyway.
  const graph::Graph g = graph::build_graph(3, {{2, 0}});
  const auto labels = wcc_reference(g);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(count_components(labels), 2u);  // {0,2} and {1}
}

TEST(Wcc, HipaMatchesReferenceSim) {
  const graph::Graph g = test_graph(431, 2000, 6000);
  const auto want = wcc_reference(g);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::hipa(8, 2, 1024);
  unsigned rounds = 0;
  const auto got = wcc(g, opt, backend, &rounds);
  EXPECT_EQ(got, want);
  EXPECT_GT(rounds, 0u);
}

TEST(Wcc, HipaMatchesReferenceNative) {
  const graph::Graph g = test_graph(432, 1500, 4000);
  const auto want = wcc_reference(g);
  engine::NativeBackend backend;
  auto opt = engine::PcpmOptions::hipa(4, 1, 2048);
  EXPECT_EQ(wcc(g, opt, backend), want);
}

TEST(Wcc, SingletonVerticesKeepOwnLabel) {
  const graph::Graph g = graph::build_graph(4, {{0, 1}});
  engine::NativeBackend backend;
  auto opt = engine::PcpmOptions::hipa(2, 1, 16);
  const auto labels = wcc(g, opt, backend);
  EXPECT_EQ(labels[2], 2u);
  EXPECT_EQ(labels[3], 3u);
  EXPECT_EQ(count_components(labels), 3u);
}

}  // namespace
}  // namespace hipa::algo
