// Engine correctness: every methodology (HiPa, p-PR, v-PR, GPOP,
// Polymer) must compute the same PageRank as the serial reference, on
// both the native and the simulated backend, across graph shapes and
// configurations. Also checks the NUMA behaviors the paper claims.
#include <gtest/gtest.h>

#include <vector>

#include "algos/pagerank.hpp"
#include "engines/pcpm_engine.hpp"
#include "engines/polymer_engine.hpp"
#include "engines/vpr_engine.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"

namespace hipa {
namespace {

using algo::Method;

graph::Graph test_graph(std::uint64_t seed, vid_t n = 2000,
                        eid_t m = 16000) {
  return graph::build_graph(
      n, graph::generate_zipf({.num_vertices = n, .num_edges = m,
                               .seed = seed}));
}

constexpr double kTolPerVertex = 1e-6;

void expect_close(const std::vector<rank_t>& got,
                  const std::vector<rank_t>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  const double d = algo::l1_distance(got, want);
  EXPECT_LT(d, kTolPerVertex * static_cast<double>(want.size())) << label;
}

// ---- parameterized: every method × both backends ---------------------------

class MethodCorrectness : public ::testing::TestWithParam<Method> {};

TEST_P(MethodCorrectness, SimMatchesReference) {
  const Method m = GetParam();
  const graph::Graph g = test_graph(77);
  const auto want = algo::pagerank_reference(g, 8);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  algo::MethodParams params;
  params.pr.iterations = 8;
  params.scale_denom = 64;
  const auto got = algo::run_method_sim(m, g, machine, params).ranks;
  expect_close(got, want, algo::method_name(m));
}

TEST_P(MethodCorrectness, NativeMatchesReference) {
  const Method m = GetParam();
  const graph::Graph g = test_graph(78);
  const auto want = algo::pagerank_reference(g, 8);
  algo::MethodParams params;
  params.pr.iterations = 8;
  params.scale_denom = 64;
  params.threads = 4;
  const auto got = algo::run_method_native(m, g, params).ranks;
  expect_close(got, want, algo::method_name(m));
}

TEST_P(MethodCorrectness, ReportsPlausibleStats) {
  const Method m = GetParam();
  const graph::Graph g = test_graph(79);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  algo::MethodParams params;
  params.pr.iterations = 4;
  params.scale_denom = 64;
  const auto report = algo::run_method_sim(m, g, machine, params).report;
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_GT(report.stats.total_cycles, 0u);
  EXPECT_GT(report.stats.loads, g.num_edges());  // at least one read/edge
  EXPECT_GT(report.stats.dram_bytes(), 0u);
  EXPECT_EQ(report.iterations, 4u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodCorrectness,
                         ::testing::ValuesIn(algo::all_methods().begin(),
                                             algo::all_methods().end()),
                         [](const auto& param_info) {
                           std::string name =
                               algo::method_name(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- configuration sweeps ---------------------------------------------------

class HipaConfigSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(HipaConfigSweep, CorrectAcrossThreadAndPartitionSizes) {
  const auto [threads, part_bytes] = GetParam();
  const graph::Graph g = test_graph(101, 1500, 12000);
  const auto want = algo::pagerank_reference(g, 6);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::hipa(threads, 2, part_bytes);
  engine::PcpmEngine<engine::SimBackend> eng(g, opt, backend);
  const auto got = eng.run({6, 0.85f}).ranks;
  expect_close(got, want, "hipa");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HipaConfigSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 40u),
                       ::testing::Values<std::uint64_t>(256, 1024, 16384)));

TEST(PcpmEngine, FcfsModeIsCorrect) {
  const graph::Graph g = test_graph(55);
  const auto want = algo::pagerank_reference(g, 5);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::ppr(8, 2, 2048);
  engine::PcpmEngine<engine::SimBackend> eng(g, opt, backend);
  const auto got = eng.run({5, 0.85f}).ranks;
  expect_close(got, want, "ppr-fcfs");
}

TEST(PcpmEngine, SinglePartitionGraph) {
  // Partition larger than the whole graph: one partition, still correct.
  const graph::Graph g = test_graph(56, 300, 2000);
  const auto want = algo::pagerank_reference(g, 5);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::hipa(4, 2, 1u << 22);
  engine::PcpmEngine<engine::SimBackend> eng(g, opt, backend);
  const auto got = eng.run({5, 0.85f}).ranks;
  expect_close(got, want, "one-partition");
}

TEST(PcpmEngine, DanglingVerticesHandled) {
  // Vertices with no out-edges must contribute nothing (paper Eq. 1).
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {3, 0}};
  // Vertex 4 is fully isolated; vertex 3 has out- but no in-edges.
  const graph::Graph g = graph::build_graph(5, edges);
  const auto want = algo::pagerank_reference(g, 10);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::hipa(2, 2, 8);
  engine::PcpmEngine<engine::SimBackend> eng(g, opt, backend);
  const auto got = eng.run({10, 0.85f}).ranks;
  expect_close(got, want, "dangling");
}

TEST(PcpmEngine, ZeroIterationsKeepsInitialRanks) {
  const graph::Graph g = test_graph(57, 100, 500);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::hipa(2, 2, 64);
  engine::PcpmEngine<engine::SimBackend> eng(g, opt, backend);
  const auto got = eng.run({0, 0.85f}).ranks;
  for (rank_t r : got) EXPECT_FLOAT_EQ(r, 0.01f);
}

// ---- golden ranks ----------------------------------------------------------

// HiPa on the simulated testbed against the sequential reference, on
// the three generator families the datasets stand in for.
std::vector<rank_t> run_hipa(const graph::Graph& g, std::uint64_t part_bytes) {
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::hipa(8, 2, part_bytes);
  engine::PcpmEngine<engine::SimBackend> eng(g, opt, backend);
  return eng.run({8, 0.85f}).ranks;
}

TEST(PcpmGolden, RanksMatchReferenceOnRmat) {
  const auto edges = graph::generate_rmat(
      {.scale = 11, .edge_factor = 8, .seed = 7});
  const graph::Graph g = graph::build_graph(1u << 11, edges);
  expect_close(run_hipa(g, 1024), algo::pagerank_reference(g, 8),
               "rmat vs reference");
}

TEST(PcpmGolden, RanksMatchReferenceOnErdosRenyi) {
  const auto edges = graph::generate_erdos_renyi(3000, 24000, 11);
  const graph::Graph g = graph::build_graph(3000, edges);
  expect_close(run_hipa(g, 2048), algo::pagerank_reference(g, 8),
               "erdos-renyi vs reference");
}

TEST(PcpmGolden, RanksMatchReferenceOnZipf) {
  const graph::Graph g = test_graph(404, 4000, 32000);
  expect_close(run_hipa(g, 4096), algo::pagerank_reference(g, 8),
               "zipf vs reference");
}

TEST(PcpmGolden, PartitionOver32KVerticesMatchesReference) {
  // One partition spanning > 2^15 vertices, the regime of the paper's
  // 256 KB partitions (2^16 vertices of 4 B ranks).
  const vid_t n = (vid_t{1} << 15) + 500;
  const graph::Graph g = graph::build_graph(
      n, graph::generate_zipf({.num_vertices = n, .num_edges = 80000,
                               .seed = 9}));
  expect_close(run_hipa(g, std::uint64_t{n} * sizeof(rank_t)),
               algo::pagerank_reference(g, 8), "large partition");
}

// A relabelled graph (vertex ids reversed, so hubs move to the other end
// of the id space) ranks the same: its ranks map back to the original
// ids.
TEST(ReorderEncoding, WideFallbackRoundTrips) {
  constexpr vid_t n = 2048;
  const auto edges =
      graph::generate_zipf({.num_vertices = n, .num_edges = 16384, .seed = 5});
  std::vector<vid_t> perm(n);
  for (vid_t v = 0; v < n; ++v) perm[v] = n - 1 - v;
  std::vector<Edge> relabelled;
  relabelled.reserve(edges.size());
  for (const Edge& e : edges) relabelled.push_back({perm[e.src], perm[e.dst]});
  const graph::Graph g = graph::build_graph(n, edges);
  const graph::Graph permuted = graph::build_graph(n, relabelled);

  engine::PageRankOptions pr;
  pr.iterations = 3;
  auto run = [&](const graph::Graph& graph) {
    engine::NativeBackend backend;
    engine::PcpmOptions opt = engine::PcpmOptions::hipa(2, 1, 64 * 1024);
    engine::PcpmEngine<engine::NativeBackend> eng(graph, opt, backend);
    return eng.run(pr);
  };

  const auto base = run(g);
  const auto relabelled_run = run(permuted);

  // Round trip: map the relabelled run's ranks back to original vertex
  // ids and compare with the unrelabelled run.
  std::vector<rank_t> unperm(relabelled_run.ranks.size());
  for (vid_t v = 0; v < static_cast<vid_t>(unperm.size()); ++v) {
    unperm[v] = relabelled_run.ranks[perm[v]];
  }
  EXPECT_LT(algo::l1_distance(base.ranks, unperm), 1e-3);
}

// ---- the paper's NUMA claims ------------------------------------------------

TEST(NumaBehavior, HipaKeepsTrafficMostlyLocal) {
  const graph::Graph g = test_graph(200, 20000, 200000);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  algo::MethodParams params;
  params.pr.iterations = 3;
  params.scale_denom = 64;
  const auto hipa = algo::run_method_sim(Method::kHipa, g, machine, params).report;
  // Paper §4.4: ~85% of HiPa's traffic stays node-local.
  EXPECT_LT(hipa.stats.remote_fraction(), 0.35);
}

TEST(NumaBehavior, ObliviousPprIsHalfRemote) {
  const graph::Graph g = test_graph(200, 20000, 200000);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  algo::MethodParams params;
  params.pr.iterations = 3;
  params.scale_denom = 64;
  const auto ppr = algo::run_method_sim(Method::kPpr, g, machine, params).report;
  // Interleaved data on 2 nodes: ~50% remote (paper Fig. 5: 48.9%).
  EXPECT_GT(ppr.stats.remote_fraction(), 0.35);
  EXPECT_LT(ppr.stats.remote_fraction(), 0.65);
}

TEST(NumaBehavior, HipaBeatsPprOnRemoteAccesses) {
  const graph::Graph g = test_graph(201, 20000, 200000);
  sim::SimMachine m1(sim::Topology::skylake_2s().scaled(64));
  sim::SimMachine m2(sim::Topology::skylake_2s().scaled(64));
  algo::MethodParams params;
  params.pr.iterations = 3;
  params.scale_denom = 64;
  const auto hipa = algo::run_method_sim(Method::kHipa, g, m1, params).report;
  const auto ppr = algo::run_method_sim(Method::kPpr, g, m2, params).report;
  // Paper: 1.87x-3.90x fewer remote accesses than the best alternative.
  EXPECT_LT(hipa.stats.dram_remote_bytes, ppr.stats.dram_remote_bytes);
}

TEST(NumaBehavior, PersistentThreadsMigrateLessThanPerPhase) {
  const graph::Graph g = test_graph(202, 5000, 40000);
  sim::SimMachine m1(sim::Topology::skylake_2s().scaled(64));
  algo::MethodParams params;
  params.pr.iterations = 10;
  params.scale_denom = 64;
  const auto hipa = algo::run_method_sim(Method::kHipa, g, m1, params).report;
  // Algorithm 2: creations bounded by team size, not iterations.
  EXPECT_LE(hipa.stats.thread_creations, 40u);
  EXPECT_LE(hipa.stats.thread_migrations, 40u);

  sim::SimMachine m2(sim::Topology::skylake_2s().scaled(64));
  const auto ppr = algo::run_method_sim(Method::kPpr, g, m2, params).report;
  // Algorithm 1: a fresh team per phase.
  EXPECT_GT(ppr.stats.thread_creations, hipa.stats.thread_creations * 5);
}

TEST(NumaBehavior, VertexCentricMovesMoreBytesThanPartitionCentric) {
  // Sized so the contribution vector (4·V bytes) clearly exceeds the
  // scaled LLC — otherwise v-PR's random pulls would all hit in cache
  // and mask the effect the paper measures.
  const graph::Graph g = test_graph(203, 150000, 1200000);
  sim::SimMachine m1(sim::Topology::skylake_2s().scaled(64));
  sim::SimMachine m2(sim::Topology::skylake_2s().scaled(64));
  algo::MethodParams params;
  params.pr.iterations = 3;
  params.scale_denom = 64;
  const auto hipa = algo::run_method_sim(Method::kHipa, g, m1, params).report;
  const auto vpr = algo::run_method_sim(Method::kVpr, g, m2, params).report;
  // Paper Fig. 5: partition-centric MApE ~9.6 vs v-PR ~47.
  EXPECT_LT(hipa.stats.mape(g.num_edges()) * 1.5,
            vpr.stats.mape(g.num_edges()));
}

// ---- engine-level unit behavior --------------------------------------------

TEST(VprEngine, NativeAndSimAgree) {
  const graph::Graph g = test_graph(301, 800, 6000);
  algo::MethodParams params;
  params.pr.iterations = 7;
  params.threads = 3;
  const auto native_ranks =
      algo::run_method_native(Method::kVpr, g, params).ranks;
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  const auto sim_ranks =
      algo::run_method_sim(Method::kVpr, g, machine, params).ranks;
  expect_close(native_ranks, sim_ranks, "vpr native-vs-sim");
}

TEST(PolymerEngine, WorksWithUnevenThreadSplit) {
  const graph::Graph g = test_graph(302, 900, 7000);
  const auto want = algo::pagerank_reference(g, 6);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  engine::PolymerOptions opt;
  opt.num_threads = 5;  // 3 + 2 across two nodes
  opt.num_nodes = 2;
  engine::PolymerEngine<engine::SimBackend> eng(g, opt, backend);
  const auto got = eng.run({6, 0.85f}).ranks;
  expect_close(got, want, "polymer-uneven");
}

TEST(Report, PreprocessingTimeIsTracked) {
  const graph::Graph g = test_graph(303, 3000, 30000);
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::hipa(8, 2, 1024);
  engine::PcpmEngine<engine::SimBackend> eng(g, opt, backend);
  EXPECT_GT(eng.preprocessing_seconds(), 0.0);
  const auto report = eng.run({2, 0.85f}).report;
  EXPECT_EQ(report.preprocessing_seconds, eng.preprocessing_seconds());
  EXPECT_GT(report.seconds, 0.0);
}

}  // namespace
}  // namespace hipa
