// Cross-module integration tests: engines on a hub-first id layout,
// datasets + engines, sim cost-model behaviors the benches rely on, and
// end-to-end agreement between backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "algos/pagerank.hpp"
#include "algos/spmv.hpp"
#include "engines/pcpm_engine.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"

namespace hipa {
namespace {

using algo::Method;

TEST(Integration, HipaOnReorderedGraphStillCorrect) {
  const graph::Graph g = graph::build_graph(
      1500, graph::generate_zipf({.num_vertices = 1500,
                                  .num_edges = 12000,
                                  .seed = 32}));
  // Relabel ids in descending out-degree order (stable), so the hubs
  // sit at the front of the id space and crowd the first partitions.
  std::vector<vid_t> by_degree(g.num_vertices());
  std::iota(by_degree.begin(), by_degree.end(), vid_t{0});
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](vid_t a, vid_t b) {
    return g.out.degree(a) > g.out.degree(b);
  });
  std::vector<vid_t> new_id(g.num_vertices());
  for (vid_t i = 0; i < g.num_vertices(); ++i) new_id[by_degree[i]] = i;
  std::vector<Edge> edges;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (vid_t u : g.out.neighbors(v)) {
      edges.push_back(Edge{new_id[v], new_id[u]});
    }
  }
  const graph::Graph h = graph::build_graph(g.num_vertices(), edges);
  const auto want = algo::pagerank_reference(h, 8);

  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  algo::MethodParams params;
  params.pr.iterations = 8;
  params.scale_denom = 64;
  const auto got = algo::run_method_sim(Method::kHipa, h, machine, params).ranks;
  EXPECT_LT(algo::l1_distance(got, want), 1e-6 * 1500);
}

TEST(Integration, AllDatasetStandInsRunHipa) {
  for (const auto& info : graph::paper_datasets()) {
    const graph::Graph g = graph::make_tiny_dataset(info.name);
    const auto want = algo::pagerank_reference(g, 4);
    sim::SimMachine machine(sim::Topology::skylake_2s().scaled(256));
    algo::MethodParams params;
    params.pr.iterations = 4;
    params.scale_denom = 256;
    const auto got =
        algo::run_method_sim(Method::kHipa, g, machine, params).ranks;
    EXPECT_LT(algo::l1_distance(got, want), 1e-6 * g.num_vertices())
        << info.name;
  }
}

TEST(Integration, SimIsDeterministicAfterReset) {
  // Determinism is per address layout: with the same buffers, a reset
  // machine must replay a run cycle-for-cycle (this is what makes the
  // bench results reproducible within a process).
  const graph::Graph g = graph::build_graph(
      5000, graph::generate_zipf({.num_vertices = 5000,
                                  .num_edges = 40000,
                                  .seed = 33}));
  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64), {}, 9);
  engine::SimBackend backend(machine);
  auto opt = engine::PcpmOptions::ppr(16, 2, 1024);
  engine::PcpmEngine<engine::SimBackend> eng(g, opt, backend);
  const auto a = eng.run({3, 0.85f}).report;
  machine.reset();
  const auto b = eng.run({3, 0.85f}).report;
  EXPECT_EQ(a.stats.total_cycles, b.stats.total_cycles);
  EXPECT_EQ(a.stats.dram_bytes(), b.stats.dram_bytes());
  EXPECT_EQ(a.stats.llc_hits, b.stats.llc_hits);
}

TEST(Integration, StreamsCostLessThanRandomAccess) {
  // Same byte volume, touched sequentially vs line-strided randomly:
  // the prefetch-aware model must price the stream far lower.
  const std::size_t n = 1u << 20;
  AlignedBuffer<float> data(n);
  auto run = [&](bool streamed) {
    sim::SimMachine machine(sim::Topology::skylake_2s());
    machine.numa().register_range(data.data(), n * sizeof(float),
                                  sim::Placement::kNode, 0);
    sim::PlacementVec placement{machine.topology().lcid_of(0, 0, 0)};
    machine.run_phase(placement, [&](unsigned, sim::SimMem& mem) {
      if (streamed) {
        mem.stream_read(data.data(), n);
      } else {
        // One access per line, shuffled order.
        Xoshiro256 rng(3);
        for (std::size_t i = 0; i < n / 16; ++i) {
          const std::size_t line = rng.bounded(n / 16);
          (void)mem.load(data.data() + line * 16);
        }
      }
    });
    return machine.stats().total_cycles;
  };
  EXPECT_LT(run(true) * 3, run(false));
}

TEST(Integration, CostModelOverridesChangeTiming) {
  const graph::Graph g = graph::build_graph(
      2000, graph::generate_zipf({.num_vertices = 2000,
                                  .num_edges = 16000,
                                  .seed = 34}));
  auto run = [&](const sim::CostModel& cost) {
    sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64), cost);
    algo::MethodParams params;
    params.pr.iterations = 3;
    params.scale_denom = 64;
    return algo::run_method_sim(Method::kHipa, g, machine, params)
        .report.seconds;
  };
  sim::CostModel slow;
  slow.dram_local = 800;
  slow.dram_remote = 2000;
  EXPECT_GT(run(slow), run(sim::CostModel{}));
}

TEST(Integration, HaswellTopologyRunsEverything) {
  const graph::Graph g = graph::build_graph(
      3000, graph::generate_zipf({.num_vertices = 3000,
                                  .num_edges = 24000,
                                  .seed = 35}));
  const auto want = algo::pagerank_reference(g, 5);
  for (Method m : algo::all_methods()) {
    sim::SimMachine machine(sim::Topology::haswell_2s().scaled(64));
    algo::MethodParams params;
    params.pr.iterations = 5;
    params.scale_denom = 64;
    params.threads = algo::default_threads(m, machine.topology());
    const auto got = algo::run_method_sim(m, g, machine, params).ranks;
    EXPECT_LT(algo::l1_distance(got, want), 1e-6 * 3000)
        << algo::method_name(m);
  }
}

TEST(Integration, SingleNodeTopologyWorks) {
  const graph::Graph g = graph::build_graph(
      2000, graph::generate_zipf({.num_vertices = 2000,
                                  .num_edges = 16000,
                                  .seed = 36}));
  const auto want = algo::pagerank_reference(g, 5);
  sim::SimMachine machine(sim::Topology::skylake_1s().scaled(64));
  algo::MethodParams params;
  params.pr.iterations = 5;
  params.scale_denom = 64;
  params.threads = 20;
  const auto got =
      algo::run_method_sim(Method::kHipa, g, machine, params).ranks;
  EXPECT_LT(algo::l1_distance(got, want), 1e-6 * 2000);
  // Single node: all traffic is local by construction.
  // (run again to grab the report)
  sim::SimMachine m2(sim::Topology::skylake_1s().scaled(64));
  const auto report =
      algo::run_method_sim(Method::kHipa, g, m2, params).report;
  EXPECT_EQ(report.stats.dram_remote_bytes, 0u);
}

TEST(Integration, SpmvAgreesAcrossBackends) {
  const graph::Graph g = graph::build_graph(
      2500, graph::generate_zipf({.num_vertices = 2500,
                                  .num_edges = 20000,
                                  .seed = 37}));
  std::vector<rank_t> x(g.num_vertices());
  Xoshiro256 rng(8);
  for (auto& v : x) v = static_cast<rank_t>(rng.uniform());

  engine::NativeBackend native;
  auto opt = engine::PcpmOptions::hipa(4, 1, 2048);
  engine::PcpmEngine<engine::NativeBackend> native_eng(g, opt, native);
  std::vector<rank_t> y_native;
  native_eng.run_spmv(x, y_native);

  sim::SimMachine machine(sim::Topology::skylake_2s().scaled(64));
  engine::SimBackend simb(machine);
  auto opt2 = engine::PcpmOptions::hipa(8, 2, 2048);
  engine::PcpmEngine<engine::SimBackend> sim_eng(g, opt2, simb);
  std::vector<rank_t> y_sim;
  sim_eng.run_spmv(x, y_sim);

  EXPECT_LT(algo::linf_distance(y_native, y_sim), 1e-4);
}

TEST(Integration, FasterMethodMovesFewerOrCheaperBytes) {
  // Sanity link between the two headline metrics: on a big skewed
  // graph, HiPa must beat v-PR on time AND on local-byte share.
  const graph::Graph g = graph::build_graph(
      60000, graph::generate_zipf({.num_vertices = 60000,
                                   .num_edges = 500000,
                                   .seed = 38}));
  algo::MethodParams params;
  params.pr.iterations = 3;
  params.scale_denom = 64;
  sim::SimMachine m1(sim::Topology::skylake_2s().scaled(64));
  sim::SimMachine m2(sim::Topology::skylake_2s().scaled(64));
  const auto hipa =
      algo::run_method_sim(Method::kHipa, g, m1, params).report;
  const auto vpr = algo::run_method_sim(Method::kVpr, g, m2, params).report;
  EXPECT_LT(hipa.seconds, vpr.seconds);
  EXPECT_LT(hipa.stats.remote_fraction(), vpr.stats.remote_fraction());
}

}  // namespace
}  // namespace hipa
