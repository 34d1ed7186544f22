// Tests for the kernel-generic run<K>() API (engines/kernels.hpp):
// per-kernel oracle checks on three generator families, bitwise
// identity between the PageRank-only facade and run<PageRankKernel>,
// active-partition scatter skipping, phase-dispatch vs run_loop
// equivalence, and the serving layer's kernel-routed refresh.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "algos/wcc.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/snapshot.hpp"
#include "serve/updates.hpp"
#include "sim/machine.hpp"

namespace hipa::algo {
namespace {

constexpr double kTolPerVertex = 1e-6;

// ---- generator families -----------------------------------------------------

// Small instances of the three generator families the engine suite
// exercises: skewed web-like (Zipf), Kronecker (R-MAT) and uniform
// (Erdős–Rényi). One fixture value per family.
enum class Family { kZipf, kRmat, kEr };

const char* family_name(Family f) {
  switch (f) {
    case Family::kZipf: return "zipf";
    case Family::kRmat: return "rmat";
    case Family::kEr: return "er";
  }
  return "?";
}

graph::Graph family_graph(Family f, std::uint64_t seed) {
  switch (f) {
    case Family::kZipf:
      return graph::build_graph(
          2000, graph::generate_zipf({.num_vertices = 2000,
                                      .num_edges = 16000,
                                      .seed = seed}));
    case Family::kRmat: {
      graph::RmatParams p;
      p.scale = 11;       // 2048 vertices
      p.edge_factor = 8;  // 16K edges
      p.seed = seed;
      return graph::build_graph(vid_t{1} << p.scale, graph::generate_rmat(p));
    }
    case Family::kEr:
      return graph::build_graph(
          2000, graph::generate_erdos_renyi(2000, 12000, seed));
  }
  HIPA_CHECK(false, "bad family");
  __builtin_unreachable();
}

/// A source that actually reaches something: the max-out-degree vertex.
vid_t busiest_source(const graph::Graph& g) {
  vid_t best = 0;
  for (vid_t v = 1; v < g.num_vertices(); ++v) {
    if (g.out.degree(v) > g.out.degree(best)) best = v;
  }
  return best;
}

sim::SimMachine make_machine() {
  return sim::SimMachine(sim::Topology::skylake_2s().scaled(64));
}

class KernelOracles : public ::testing::TestWithParam<Family> {};

// ---- BFS --------------------------------------------------------------------

TEST_P(KernelOracles, BfsMatchesReferenceSim) {
  const graph::Graph g = family_graph(GetParam(), 901);
  const vid_t src = busiest_source(g);
  const BfsResult want = bfs_reference(g, src);

  sim::SimMachine machine = make_machine();
  engine::SimBackend backend(machine);
  const BfsResult got =
      bfs(g, src, BfsOptions{.threads = 8, .num_nodes = 2,
                             .partition_bytes = 2048},
          backend);
  ASSERT_EQ(got.distance.size(), want.distance.size());
  EXPECT_EQ(got.distance, want.distance) << family_name(GetParam());
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.reached, want.reached);
}

TEST_P(KernelOracles, BfsMatchesReferenceNative) {
  const graph::Graph g = family_graph(GetParam(), 902);
  const vid_t src = busiest_source(g);
  const BfsResult want = bfs_reference(g, src);
  engine::NativeBackend backend;
  const BfsResult got = bfs(g, src, BfsOptions{.threads = 4}, backend);
  EXPECT_EQ(got.distance, want.distance) << family_name(GetParam());
}

// ---- WCC --------------------------------------------------------------------

TEST_P(KernelOracles, WccMatchesReferenceSim) {
  const graph::Graph g = family_graph(GetParam(), 903);
  const std::vector<vid_t> want = wcc_reference(g);

  sim::SimMachine machine = make_machine();
  engine::SimBackend backend(machine);
  const auto opt = engine::PcpmOptions::hipa(8, 2, 2048);
  unsigned rounds = 0;
  const std::vector<vid_t> got = wcc(g, opt, backend, &rounds);
  EXPECT_EQ(got, want) << family_name(GetParam());
  EXPECT_GE(rounds, 1u);
  EXPECT_EQ(count_components(got), count_components(want));
}

TEST_P(KernelOracles, WccMatchesReferenceNative) {
  const graph::Graph g = family_graph(GetParam(), 904);
  const std::vector<vid_t> want = wcc_reference(g);
  engine::NativeBackend backend;
  const auto opt = engine::PcpmOptions::hipa(4, 1, 4096);
  EXPECT_EQ(wcc(g, opt, backend), want) << family_name(GetParam());
}

// ---- SSSP -------------------------------------------------------------------

// Dijkstra and the engine's Bellman-Ford-style fixpoint agree exactly
// (not approximately): both converge to the unique least fixpoint of
// d[v] = min_u(d[u] + w(u)) evaluated in the same float arithmetic.
TEST_P(KernelOracles, SsspMatchesReferenceSim) {
  const graph::Graph g = family_graph(GetParam(), 905);
  const vid_t src = busiest_source(g);
  const SsspResult want = sssp_reference(g, src);

  sim::SimMachine machine = make_machine();
  engine::SimBackend backend(machine);
  const SsspResult got =
      sssp(g, src, SsspOptions{.threads = 8, .num_nodes = 2,
                               .partition_bytes = 2048},
           backend);
  ASSERT_EQ(got.distance.size(), want.distance.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got.distance[v], want.distance[v])
        << family_name(GetParam()) << " vertex " << v;
  }
  EXPECT_EQ(got.reached, want.reached);
}

TEST_P(KernelOracles, SsspMatchesReferenceNative) {
  const graph::Graph g = family_graph(GetParam(), 906);
  const vid_t src = busiest_source(g);
  const SsspResult want = sssp_reference(g, src);
  engine::NativeBackend backend;
  const SsspResult got = sssp(g, src, SsspOptions{.threads = 4}, backend);
  EXPECT_EQ(0, std::memcmp(got.distance.data(), want.distance.data(),
                           want.distance.size() * sizeof(float)))
      << family_name(GetParam());
}

// ---- personalized PageRank --------------------------------------------------

TEST_P(KernelOracles, PprMatchesReferenceSim) {
  const graph::Graph g = family_graph(GetParam(), 907);
  engine::PprOptions ko;
  ko.seeds = {1, 5, 100};
  MethodParams params;
  params.pr.iterations = 10;

  const std::vector<rank_t> want =
      ppr_reference(g, params.pr.iterations, ko.damping, ko.seeds);
  for (const Method m : all_methods()) {
    sim::SimMachine machine = make_machine();
    const auto got =
        run_kernel_sim<engine::PprKernel>(m, g, machine, ko, params);
    EXPECT_LT(l1_distance(got.values, want),
              kTolPerVertex * static_cast<double>(want.size()))
        << family_name(GetParam()) << " " << method_name(m);
  }
}

TEST_P(KernelOracles, PprMassConcentratesOnSeeds) {
  const graph::Graph g = family_graph(GetParam(), 908);
  engine::PprOptions ko;
  ko.seeds = {42};
  MethodParams params;
  params.pr.iterations = 10;
  const auto got = run_kernel_native<engine::PprKernel>(Method::kHipa, g, ko,
                                                        params);
  // The restart vertex holds at least the (1 - d) restart mass, which
  // dwarfs the ~1/n a uniform run would give it.
  EXPECT_GT(got.values[42], 0.14f);
}

INSTANTIATE_TEST_SUITE_P(Families, KernelOracles,
                         ::testing::Values(Family::kZipf, Family::kRmat,
                                           Family::kEr),
                         [](const auto& test_info) {
                           return family_name(test_info.param);
                         });

// ---- PageRank facade identity -----------------------------------------------

// The PageRank-only facade (run(PageRankOptions) -> RunResult) and the
// kernel-generic surface must produce bitwise-identical ranks on every
// engine: same core, two entry points.
TEST(FacadeIdentity, PcpmRunEqualsRunKernel) {
  const graph::Graph g = family_graph(Family::kZipf, 909);
  engine::PageRankOptions pr(6);
  engine::PrOptions ko;
  ko.damping = pr.damping;

  sim::SimMachine m1 = make_machine();
  engine::SimBackend b1(m1);
  engine::PcpmEngine<engine::SimBackend> e1(
      g, engine::PcpmOptions::hipa(8, 2, 2048), b1);
  const auto old_result = e1.run(pr);

  sim::SimMachine m2 = make_machine();
  engine::SimBackend b2(m2);
  engine::PcpmEngine<engine::SimBackend> e2(
      g, engine::PcpmOptions::hipa(8, 2, 2048), b2);
  const auto new_result = e2.run<engine::PageRankKernel>(ko, pr);

  ASSERT_EQ(old_result.ranks.size(), new_result.values.size());
  EXPECT_EQ(0, std::memcmp(old_result.ranks.data(), new_result.values.data(),
                           old_result.ranks.size() * sizeof(rank_t)));
}

TEST(FacadeIdentity, VprRunEqualsRunKernel) {
  const graph::Graph g = family_graph(Family::kZipf, 910);
  engine::PageRankOptions pr(6);
  engine::PrOptions ko;
  ko.damping = pr.damping;

  sim::SimMachine m1 = make_machine();
  engine::SimBackend b1(m1);
  engine::VprEngine<engine::SimBackend> e1(g, {.num_threads = 8}, b1);
  const auto old_result = e1.run(pr);

  sim::SimMachine m2 = make_machine();
  engine::SimBackend b2(m2);
  engine::VprEngine<engine::SimBackend> e2(g, {.num_threads = 8}, b2);
  const auto new_result = e2.run<engine::PageRankKernel>(ko, pr);

  EXPECT_EQ(0, std::memcmp(old_result.ranks.data(), new_result.values.data(),
                           old_result.ranks.size() * sizeof(rank_t)));
}

TEST(FacadeIdentity, PolymerRunEqualsRunKernel) {
  const graph::Graph g = family_graph(Family::kZipf, 911);
  engine::PageRankOptions pr(6);
  engine::PrOptions ko;
  ko.damping = pr.damping;
  engine::PolymerOptions popt;
  popt.num_threads = 8;
  popt.num_nodes = 2;

  sim::SimMachine m1 = make_machine();
  engine::SimBackend b1(m1);
  engine::PolymerEngine<engine::SimBackend> e1(g, popt, b1);
  const auto old_result = e1.run(pr);

  sim::SimMachine m2 = make_machine();
  engine::SimBackend b2(m2);
  engine::PolymerEngine<engine::SimBackend> e2(g, popt, b2);
  const auto new_result = e2.run<engine::PageRankKernel>(ko, pr);

  EXPECT_EQ(0, std::memcmp(old_result.ranks.data(), new_result.values.data(),
                           old_result.ranks.size() * sizeof(rank_t)));
}

// run_method_* (the historical facade) must equal the typed kernel
// runner for every methodology.
TEST(FacadeIdentity, RunMethodEqualsRunKernelAllMethods) {
  const graph::Graph g = family_graph(Family::kRmat, 912);
  MethodParams params;
  params.pr.iterations = 6;
  for (const Method m : all_methods()) {
    sim::SimMachine m1 = make_machine();
    const RunResult via_method = run_method_sim(m, g, m1, params);
    engine::PrOptions ko;
    ko.damping = params.pr.damping;
    sim::SimMachine m2 = make_machine();
    const auto via_kernel =
        run_kernel_sim<engine::PageRankKernel>(m, g, m2, ko, params);
    ASSERT_EQ(via_method.ranks.size(), via_kernel.values.size());
    EXPECT_EQ(0, std::memcmp(via_method.ranks.data(), via_kernel.values.data(),
                             via_method.ranks.size() * sizeof(rank_t)))
        << method_name(m);
  }
}

// ---- active-partition skipping ----------------------------------------------

// Frontier kernels skip the scatter stream of partitions with no
// active sources. As WCC converges the frontier empties, so the total
// scatter messages over R rounds must come in strictly under R times
// one full-frontier round — and the engine must still produce the
// exact union-find labels.
TEST(ActivePartitions, ConvergedWccSkipsScatterWork) {
  // Components that converge at very different times: a dense Zipf
  // core (a handful of rounds) plus a long appended path, where the
  // min label crawls one hop per round. Small partitions so the core's
  // partitions go quiet while the path is still propagating.
  const vid_t kCore = 1024;
  const vid_t kPath = 128;
  const vid_t n = kCore + kPath;
  std::vector<Edge> edges = graph::generate_zipf(
      {.num_vertices = kCore, .num_edges = 8000, .seed = 913});
  for (vid_t i = 0; i + 1 < kPath; ++i) {
    edges.push_back(Edge{kCore + i, kCore + i + 1});
  }
  graph::BuildOptions bopts;
  bopts.symmetrize = true;
  bopts.remove_duplicates = true;
  const graph::Graph sym = graph::build_graph(n, edges, bopts);

  engine::RunOptions ro;
  ro.telemetry = runtime::Telemetry::kOn;
  const auto opt = engine::PcpmOptions::hipa(8, 2, 256);

  // One round with everything active = the full-frontier scatter cost.
  sim::SimMachine m1 = make_machine();
  engine::SimBackend b1(m1);
  engine::PcpmEngine<engine::SimBackend> e1(sym, opt, b1);
  const auto one =
      e1.run<engine::WccKernel>(engine::WccOptions{.max_rounds = 1}, ro);
  const std::uint64_t full_round =
      one.report.telemetry[runtime::Phase::kScatter].messages_produced;
  ASSERT_GT(full_round, 0u);

  // Run to convergence: the path forces ~kPath rounds, and the total
  // scatter volume must come in far under rounds * full_round because
  // converged partitions stop scattering.
  sim::SimMachine m2 = make_machine();
  engine::SimBackend b2(m2);
  engine::PcpmEngine<engine::SimBackend> e2(sym, opt, b2);
  const auto all = e2.run<engine::WccKernel>(engine::WccOptions{}, ro);
  const std::uint64_t total =
      all.report.telemetry[runtime::Phase::kScatter].messages_produced;
  ASSERT_GE(all.report.iterations, kPath - 2);
  EXPECT_LT(total, full_round * all.report.iterations / 4);

  // And the skipping must not change the answer.
  const graph::Graph directed = graph::build_graph(n, edges);
  EXPECT_EQ(all.values, wcc_reference(directed));
}

// ---- phase dispatch vs run_loop ---------------------------------------------

// The per-phase condvar dispatch and the single-dispatch run_loop are
// two drivers of the same iteration body; every kernel must produce
// bitwise-identical values through both.
TEST(RunLoopEquivalence, AllKernelsBitwiseEqualAcrossDispatchModes) {
  const graph::Graph g = family_graph(Family::kZipf, 914);
  engine::NativeBackend backend;

  auto opts = [](bool single) {
    auto o = engine::PcpmOptions::hipa(4, 1, 4096);
    o.single_dispatch = single;
    return o;
  };

  {
    engine::PcpmEngine<engine::NativeBackend> loop(g, opts(true), backend);
    engine::PcpmEngine<engine::NativeBackend> phased(g, opts(false),
                                                     backend);
    ASSERT_TRUE(loop.uses_single_dispatch());
    ASSERT_FALSE(phased.uses_single_dispatch());

    const auto pr_a = loop.run(engine::PageRankOptions(8));
    const auto pr_b = phased.run(engine::PageRankOptions(8));
    EXPECT_EQ(0, std::memcmp(pr_a.ranks.data(), pr_b.ranks.data(),
                             pr_a.ranks.size() * sizeof(rank_t)));

    const vid_t src = busiest_source(g);
    engine::BfsOptions bo;
    bo.source = src;
    const auto bfs_a = loop.run<engine::BfsKernel>(bo);
    const auto bfs_b = phased.run<engine::BfsKernel>(bo);
    EXPECT_EQ(bfs_a.values, bfs_b.values);

    engine::SsspOptions so;
    so.source = src;
    const auto sssp_a = loop.run<engine::SsspKernel>(so);
    const auto sssp_b = phased.run<engine::SsspKernel>(so);
    EXPECT_EQ(0, std::memcmp(sssp_a.values.data(), sssp_b.values.data(),
                             sssp_a.values.size() * sizeof(float)));

    const auto wcc_a = loop.run<engine::WccKernel>(engine::WccOptions{});
    const auto wcc_b = phased.run<engine::WccKernel>(engine::WccOptions{});
    EXPECT_EQ(wcc_a.values, wcc_b.values);
    EXPECT_EQ(wcc_a.report.iterations, wcc_b.report.iterations);
  }
}

// ---- runtime kernel dispatch (MethodParams::kernel) -------------------------

TEST(AnyKernel, DispatchRunsEveryKernel) {
  const graph::Graph g = family_graph(Family::kEr, 915);
  MethodParams params;
  params.pr.iterations = 4;
  params.personalized.seeds = {3};
  params.bfs.source = busiest_source(g);
  params.sssp.source = params.bfs.source;
  for (const Kernel k : all_kernels()) {
    params.kernel = k;
    const engine::RunReport report =
        run_any_kernel_native(Method::kHipa, g, params);
    EXPECT_GE(report.iterations, 1u) << kernel_name(k);
  }
}

TEST(AnyKernel, NamesRoundTrip) {
  for (const Kernel k : all_kernels()) {
    const auto back = kernel_from_name(kernel_name(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(kernel_from_name("dijkstra").has_value());
  EXPECT_EQ(kernel_from_name("pr"), Kernel::kPageRank);
}

// ---- serving refresh through the kernel facade ------------------------------

// The refresher's full-run path routes through the kernel-generic
// facade; a refresh must stay bitwise identical to a fresh full run on
// the updated graph (the serving layer's reproducibility contract).
TEST(ServeRefresh, FullRefreshBitwiseMatchesFreshRun) {
  const vid_t n = 600;
  const graph::Graph seed_graph = family_graph(Family::kEr, 916);
  std::vector<Edge> edges;
  for (vid_t v = 0; v < n; ++v) {
    for (vid_t u : seed_graph.out.neighbors(v)) {
      if (u < n) edges.push_back(Edge{v, u});
    }
  }

  serve::SnapshotStore store(n);
  serve::UpdateQueue queue;
  serve::RefreshOptions opt;
  opt.small_batch_max = 4;
  opt.full.threads = 2;
  opt.full.pr.iterations = 10;
  serve::UpdateRefresher refresher(n, edges, store, queue, opt);
  refresher.publish_initial();

  for (vid_t i = 0; i < 16; ++i) {
    queue.push_add(Edge{i, (i * 37 + 5) % n});
  }
  const serve::RefreshReport report = refresher.refresh_now();
  ASSERT_TRUE(report.full_run);

  const RunResult fresh =
      run_method_native(Method::kHipa, refresher.graph(), opt.full);
  serve::SnapshotRef snap = store.current();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(0, std::memcmp(snap->ranks().data(), fresh.ranks.data(),
                           n * sizeof(rank_t)));
}

// A personalized refresh serves PPR ranks: bitwise equal to the typed
// runner on the same graph.
TEST(ServeRefresh, PersonalizedKernelBacksRefresh) {
  const vid_t n = 400;
  std::vector<Edge> edges;
  for (vid_t v = 0; v < n; ++v) {
    edges.push_back(Edge{v, (v * 13 + 1) % n});
    edges.push_back(Edge{v, (v * 7 + 3) % n});
  }

  serve::SnapshotStore store(n);
  serve::UpdateQueue queue;
  serve::RefreshOptions opt;
  opt.full.threads = 2;
  opt.full.pr.iterations = 8;
  opt.full.kernel = Kernel::kPersonalized;
  opt.full.personalized.seeds = {7, 11};
  serve::UpdateRefresher refresher(n, edges, store, queue, opt);
  refresher.publish_initial();

  const auto fresh = run_kernel_native<engine::PprKernel>(
      Method::kHipa, refresher.graph(), opt.full.personalized, opt.full);
  serve::SnapshotRef snap = store.current();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(0, std::memcmp(snap->ranks().data(), fresh.values.data(),
                           n * sizeof(rank_t)));
}

// A small batch on a PPR-backed refresher takes the warm push, which
// continues the PPR ranks: the result stays within the full run's own
// error (L1 to a 100-iteration PPR) of a fresh PPR run on the edited
// graph. Global PageRank would sit far outside it.
TEST(ServeRefresh, PersonalizedSmallBatchStaysPersonalized) {
  const vid_t n = 400;
  std::vector<Edge> edges;
  for (vid_t v = 0; v < n; ++v) {
    edges.push_back(Edge{v, (v * 13 + 1) % n});
    edges.push_back(Edge{v, (v * 7 + 3) % n});
  }

  serve::SnapshotStore store(n);
  serve::UpdateQueue queue;
  serve::RefreshOptions opt;
  opt.full.threads = 2;
  opt.full.kernel = Kernel::kPersonalized;
  opt.full.personalized.seeds = {7, 11};
  serve::UpdateRefresher refresher(n, edges, store, queue, opt);
  refresher.publish_initial();

  queue.push_add(Edge{7, 200});
  queue.push_add(Edge{11, 300});
  queue.push_remove(Edge{7, (7 * 13 + 1) % n});
  const serve::RefreshReport report = refresher.refresh_now();
  ASSERT_FALSE(report.full_run);

  const auto fresh = run_kernel_native<engine::PprKernel>(
      Method::kHipa, refresher.graph(), opt.full.personalized, opt.full);
  const std::vector<rank_t> converged =
      ppr_reference(refresher.graph(), 100, opt.full.personalized.damping,
                    opt.full.personalized.seeds);
  const double own_error = l1_distance(fresh.values, converged);
  serve::SnapshotRef snap = store.current();
  ASSERT_TRUE(snap.valid());
  EXPECT_LE(l1_distance(snap->ranks(), fresh.values), own_error);
  const std::vector<rank_t> global =
      pagerank_reference(refresher.graph(), 100, opt.full.pr.damping);
  EXPECT_GT(l1_distance(global, fresh.values), 10 * own_error);
}

// Non-rank kernels cannot back a rank-serving refresh.
TEST(ServeRefresh, RejectsNonRankKernels) {
  const vid_t n = 16;
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  serve::SnapshotStore store(n);
  serve::UpdateQueue queue;
  serve::RefreshOptions opt;
  opt.full.kernel = Kernel::kBfs;
  serve::UpdateRefresher refresher(n, edges, store, queue, opt);
  EXPECT_THROW(refresher.publish_initial(), Error);
}

}  // namespace
}  // namespace hipa::algo
