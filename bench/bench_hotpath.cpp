// Hot-path perf harness for the partition-centric gather stream.
//
// Runs the two partition-centric methodologies whose gather phase
// streams the destination list (HiPa and p-PR) once each on the six
// dataset stand-ins, recording the bins footprint and destination-list
// bytes per edge. Each configuration runs natively (wall-clock
// edges/sec) and on the simulated Skylake testbed (cycles, DRAM bytes
// per edge).
//
// It also measures the thread-management tax directly: a
// `dispatch_overhead` micro-section times `2 × iters` empty condvar
// phase() dispatches against ONE run_loop parallel region with the
// same number of in-region barriers (paper Algorithm 1 vs 2 thread
// management, isolated from all memory traffic), and records the host
// topology (CPUs, NUMA nodes, pinning mode, mbind availability) so
// numbers are interpretable across machines.
//
// A `barrier` micro-section compares the flat sense-reversing
// SpinBarrier against the topology-aware two-level TreeBarrier
// (ns/crossing, empty kernel) at one-node-worth, two-nodes-worth and
// all-CPUs thread counts.
//
// Two run-level telemetry sections close the report: `telemetry_runs`
// re-runs HiPa/p-PR/GPOP (or --methods=) natively with telemetry kOn
// and serializes the per-phase wall/barrier/messages/bytes aggregates
// through the shared bench schema, and `telemetry_overhead` times HiPa
// with telemetry off vs on — the off ranks must match the on ranks
// bitwise (the collection guard is `if constexpr`, so kOff compiles to
// the untelemetered code).
//
// An `oocore` section shards the smoke dataset into a segmented HCSR
// v4 temp file and runs the out-of-core engine twice — fully in-core
// vs streaming through two segment-sized staging slots with async
// prefetch — recording both times, bytes fetched, the peak resident
// bytes against the budget, the prefetch overlap ratio (fetch time
// hidden behind compute), and whether the two rank vectors are
// bitwise identical (they must be).
//
// Besides the human-readable table it emits machine-readable JSON
// (default BENCH_hotpath.json, override with --out=) so CI and
// EXPERIMENTS.md can track the numbers. `--smoke` shrinks to one tiny
// dataset and two iterations for the `perf-smoke` ctest label.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/timer.hpp"
#include "engines/oocore_engine.hpp"
#include "graph/io.hpp"
#include "runtime/affinity.hpp"
#include "runtime/placement.hpp"
#include "runtime/telemetry.hpp"

namespace {

using namespace hipa;

/// Measurements for one (dataset, method) configuration.
struct MethodRun {
  std::uint64_t footprint = 0;      ///< bins footprint, bytes
  double dst_bytes_per_edge = 0.0;  ///< dst-list bytes / |E|
  double native_seconds = 0.0;
  double native_edges_per_sec = 0.0;
  double sim_bytes_per_edge = 0.0;  ///< DRAM bytes / |E| / iteration
  std::uint64_t sim_cycles = 0;
};

MethodRun run_method(const bench::ScaledDataset& d, algo::Method m,
                     unsigned iters) {
  MethodRun r;
  engine::PageRankOptions pr;
  pr.iterations = iters;
  const eid_t edges = d.graph.num_edges();
  const std::uint64_t part_bytes =
      algo::default_partition_bytes(m, d.scale);

  auto options = [&](unsigned threads, unsigned nodes) {
    return m == algo::Method::kHipa
               ? engine::PcpmOptions::hipa(threads, nodes, part_bytes)
               : engine::PcpmOptions::ppr(threads, nodes, part_bytes);
  };

  {  // Native: wall-clock throughput on this host (one NUMA node).
    engine::NativeBackend backend;
    const unsigned threads = std::max(1u, runtime::available_cpus());
    engine::PcpmEngine<engine::NativeBackend> eng(
        d.graph, options(threads, 1), backend);
    r.footprint = eng.bins().footprint_bytes();
    r.dst_bytes_per_edge =
        edges == 0 ? 0.0
                   : static_cast<double>(eng.bins().total_dests() *
                                         sizeof(vid_t)) /
                         static_cast<double>(edges);
    const engine::RunReport rep = eng.run(pr).report;
    r.native_seconds = rep.seconds;
    r.native_edges_per_sec =
        rep.seconds > 0.0 ? static_cast<double>(edges) * iters / rep.seconds
                          : 0.0;
  }
  {  // Simulated Skylake at the dataset's matched scale.
    sim::SimMachine machine = bench::make_machine(d.scale);
    engine::SimBackend backend(machine);
    const unsigned threads = algo::default_threads(m, machine.topology());
    engine::PcpmEngine<engine::SimBackend> eng(
        d.graph, options(threads, machine.topology().num_nodes), backend);
    const auto rep = eng.run(pr).report;
    r.sim_bytes_per_edge = bench::mape_per_iter(rep, edges);
    r.sim_cycles = rep.stats.total_cycles;
  }
  return r;
}

// ---- dispatch overhead ------------------------------------------------------

/// Empty-kernel timing of the two thread-management models on one
/// persistent pinned team: per-phase condvar dispatch vs a single
/// run_loop region with in-region spin barriers.
struct DispatchOverhead {
  unsigned threads = 1;
  unsigned iterations = 0;
  double phase_ns_per_iter = 0.0;     ///< 2 condvar dispatches
  double run_loop_ns_per_iter = 0.0;  ///< 2 spin-barrier crossings
};

DispatchOverhead measure_dispatch_overhead(bool smoke) {
  DispatchOverhead d;
  d.threads = std::max(1u, runtime::available_cpus());
  d.iterations = smoke ? 500 : 5000;

  engine::ThreadTeamSpec spec;
  spec.num_threads = d.threads;
  spec.persistent = true;
  spec.binding = engine::ThreadTeamSpec::Binding::kSpread;

  engine::NativeBackend backend;
  backend.start_team(spec);
  // Warm both paths (thread creation, first pin, lazy pages).
  backend.phase([](unsigned, engine::NoopMem&) {});
  backend.run_loop([](unsigned, engine::NoopMem&, engine::LoopCtl& ctl) {
    ctl.barrier();
  });

  {  // Algorithm-1-style phase management on the persistent team:
     // every scatter and gather is its own condvar wakeup+join.
    Timer t;
    for (unsigned it = 0; it < d.iterations; ++it) {
      backend.phase([](unsigned, engine::NoopMem&) {});
      backend.phase([](unsigned, engine::NoopMem&) {});
    }
    d.phase_ns_per_iter =
        t.seconds() * 1e9 / static_cast<double>(d.iterations);
  }
  {  // Algorithm 2: one dispatch, barriers inside the region.
    const unsigned iters = d.iterations;
    Timer t;
    backend.run_loop(
        [iters](unsigned, engine::NoopMem&, engine::LoopCtl& ctl) {
          for (unsigned it = 0; it < iters; ++it) {
            ctl.barrier();
            ctl.barrier();
          }
        });
    d.run_loop_ns_per_iter =
        t.seconds() * 1e9 / static_cast<double>(d.iterations);
  }
  backend.end_team();
  return d;
}

// ---- barrier shapes ---------------------------------------------------------

/// ns per barrier crossing for one barrier shape at one team size
/// (empty kernel; isolates the synchronization protocol itself).
struct BarrierPoint {
  unsigned threads = 1;
  unsigned tree_groups = 0;  ///< leaves the tree used (0 = flat fallback)
  double flat_ns_per_crossing = 0.0;
  double tree_ns_per_crossing = 0.0;
};

struct BarrierSection {
  unsigned crossings = 0;  ///< timed crossings per point per shape
  std::vector<BarrierPoint> points;
};

double time_crossings(engine::NativeBackend& backend, unsigned crossings) {
  // Warm the requested barrier shape (first run_loop builds it and
  // faults its lines), then time a second region of pure crossings.
  backend.run_loop([](unsigned, engine::NoopMem&, engine::LoopCtl& ctl) {
    ctl.barrier();
  });
  Timer t;
  backend.run_loop(
      [crossings](unsigned, engine::NoopMem&, engine::LoopCtl& ctl) {
        for (unsigned c = 0; c < crossings; ++c) ctl.barrier();
      });
  return t.seconds() * 1e9 / static_cast<double>(crossings);
}

BarrierSection measure_barrier(bool smoke) {
  BarrierSection s;
  s.crossings = smoke ? 2000 : 20000;
  const runtime::HostTopology& topo = runtime::topology();
  const unsigned cpus = std::max(1u, runtime::available_cpus());
  const unsigned nodes = std::max<unsigned>(1, topo.num_nodes());
  const unsigned per_node = std::max(1u, cpus / nodes);

  // One node's worth, two nodes' worth, the whole host (deduped).
  std::vector<unsigned> counts = {per_node, std::min(cpus, 2 * per_node),
                                  cpus};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  for (unsigned threads : counts) {
    BarrierPoint p;
    p.threads = threads;

    engine::ThreadTeamSpec spec;
    spec.num_threads = threads;
    spec.persistent = true;
    if (nodes >= 2) {
      // Real NUMA: block threads onto nodes so the tree's leaves are
      // node-local cache lines (the configuration the tree exists for).
      spec.binding = engine::ThreadTeamSpec::Binding::kNodeBlocked;
      spec.threads_per_node.assign(nodes, threads / nodes);
      for (unsigned i = 0; i < threads % nodes; ++i) {
        ++spec.threads_per_node[i];
      }
      for (unsigned c : spec.threads_per_node) {
        if (c > 0) ++p.tree_groups;
      }
    } else {
      // Single node: forced kTree synthesizes two balanced halves so
      // the two-level protocol is still exercised and measured.
      spec.binding = engine::ThreadTeamSpec::Binding::kSpread;
      p.tree_groups = threads >= 2 ? 2 : 0;
    }

    engine::NativeBackend backend;
    backend.start_team(spec);
    backend.set_barrier_kind(runtime::BarrierKind::kFlat);
    p.flat_ns_per_crossing = time_crossings(backend, s.crossings);
    backend.set_barrier_kind(runtime::BarrierKind::kTree);
    p.tree_ns_per_crossing = time_crossings(backend, s.crossings);
    backend.end_team();
    s.points.push_back(p);
  }
  return s;
}

// ---- run-level telemetry ----------------------------------------------------

/// One native facade run of `m` with the requested telemetry mode and
/// (for the kOn report runs) hardware counters, the placement audit
/// and an optional Chrome trace.
algo::RunResult run_native(const bench::ScaledDataset& d, algo::Method m,
                           unsigned iters, runtime::Telemetry tel,
                           runtime::HwProf hw = runtime::HwProf::kOff,
                           bool audit = false,
                           const std::string& trace_path = {}) {
  algo::MethodParams params;
  params.scale_denom = d.scale;
  params.pr.iterations = iters;
  params.pr.telemetry = tel;
  params.pr.hw_counters = hw;
  params.pr.audit_placement = audit;
  params.pr.trace_path = trace_path;
  return algo::run_method_native(m, d.graph, params);
}

/// The zero-overhead-off guarantee, measured: telemetry kOff vs kOn on
/// the same engine/dataset. kOff must match the untelemetered ranks
/// bitwise (the guard is `if constexpr`; the kOff instantiation IS the
/// old code), and kOn's cost is reported so regressions are visible.
struct TelemetryOverhead {
  unsigned reps = 0;
  double off_seconds = 0.0;  ///< best-of-reps, telemetry off
  double on_seconds = 0.0;   ///< best-of-reps, telemetry on
  double overhead_frac = 0.0;
  double ranks_l1 = 0.0;  ///< kOff vs kOn ranks; must be exactly 0
};

TelemetryOverhead measure_telemetry_overhead(const bench::ScaledDataset& d,
                                             unsigned iters, bool smoke) {
  TelemetryOverhead t;
  t.reps = smoke ? 2 : 4;
  std::vector<rank_t> off_ranks;
  std::vector<rank_t> on_ranks;
  // One untimed warm-up run, then alternate the off/on order per rep
  // so neither mode systematically inherits the other's warmed pages.
  // The residual delta is code-layout jitter between the two template
  // instantiations (the counters sit outside the per-edge loops) and
  // can come out mildly negative; the enforced guarantee is ranks_l1
  // == 0, i.e. the kOff instantiation IS the untelemetered kernel.
  (void)run_native(d, algo::Method::kHipa, iters,
                   runtime::Telemetry::kOff);
  for (unsigned rep = 0; rep < t.reps; ++rep) {
    const bool off_first = rep % 2 == 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool is_off = (leg == 0) == off_first;
      auto res = run_native(
          d, algo::Method::kHipa, iters,
          is_off ? runtime::Telemetry::kOff : runtime::Telemetry::kOn);
      if (is_off) {
        if (rep == 0 || res.report.seconds < t.off_seconds) {
          t.off_seconds = res.report.seconds;
        }
        off_ranks = std::move(res.ranks);
      } else {
        if (rep == 0 || res.report.seconds < t.on_seconds) {
          t.on_seconds = res.report.seconds;
        }
        on_ranks = std::move(res.ranks);
      }
    }
  }
  t.overhead_frac = t.off_seconds > 0.0
                        ? t.on_seconds / t.off_seconds - 1.0
                        : 0.0;
  t.ranks_l1 = algo::l1_distance(off_ranks, on_ranks);
  return t;
}

void emit_host(bench::JsonWriter& jw) {
  const runtime::HostTopology& topo = runtime::topology();
  jw.key("host");
  jw.begin_object();
  jw.kv("cpus", topo.num_cpus());
  jw.kv("numa_nodes", topo.num_nodes());
  jw.key("cpus_per_node");
  jw.begin_array();
  for (const auto& cpus : topo.node_cpus) {
    jw.value(static_cast<unsigned>(cpus.size()));
  }
  jw.end_array();
  jw.kv("topology_source", topo.from_sysfs ? "sysfs" : "fallback");
  jw.kv("numa_binding_available", runtime::numa_binding_available());
  jw.kv("pinning", "spread");  // dispatch section pins kSpread 1:1
  jw.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hipa;
  bench::Flags flags = bench::Flags::parse(argc, argv);
  const unsigned iters = flags.iterations != 0 ? flags.iterations
                         : flags.smoke        ? 2
                         : flags.quick        ? 3
                                              : 5;
  if (flags.smoke && flags.dataset.empty()) flags.dataset = "journal";
  const std::string out_path =
      flags.out.empty() ? "BENCH_hotpath.json" : flags.out;

  bench::print_banner("Hot path: partition-centric gather stream",
                      "paper \xc2\xa7" "4.2 gather stream traffic");
  const algo::Method methods[] = {algo::Method::kHipa, algo::Method::kPpr};

  std::FILE* jf = std::fopen(out_path.c_str(), "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  bench::JsonWriter jw(jf);
  jw.begin_object();
  jw.kv("bench", "hotpath");
  jw.kv("iterations", iters);
  jw.kv("quick", flags.quick);
  jw.kv("smoke", flags.smoke);
  emit_host(jw);

  const DispatchOverhead ov = measure_dispatch_overhead(flags.smoke);
  std::printf("dispatch overhead (%u thread(s), %u empty iterations):\n"
              "  phase()-per-phase : %10.0f ns/iter  (2 condvar "
              "dispatches)\n"
              "  run_loop          : %10.0f ns/iter  (2 in-region "
              "barriers)\n"
              "  run_loop saves %.1fx per iteration\n\n",
              ov.threads, ov.iterations, ov.phase_ns_per_iter,
              ov.run_loop_ns_per_iter,
              ov.run_loop_ns_per_iter > 0.0
                  ? ov.phase_ns_per_iter / ov.run_loop_ns_per_iter
                  : 0.0);
  jw.key("dispatch_overhead");
  jw.begin_object();
  jw.kv("threads", ov.threads);
  jw.kv("empty_iterations", ov.iterations);
  jw.kv("phase_ns_per_iter", ov.phase_ns_per_iter);
  jw.kv("run_loop_ns_per_iter", ov.run_loop_ns_per_iter);
  jw.kv("run_loop_lower", ov.run_loop_ns_per_iter < ov.phase_ns_per_iter);
  jw.end_object();

  const BarrierSection bs = measure_barrier(flags.smoke);
  std::printf("barrier crossing cost (%u timed crossings per shape):\n",
              bs.crossings);
  std::printf("  %7s %6s | %10s %10s | %s\n", "threads", "leaves",
              "flat ns/x", "tree ns/x", "tree/flat");
  for (const BarrierPoint& p : bs.points) {
    std::printf("  %7u %6u | %10.1f %10.1f | %8.2fx%s\n", p.threads,
                p.tree_groups, p.flat_ns_per_crossing,
                p.tree_ns_per_crossing,
                p.flat_ns_per_crossing > 0.0
                    ? p.tree_ns_per_crossing / p.flat_ns_per_crossing
                    : 0.0,
                p.tree_groups == 0 ? "  (tree falls back to flat)" : "");
  }
  std::printf("\n");
  jw.key("barrier");
  jw.begin_object();
  jw.kv("crossings", bs.crossings);
  jw.key("points");
  jw.begin_array();
  for (const BarrierPoint& p : bs.points) {
    jw.begin_object();
    jw.kv("threads", p.threads);
    jw.kv("tree_groups", p.tree_groups);
    jw.kv("flat_ns_per_crossing", p.flat_ns_per_crossing);
    jw.kv("tree_ns_per_crossing", p.tree_ns_per_crossing);
    jw.end_object();
  }
  jw.end_array();
  // Flattened summary of the all-CPUs point for the regression bands
  // (advisory — barrier latency is host-dependent).
  const BarrierPoint& maxp = bs.points.back();
  jw.kv("max_threads", maxp.threads);
  jw.kv("flat_ns_per_crossing_max_threads", maxp.flat_ns_per_crossing);
  jw.kv("tree_ns_per_crossing_max_threads", maxp.tree_ns_per_crossing);
  jw.kv("tree_not_slower_at_max_threads",
        maxp.tree_ns_per_crossing <= maxp.flat_ns_per_crossing);
  jw.end_object();

  std::printf("Native rows use %u host thread(s); sim rows use the paper's "
              "per-method defaults.\n",
              std::max(1u, runtime::available_cpus()));
  std::printf("%-9s %-5s %5s | %9s | %9s %8s | %9s\n", "graph", "meth",
              "1/N", "Medge/s", "simB/e", "dstB/e", "bins MB");
  jw.key("datasets");
  jw.begin_array();

  int rc = 0;
  const std::vector<bench::ScaledDataset> datasets =
      bench::load_datasets(flags);
  for (const auto& d : datasets) {
    jw.begin_object();
    jw.kv("name", d.name);
    jw.kv("scale", d.scale);
    jw.kv("vertices", static_cast<std::uint64_t>(d.graph.num_vertices()));
    jw.kv("edges", static_cast<std::uint64_t>(d.graph.num_edges()));
    jw.key("methods");
    jw.begin_array();
    for (algo::Method m : methods) {
      const MethodRun r = run_method(d, m, iters);
      std::printf("%-9s %-5s %5u | %9.2f | %9.2f %8.2f | %9.2f\n",
                  d.name.c_str(), algo::method_name(m), d.scale,
                  r.native_edges_per_sec / 1e6, r.sim_bytes_per_edge,
                  r.dst_bytes_per_edge, static_cast<double>(r.footprint) / 1e6);

      jw.begin_object();
      jw.kv("method", algo::method_name(m));
      jw.kv("bins_footprint_bytes", r.footprint);
      jw.kv("dst_bytes_per_edge", r.dst_bytes_per_edge);
      jw.kv("native_seconds", r.native_seconds);
      jw.kv("native_edges_per_sec", r.native_edges_per_sec);
      jw.kv("sim_bytes_per_edge", r.sim_bytes_per_edge);
      jw.kv("sim_cycles", r.sim_cycles);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
  }
  jw.end_array();

  // ---- run-level telemetry: where the time goes, per phase ------------
  if (!datasets.empty()) {
    const bench::ScaledDataset& d = datasets.front();
    const std::vector<algo::Method> tel_methods = flags.methods_or(
        {algo::Method::kHipa, algo::Method::kPpr, algo::Method::kGpop});

    std::printf("\nrun-level telemetry on '%s' (native, %u iters):\n",
                d.name.c_str(), iters);
    std::printf("%-8s %-8s %10s %10s %6s %12s %12s\n", "method", "phase",
                "wall (s)", "barrier(s)", "imbal", "msgs-out", "msgs-in");
    jw.key("telemetry_runs");
    jw.begin_object();
    jw.kv("dataset", d.name);
    jw.kv("iterations", iters);
    jw.key("methods");
    jw.begin_array();
    bool trace_written = false;
    for (algo::Method m : tel_methods) {
      // --trace-out= captures the first method's timeline (one file,
      // one process track; pass --methods=hipa to pick the method).
      const std::string trace_path =
          !trace_written ? flags.trace_out : std::string();
      trace_written = trace_written || !trace_path.empty();
      const auto res =
          run_native(d, m, iters, runtime::Telemetry::kOn,
                     runtime::HwProf::kOn, /*audit=*/true, trace_path);
      for (unsigned pi = 0; pi < runtime::kNumPhases; ++pi) {
        const auto ph = static_cast<runtime::Phase>(pi);
        const auto& agg = res.report.telemetry[ph];
        std::printf("%-8s %-8s %10.4f %10.4f %6.2f %12llu %12llu\n",
                    pi == 0 ? algo::method_name(m) : "",
                    std::string(runtime::phase_name(ph)).c_str(),
                    agg.wall_sum_seconds, agg.barrier_sum_seconds,
                    agg.imbalance(),
                    static_cast<unsigned long long>(agg.messages_produced),
                    static_cast<unsigned long long>(agg.messages_consumed));
      }
      const runtime::RunTelemetry& t = res.report.telemetry;
      if (t.hw_available) {
        const runtime::HwCounters hw = [&] {
          runtime::HwCounters sum;
          for (unsigned pi = 0; pi < runtime::kNumPhases; ++pi) {
            sum.add(t[static_cast<runtime::Phase>(pi)].hw);
          }
          return sum;
        }();
        std::printf(
            "         hw: %.2f Gcycles  IPC %.2f  LLC miss %5.1f%%  "
            "(%u/%u thread groups, mux %.2f)\n",
            static_cast<double>(hw.cycles) / 1e9, hw.ipc(),
            hw.llc_loads > 0
                ? 100.0 * static_cast<double>(hw.llc_load_misses) /
                      static_cast<double>(hw.llc_loads)
                : 0.0,
            t.hw_threads, t.threads, hw.multiplex_ratio());
      } else {
        std::printf("         hw: unavailable (errno %d; see "
                    "perf_event_paranoid)\n",
                    t.hw_errno);
      }
      const numa::PlacementAudit& pa = res.report.placement_audit;
      if (pa.available) {
        std::printf("         placement: %.1f%% min on-node across %zu "
                    "buffers (%s%s)\n",
                    100.0 * pa.min_fraction(), pa.buffers.size(),
                    pa.source.c_str(),
                    pa.page_granular ? "" : ", VMA estimate");
      }
      if (!trace_path.empty()) {
        std::printf("         trace: %s (open with ui.perfetto.dev)\n",
                    trace_path.c_str());
      }

      jw.begin_object();
      jw.kv("method", algo::method_name(m));
      jw.kv("native_seconds", res.report.seconds);
      jw.kv("trace_path", trace_path);
      bench::emit_telemetry(jw, res.report.telemetry);
      bench::emit_placement_audit(jw, res.report.placement_audit);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();

    // ---- and its cost: telemetry off must be free -------------------
    const TelemetryOverhead ov2 =
        measure_telemetry_overhead(d, iters, flags.smoke);
    if (ov2.ranks_l1 != 0.0) {
      std::fprintf(stderr,
                   "ERROR: telemetry kOn perturbed the ranks (L1 = %g)\n",
                   ov2.ranks_l1);
      rc = 1;
    }
    std::printf("\ntelemetry overhead (HiPa on '%s', best of %u):\n"
                "  off %.4f s   on %.4f s   overhead %+.1f%%   ranks "
                "bitwise-identical: %s\n",
                d.name.c_str(), ov2.reps, ov2.off_seconds, ov2.on_seconds,
                ov2.overhead_frac * 100.0,
                ov2.ranks_l1 == 0.0 ? "yes" : "NO");
    jw.key("telemetry_overhead");
    jw.begin_object();
    jw.kv("dataset", d.name);
    jw.kv("reps", ov2.reps);
    jw.kv("off_seconds", ov2.off_seconds);
    jw.kv("on_seconds", ov2.on_seconds);
    jw.kv("overhead_frac", ov2.overhead_frac);
    jw.kv("ranks_l1_off_vs_on", ov2.ranks_l1);
    jw.kv("ranks_bitwise_identical", ov2.ranks_l1 == 0.0);
    jw.end_object();
  }

  // ---- kernels: per-kernel hot-path cost through run<K>() -------------
  if (!datasets.empty()) {
    const bench::ScaledDataset& d = datasets.front();
    const std::vector<algo::Kernel> kernels = flags.kernels_or(
        {algo::Kernel::kPageRank, algo::Kernel::kPersonalized,
         algo::Kernel::kBfs, algo::Kernel::kWcc, algo::Kernel::kSssp});
    const eid_t edges = d.graph.num_edges();
    vid_t source = 0;
    for (vid_t v = 1; v < d.graph.num_vertices(); ++v) {
      if (d.graph.out.degree(v) > d.graph.out.degree(source)) source = v;
    }

    // One HiPa engine, one kernel slot each; telemetry gives the
    // scatter message volume, the bins give the full-frontier volume
    // so the skip ratio is (1 - produced / (rounds * full)).
    engine::NativeBackend backend;
    const unsigned threads = std::max(1u, runtime::available_cpus());
    engine::PcpmEngine<engine::NativeBackend> eng(
        d.graph,
        engine::PcpmOptions::hipa(
            threads, 1, algo::default_partition_bytes(algo::Method::kHipa,
                                                      d.scale)),
        backend);
    const std::uint64_t full_round = eng.bins().total_messages();

    struct KernelRow {
      algo::Kernel kernel{};
      bool frontier = false;
      unsigned iterations = 0;
      double native_seconds = 0.0;
      double ns_per_edge = 0.0;
      double messages_per_edge = 0.0;
      double active_skip_ratio = 0.0;
    };
    auto run_one = [&]<class K>(algo::Kernel k,
                                const typename K::Options& ko) {
      engine::RunOptions ro;
      ro.iterations = iters;
      ro.telemetry = runtime::Telemetry::kOn;
      const auto kr = eng.template run<K>(ko, ro);
      KernelRow r;
      r.kernel = k;
      r.frontier = K::kUsesFrontier;
      r.iterations = kr.report.iterations;
      r.native_seconds = kr.report.seconds;
      const double work =
          static_cast<double>(edges) * std::max(1u, r.iterations);
      const auto produced =
          kr.report.telemetry[runtime::Phase::kScatter].messages_produced;
      r.ns_per_edge =
          work > 0.0 ? kr.report.seconds * 1e9 / work : 0.0;
      r.messages_per_edge =
          work > 0.0 ? static_cast<double>(produced) / work : 0.0;
      const double full =
          static_cast<double>(full_round) * std::max(1u, r.iterations);
      r.active_skip_ratio =
          full > 0.0 ? 1.0 - static_cast<double>(produced) / full : 0.0;
      return r;
    };

    std::vector<KernelRow> rows;
    for (const algo::Kernel k : kernels) {
      switch (k) {
        case algo::Kernel::kPageRank:
          rows.push_back(
              run_one.template operator()<engine::PageRankKernel>(k, {}));
          break;
        case algo::Kernel::kPersonalized: {
          engine::PprOptions ko;
          ko.seeds = {source};
          rows.push_back(
              run_one.template operator()<engine::PprKernel>(k, ko));
          break;
        }
        case algo::Kernel::kBfs: {
          engine::BfsOptions ko;
          ko.source = source;
          rows.push_back(
              run_one.template operator()<engine::BfsKernel>(k, ko));
          break;
        }
        case algo::Kernel::kWcc:
          // Raw directed graph (no symmetrization): a pure engine
          // measurement, not a weak-connectivity answer.
          rows.push_back(
              run_one.template operator()<engine::WccKernel>(k, {}));
          break;
        case algo::Kernel::kSssp: {
          engine::SsspOptions ko;
          ko.source = source;
          rows.push_back(
              run_one.template operator()<engine::SsspKernel>(k, ko));
          break;
        }
      }
    }

    // Abstraction-drift gate: the PageRank-only facade and
    // run<PageRankKernel> are two entry points to one core, so every
    // deterministic work counter — iterations, messages produced and
    // consumed — and the ranks must match EXACTLY. Simulated cycles
    // are reported alongside but not gated at zero: the cache model
    // indexes by real heap address, so two engine instances (whose
    // large buffers land wherever mmap puts them) differ by O(1e-5)
    // in set-conflict noise even though they execute the same code.
    // Each run gets its own scope so peak memory stays one engine.
    engine::PageRankOptions pr;
    pr.iterations = iters;
    pr.telemetry = runtime::Telemetry::kOn;
    std::uint64_t cycles_facade = 0;
    std::uint64_t cycles_kernel = 0;
    std::uint64_t produced_facade = 0;
    std::uint64_t produced_kernel = 0;
    std::uint64_t consumed_facade = 0;
    std::uint64_t consumed_kernel = 0;
    unsigned iters_facade = 0;
    unsigned iters_kernel = 0;
    double ranks_l1 = 0.0;
    std::vector<rank_t> facade_ranks;
    facade_ranks.resize(d.graph.num_vertices());
    {
      sim::SimMachine m1 = bench::make_machine(d.scale);
      engine::SimBackend b1(m1);
      engine::PcpmEngine<engine::SimBackend> e1(
          d.graph,
          engine::PcpmOptions::hipa(
              algo::default_threads(algo::Method::kHipa, m1.topology()),
              m1.topology().num_nodes,
              algo::default_partition_bytes(algo::Method::kHipa, d.scale)),
          b1);
      auto facade = e1.run(pr);
      cycles_facade = facade.report.stats.total_cycles;
      produced_facade = facade.report.telemetry.total_messages_produced();
      consumed_facade = facade.report.telemetry.total_messages_consumed();
      iters_facade = facade.report.iterations;
      std::copy(facade.ranks.begin(), facade.ranks.end(),
                facade_ranks.begin());
    }
    {
      sim::SimMachine m2 = bench::make_machine(d.scale);
      engine::SimBackend b2(m2);
      engine::PcpmEngine<engine::SimBackend> e2(
          d.graph,
          engine::PcpmOptions::hipa(
              algo::default_threads(algo::Method::kHipa, m2.topology()),
              m2.topology().num_nodes,
              algo::default_partition_bytes(algo::Method::kHipa, d.scale)),
          b2);
      engine::PrOptions ko;
      ko.damping = pr.damping;
      const auto kernel = e2.template run<engine::PageRankKernel>(ko, pr);
      cycles_kernel = kernel.report.stats.total_cycles;
      produced_kernel = kernel.report.telemetry.total_messages_produced();
      consumed_kernel = kernel.report.telemetry.total_messages_consumed();
      iters_kernel = kernel.report.iterations;
      ranks_l1 = algo::l1_distance(facade_ranks, kernel.values);
    }
    const auto rel = [](std::uint64_t a, std::uint64_t b) {
      const double lo = static_cast<double>(std::max<std::uint64_t>(
          1, std::min(a, b)));
      return std::fabs(static_cast<double>(a) - static_cast<double>(b)) /
             lo;
    };
    const double drift =
        std::max({rel(iters_facade, iters_kernel),
                  rel(produced_facade, produced_kernel),
                  rel(consumed_facade, consumed_kernel)});
    if (ranks_l1 != 0.0 || drift != 0.0) {
      std::fprintf(stderr,
                   "ERROR: run<PageRankKernel> drifted from the facade "
                   "(ranks L1 = %g, work drift = %g; iters %u vs %u, "
                   "msgs out %llu vs %llu, msgs in %llu vs %llu)\n",
                   ranks_l1, drift, iters_facade, iters_kernel,
                   static_cast<unsigned long long>(produced_facade),
                   static_cast<unsigned long long>(produced_kernel),
                   static_cast<unsigned long long>(consumed_facade),
                   static_cast<unsigned long long>(consumed_kernel));
      rc = 1;
    }

    std::printf("\nkernels through run<K>() (HiPa on '%s', native, %u "
                "threads):\n",
                d.name.c_str(), threads);
    std::printf("  %-9s %5s %9s %9s %9s %7s\n", "kernel", "iters",
                "ns/edge", "msg/edge", "skip", "front");
    for (const KernelRow& r : rows) {
      std::printf("  %-9s %5u %9.2f %9.3f %8.1f%% %7s\n",
                  algo::kernel_name(r.kernel), r.iterations, r.ns_per_edge,
                  r.messages_per_edge, 100.0 * r.active_skip_ratio,
                  r.frontier ? "yes" : "no");
    }
    std::printf("  pagerank abstraction drift: work %.3g%%, ranks L1 %g "
                "(sim cycles %llu vs %llu, informational)\n",
                100.0 * drift, ranks_l1,
                static_cast<unsigned long long>(cycles_facade),
                static_cast<unsigned long long>(cycles_kernel));

    jw.key("kernels");
    jw.begin_object();
    jw.kv("dataset", d.name);
    jw.kv("iterations", iters);
    jw.kv("threads", threads);
    jw.kv("full_round_messages", static_cast<std::uint64_t>(full_round));
    jw.key("entries");
    jw.begin_array();
    for (const KernelRow& r : rows) {
      jw.begin_object();
      jw.kv("kernel", algo::kernel_name(r.kernel));
      jw.kv("frontier", r.frontier);
      jw.kv("iterations", r.iterations);
      jw.kv("native_seconds", r.native_seconds);
      jw.kv("ns_per_edge", r.ns_per_edge);
      jw.kv("messages_per_edge", r.messages_per_edge);
      jw.kv("active_skip_ratio", r.active_skip_ratio);
      jw.end_object();
    }
    jw.end_array();
    jw.kv("pagerank_sim_cycles_facade", cycles_facade);
    jw.kv("pagerank_sim_cycles_kernel", cycles_kernel);
    jw.kv("pagerank_abstraction_drift", drift);
    jw.kv("pagerank_ranks_l1_vs_facade", ranks_l1);
    jw.kv("pagerank_bitwise_identical_to_facade",
          ranks_l1 == 0.0 && drift == 0.0);
    jw.end_object();
  }

  // ---- out-of-core: streaming segments vs fully in-core ---------------
  if (!datasets.empty()) {
    const bench::ScaledDataset& d = datasets.front();
    // Shard the in-CSR into ~8 segments so streaming is exercised but
    // the slots stay a small fraction of the whole topology.
    const std::size_t in_bytes = graph::segment_payload_bytes(
        d.graph.num_vertices(), d.graph.num_edges());
    const std::size_t target = std::max<std::size_t>(4096, in_bytes / 8);
    const std::string seg_path = out_path + ".oocore.tmp";
    graph::save_segmented_csr(seg_path, d.graph, target);

    const unsigned oo_threads =
        std::min(4u, std::max(1u, runtime::available_cpus()));
    auto run_mode = [&](bool streaming, std::size_t budget,
                        engine::OocoreStats* stats_out) {
      engine::NativeBackend backend;
      engine::OocoreOptions opt;
      opt.num_threads = oo_threads;
      opt.streaming = streaming;
      opt.prefetch = true;
      opt.resident_budget_bytes = budget;
      engine::OocoreEngine eng(seg_path, opt, backend);
      engine::PageRankOptions pr;
      pr.iterations = iters;
      engine::RunResult r = eng.run(pr);
      if (stats_out != nullptr) *stats_out = eng.stats();
      return r;
    };

    const auto incore = run_mode(false, 0, nullptr);
    engine::OocoreStats st;
    std::size_t budget = 0;
    {
      graph::SegmentedCsr probe = graph::SegmentedCsr::open(seg_path);
      budget = 2 * probe.max_payload_bytes() + kPageSize;
    }
    const auto streaming = run_mode(true, budget, &st);
    const bool bitwise = incore.ranks == streaming.ranks;
    const bool budget_ok = st.peak_resident_bytes <= budget;
    if (!bitwise) {
      std::fprintf(stderr,
                   "ERROR: out-of-core streaming diverged from in-core\n");
      rc = 1;
    }
    if (!budget_ok) {
      std::fprintf(stderr,
                   "ERROR: out-of-core run exceeded its resident budget "
                   "(%zu > %zu bytes)\n",
                   st.peak_resident_bytes, budget);
      rc = 1;
    }
    std::remove(seg_path.c_str());

    std::printf("\nout-of-core streaming (oocore on '%s', %u iters, %u "
                "threads):\n"
                "  segments %u   budget %zu B   peak resident %zu B   "
                "within budget: %s\n"
                "  in-core %.4f s   streaming %.4f s   io-wait %.4f s   "
                "overlap %.0f%%\n"
                "  fetch %.4f s = read %.4f s + verify %.4f s\n"
                "  bytes fetched %llu   ranks bitwise-identical: %s\n",
                d.name.c_str(), iters, oo_threads, st.segments, budget,
                st.peak_resident_bytes, budget_ok ? "yes" : "NO",
                incore.report.seconds, streaming.report.seconds,
                st.io_wait_seconds, 100.0 * st.overlap_ratio(),
                st.fetch_seconds, st.read_seconds, st.verify_seconds,
                static_cast<unsigned long long>(st.bytes_fetched),
                bitwise ? "yes" : "NO");
    jw.key("oocore");
    jw.begin_object();
    jw.kv("dataset", d.name);
    jw.kv("iterations", iters);
    jw.kv("threads", oo_threads);
    jw.kv("segments", st.segments);
    jw.kv("target_segment_bytes", static_cast<std::uint64_t>(target));
    jw.kv("budget_bytes", static_cast<std::uint64_t>(budget));
    jw.kv("peak_resident_bytes",
          static_cast<std::uint64_t>(st.peak_resident_bytes));
    jw.kv("budget_ok", budget_ok);
    jw.kv("incore_seconds", incore.report.seconds);
    jw.kv("streaming_seconds", streaming.report.seconds);
    jw.kv("io_wait_seconds", st.io_wait_seconds);
    jw.kv("fetch_seconds", st.fetch_seconds);
    jw.kv("read_seconds", st.read_seconds);
    jw.kv("verify_seconds", st.verify_seconds);
    jw.kv("prefetch_overlap_ratio", st.overlap_ratio());
    jw.kv("bytes_fetched", st.bytes_fetched);
    jw.kv("ranks_bitwise_identical", bitwise);
    jw.end_object();
  }

  jw.end_object();
  std::fputc('\n', jf);
  std::fclose(jf);

  std::printf("\nJSON written to %s\n", out_path.c_str());
  std::printf("expected shape: dstB/e is 4 (one 32-bit destination entry\n"
              "per edge); simB/e is the whole per-iteration DRAM traffic.\n");
  return rc;
}
