// Reproduces paper Table 3: normalized execution time across partition
// sizes on the Haswell vs Skylake micro-architectures — and, new in
// this revision, the same sweep natively on the host with real PMU
// counter groups beside the simulator's numbers.
//
// Expected shape (paper): on Skylake (1 MB L2, non-inclusive LLC) the
// optimum sits at 256 KB = L2/4 (128 KB for p-PR); on Haswell (256 KB
// L2, inclusive LLC) all three methodologies prefer 128 KB = L2/2; both
// architectures fall off sharply at 512 KB.
//
// The native section runs the same (method x partition-size) grid on
// this machine with telemetry + hardware counters on, so the simulated
// LLC behaviour can be checked against real LLC-load-miss rates from
// perf_event. When the PMU is inaccessible (perf_event_paranoid,
// containers) the hw columns print as unavailable and the JSON records
// hw.available=false — the sweep itself still runs.
//
// Emits machine-readable JSON (default BENCH_table3.json, --out=)
// validated by bench_gate.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "runtime/affinity.hpp"

namespace {

using namespace hipa;

/// One native run at a fixed partition size with hw counters on.
struct NativePoint {
  std::uint64_t partition_bytes = 0;
  double seconds = 0.0;
  runtime::RunTelemetry telemetry;
  numa::PlacementAudit placement;
};

NativePoint run_native_point(const graph::Graph& g, algo::Method m,
                             unsigned scale, std::uint64_t part_bytes,
                             unsigned iters, const std::string& trace) {
  NativePoint p;
  algo::MethodParams params;
  params.scale_denom = scale;
  params.partition_bytes = part_bytes;
  params.pr.iterations = iters;
  params.pr.telemetry = runtime::Telemetry::kOn;
  params.pr.hw_counters = runtime::HwProf::kOn;
  params.pr.audit_placement = true;
  params.pr.trace_path = trace;
  p.partition_bytes = part_bytes;
  auto res = algo::run_method_native(m, g, params);
  p.seconds = res.report.seconds;
  p.telemetry = res.report.telemetry;
  p.placement = res.report.placement_audit;
  return p;
}

double llc_miss_pct(const runtime::RunTelemetry& t) {
  runtime::HwCounters sum;
  for (unsigned pi = 0; pi < runtime::kNumPhases; ++pi) {
    sum.add(t[static_cast<runtime::Phase>(pi)].hw);
  }
  return sum.llc_loads > 0
             ? 100.0 * static_cast<double>(sum.llc_load_misses) /
                   static_cast<double>(sum.llc_loads)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hipa;
  const bench::Flags flags = bench::Flags::parse(argc, argv);
  const unsigned iters =
      flags.iterations != 0 ? flags.iterations : (flags.quick ? 2 : 3);
  const std::string out_path =
      flags.out.empty() ? "BENCH_table3.json" : flags.out;

  bench::print_banner("Table 3: partition size x micro-architecture",
                      "paper Table 3");
  // The paper averages over journal/pld/wiki/twitter (kron and mpi
  // exceed the Haswell box's memory); two representative graphs keep
  // this 2-arch x 4-size x 3-method sweep tractable.
  std::vector<std::string> names = {"journal", "wiki"};
  if (!flags.dataset.empty()) names = {flags.dataset};

  const std::vector<std::uint64_t> sizes_eq = {64 << 10, 128 << 10,
                                               256 << 10, 512 << 10};
  struct Arch {
    const char* name;
    sim::Topology topo;
    std::uint64_t norm_size;  ///< paper's per-arch normalization column
  };
  const Arch arches[] = {
      {"Haswell", sim::Topology::haswell_2s(), 128 << 10},
      {"Skylake", sim::Topology::skylake_2s(), 256 << 10},
  };
  // --methods=hipa,ppr narrows the sweep (names via method_from_name).
  const std::vector<algo::Method> methods = flags.methods_or(
      {algo::Method::kHipa, algo::Method::kPpr, algo::Method::kGpop});

  std::FILE* jf = std::fopen(out_path.c_str(), "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  bench::JsonWriter jw(jf);
  jw.begin_object();
  jw.kv("bench", "table3_microarch");
  jw.kv("iterations", iters);
  jw.kv("quick", flags.quick);
  jw.key("host");
  jw.begin_object();
  jw.kv("cpus", runtime::topology().num_cpus());
  jw.kv("numa_nodes", runtime::topology().num_nodes());
  jw.end_object();
  jw.key("datasets");
  jw.begin_array();
  for (const std::string& n : names) jw.value(n);
  jw.end_array();

  jw.key("arches");
  jw.begin_array();
  for (const Arch& arch : arches) {
    std::printf("\n--- %s (L2=%lluK, LLC %s) — simulated ---\n", arch.name,
                static_cast<unsigned long long>(arch.topo.l2.size_bytes >>
                                                10),
                arch.topo.inclusive_llc ? "inclusive" : "non-inclusive");
    std::printf("%8s |", "method");
    for (std::uint64_t sz : sizes_eq) {
      std::printf(" %6lluK", static_cast<unsigned long long>(sz >> 10));
    }
    std::printf("   (normalized by %lluK)\n",
                static_cast<unsigned long long>(arch.norm_size >> 10));

    jw.begin_object();
    jw.kv("arch", arch.name);
    jw.kv("l2_kb",
          static_cast<std::uint64_t>(arch.topo.l2.size_bytes >> 10));
    jw.kv("inclusive_llc", arch.topo.inclusive_llc);
    jw.kv("norm_kb", static_cast<std::uint64_t>(arch.norm_size >> 10));
    jw.key("methods");
    jw.begin_array();

    double col_sum[4] = {};
    for (algo::Method m : methods) {
      double avg[4] = {};
      for (const std::string& name : names) {
        const unsigned scale =
            graph::recommended_scale(name) * (flags.quick ? 16 : 2);
        const graph::Graph g = graph::make_dataset(name, scale);
        double secs[4] = {};
        double norm_sec = 1.0;
        for (std::size_t si = 0; si < sizes_eq.size(); ++si) {
          sim::SimMachine machine(arch.topo.scaled(scale));
          algo::MethodParams params;
          params.pr.iterations = iters;
          params.scale_denom = scale;
          params.partition_bytes = std::max<std::uint64_t>(
              sizes_eq[si] / scale, sizeof(rank_t));
          params.threads = algo::default_threads(m, arch.topo);
          const auto report =
              algo::run_method_sim(m, g, machine, params).report;
          secs[si] = report.seconds;
          if (sizes_eq[si] == arch.norm_size) norm_sec = secs[si];
        }
        for (std::size_t si = 0; si < sizes_eq.size(); ++si) {
          avg[si] += secs[si] / norm_sec;
        }
      }
      std::printf("%8s |", algo::method_name(m));
      jw.begin_object();
      jw.kv("method", algo::method_name(m));
      jw.key("normalized");
      jw.begin_array();
      for (std::size_t si = 0; si < sizes_eq.size(); ++si) {
        avg[si] /= static_cast<double>(names.size());
        col_sum[si] += avg[si];
        std::printf(" %6.2f ", avg[si]);
        jw.begin_object();
        jw.kv("kb", static_cast<std::uint64_t>(sizes_eq[si] >> 10));
        jw.kv("value", avg[si]);
        jw.end_object();
      }
      jw.end_array();
      jw.end_object();
      std::printf("\n");
    }
    jw.end_array();
    std::printf("%8s |", "average");
    jw.key("average");
    jw.begin_array();
    for (std::size_t si = 0; si < sizes_eq.size(); ++si) {
      const double a = col_sum[si] / static_cast<double>(methods.size());
      std::printf(" %6.2f ", a);
      jw.begin_object();
      jw.kv("kb", static_cast<std::uint64_t>(sizes_eq[si] >> 10));
      jw.kv("value", a);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    std::printf("\n");
  }
  jw.end_array();

  // ---- native side-by-side: same grid, real PMU counters ------------
  // One dataset keeps the native sweep proportionate; sim arch tables
  // above carry the cross-architecture story.
  {
    const std::string& name = names.front();
    const unsigned scale =
        graph::recommended_scale(name) * (flags.quick ? 16 : 2);
    const graph::Graph g = graph::make_dataset(name, scale);
    const std::uint64_t norm_size = 256 << 10;  // host-class (Skylake+)

    std::printf("\n--- native on this host ('%s', %u thread(s)) — "
                "wall-clock + PMU ---\n",
                name.c_str(), std::max(1u, runtime::available_cpus()));
    std::printf("%8s |", "method");
    for (std::uint64_t sz : sizes_eq) {
      std::printf(" %6lluK", static_cast<unsigned long long>(sz >> 10));
    }
    std::printf("   (normalized by %lluK; LLC-miss%% underneath)\n",
                static_cast<unsigned long long>(norm_size >> 10));

    jw.key("native_hw");
    jw.begin_object();
    jw.kv("dataset", name);
    jw.kv("iterations", iters);
    jw.key("methods");
    jw.begin_array();
    bool trace_written = false;
    bool hw_seen = false;
    for (algo::Method m : methods) {
      std::vector<NativePoint> points;
      for (std::uint64_t sz : sizes_eq) {
        const std::uint64_t part =
            std::max<std::uint64_t>(sz / scale, sizeof(rank_t));
        const std::string trace =
            !trace_written ? flags.trace_out : std::string();
        trace_written = trace_written || !trace.empty();
        points.push_back(
            run_native_point(g, m, scale, part, iters, trace));
      }
      double norm_sec = 1.0;
      for (std::size_t si = 0; si < sizes_eq.size(); ++si) {
        if (sizes_eq[si] == norm_size && points[si].seconds > 0.0) {
          norm_sec = points[si].seconds;
        }
      }
      std::printf("%8s |", algo::method_name(m));
      for (const NativePoint& p : points) {
        std::printf(" %6.2f ",
                    norm_sec > 0.0 ? p.seconds / norm_sec : 0.0);
      }
      std::printf("\n");
      if (points.front().telemetry.hw_available) {
        hw_seen = true;
        std::printf("%8s |", "LLC-m%");
        for (const NativePoint& p : points) {
          std::printf(" %5.1f%% ", llc_miss_pct(p.telemetry));
        }
        std::printf("\n");
      }

      jw.begin_object();
      jw.kv("method", algo::method_name(m));
      jw.key("sizes");
      jw.begin_array();
      for (std::size_t si = 0; si < sizes_eq.size(); ++si) {
        const NativePoint& p = points[si];
        jw.begin_object();
        jw.kv("kb", static_cast<std::uint64_t>(sizes_eq[si] >> 10));
        jw.kv("partition_bytes", p.partition_bytes);
        jw.kv("native_seconds", p.seconds);
        jw.kv("normalized",
              norm_sec > 0.0 ? p.seconds / norm_sec : 0.0);
        jw.kv("llc_miss_pct", llc_miss_pct(p.telemetry));
        bench::emit_telemetry(jw, p.telemetry);
        bench::emit_placement_audit(jw, p.placement);
        jw.end_object();
      }
      jw.end_array();
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    if (!hw_seen) {
      std::printf("%8s | PMU unavailable on this host "
                  "(perf_event_paranoid / container policy)\n",
                  "hw");
    }
  }

  jw.end_object();
  std::fputc('\n', jf);
  std::fclose(jf);

  std::printf("\npaper Table 3 (averages): Haswell 1.08 0.99 1.00 1.27 | "
              "Skylake 1.09 1.00 1.08 1.22\n");
  std::printf("JSON written to %s\n", out_path.c_str());
  return 0;
}
