// pr_incore and pr_stream: 20-iteration PageRank on an R-MAT graph,
// in core through the HiPa PcpmEngine or streamed from a segmented HCSR
// file through the OocoreEngine.
//
// Set-up (building the CSR from the generated edges, writing and opening
// the segmented file, constructing the engine) is repeated and its
// median reported; the measured window then runs back-to-back 20-iteration
// runs. Every run's ranks must be bitwise identical to the first run's,
// and the first run must lie within kL1Bound of algo::pagerank_reference.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algos/pagerank.hpp"
#include "common.hpp"
#include "engines/backend.hpp"
#include "engines/oocore_engine.hpp"
#include "engines/pcpm_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "partition/plan.hpp"
#include "pcp/bins.hpp"

namespace perfbench {

namespace {

using namespace hipa;

constexpr unsigned kIterations = 20;  // the paper's iteration count
constexpr unsigned kThreads = 4;
constexpr std::uint64_t kPartitionBytes = 256 * 1024;
/// Float ranks of a parallel run differ from the serial reference only
/// by summation order; over 20 iterations that stays far below this L1
/// distance (ranks sum to 1).
constexpr double kL1Bound = 1e-4;

engine::PcpmOptions pcpm_options(unsigned threads) {
  return engine::PcpmOptions::hipa(threads, 1, kPartitionBytes);
}

/// A constructed engine of either kind, behind one run() call.
struct Engine {
  engine::NativeBackend backend;
  std::unique_ptr<engine::PcpmEngine<engine::NativeBackend>> incore;
  std::unique_ptr<engine::OocoreEngine> streamed;

  engine::RunResult run(const engine::PageRankOptions& o) {
    ScopedSpan span("engines.run");
    return incore ? incore->run(o) : streamed->run(o);
  }
};

}  // namespace


/// The partition and bins the engine constructor builds, rebuilt by a
/// direct call into each layer so their cost and shape show per layer.
void probe_partition_and_bins(const graph::Graph& g, unsigned threads,
                              Result& out) {
  const engine::PcpmOptions opt = pcpm_options(threads);
  part::PlanConfig cfg;
  cfg.partition_bytes = opt.partition_bytes;
  cfg.vertex_bytes = sizeof(rank_t);
  cfg.num_nodes = 1;
  cfg.threads_per_node = {opt.num_threads};
  part::HierarchicalPlan plan;
  const double plan_s = timed("partition.build_hierarchical_plan", [&] {
    plan = part::build_hierarchical_plan(g.out, cfg);
  });
  std::uint64_t max_edges = 0, sum_edges = 0;
  for (unsigned t = 0; t < plan.num_threads(); ++t) {
    max_edges = std::max(max_edges, plan.thread_edge_count(t));
    sum_edges += plan.thread_edge_count(t);
  }
  const double mean_edges =
      double(sum_edges) / double(std::max(1u, plan.num_threads()));
  pcp::PcpmBins bins;
  const double bins_s = timed("pcp.build_bins", [&] {
    bins = pcp::build_bins(g.out, plan.parts);
  });
  out.set("partition.plan_s", plan_s, "s");
  out.set("partition.edge_imbalance",
          mean_edges > 0 ? double(max_edges) / mean_edges : 1.0, "ratio");
  out.set("pcp.bins_s", bins_s, "s");
  out.set("pcp.msgs_per_edge",
          double(bins.total_messages()) / double(g.num_edges()), "ratio");
  out.set("pcp.bin_mb", mib(bins.footprint_bytes()), "MiB");
}

/// Per-layer split of one telemetered run.
void record_engine_telemetry(const engine::RunReport& rep, std::uint64_t edges,
                             std::uint64_t extra_bytes, Result& out) {
  using runtime::Phase;
  const runtime::RunTelemetry& tel = rep.telemetry;
  const double threads = std::max(1u, tel.threads);
  double barrier_sum = 0.0, bytes = double(extra_bytes);
  std::uint64_t crossings = 0;
  for (const runtime::PhaseAggregate& p : tel.phases) {
    barrier_sum += p.barrier_sum_seconds;
    crossings += p.barrier_crossings;
    bytes += double(p.bytes_produced + p.bytes_consumed);
  }
  out.set("engines.init_s", tel[Phase::kInit].wall_avg_seconds(), "s");
  out.set("engines.scatter_s", tel[Phase::kScatter].wall_avg_seconds(), "s");
  out.set("engines.gather_s", tel[Phase::kGather].wall_avg_seconds(), "s");
  out.set("engines.barrier_s", barrier_sum / threads, "s");
  out.set("engines.bytes_per_edge",
          bytes / (double(edges) * std::max(1u, rep.iterations)), "B");
  out.set("runtime.barrier_ns_per_crossing",
          crossings == 0 ? 0.0 : 1e9 * barrier_sum / double(crossings), "ns");
  out.set("runtime.arena_mb", mib(rep.arena.total_used()), "MiB");
  out.set("engines.run_s", rep.seconds, "s");
}

void probe_incore_engine(const graph::Graph& g, unsigned threads,
                         Result& out) {
  engine::NativeBackend backend;
  std::unique_ptr<engine::PcpmEngine<engine::NativeBackend>> eng;
  out.set("engines.ctor_s", timed("engines.pcpm_ctor", [&] {
            eng = std::make_unique<engine::PcpmEngine<engine::NativeBackend>>(
                g, pcpm_options(threads), backend);
          }), "s");
  engine::PageRankOptions tel(kIterations);
  tel.telemetry = runtime::Telemetry::kOn;
  engine::RunReport rep;
  {
    ScopedSpan span("engines.run");
    rep = eng->run(tel).report;
  }
  record_engine_telemetry(rep, g.num_edges(), 0, out);
}

void run_pr(const Config& cfg, bool streamed, Result& out) {
  graph::RmatParams rp;
  rp.scale = cfg.tiny ? 12 : 21;
  rp.edge_factor = cfg.tiny ? 8 : 16;
  rp.seed = cfg.seed;
  out.param("generator", "rmat");
  out.param("rmat.scale", rp.scale);
  out.param("rmat.edge_factor", rp.edge_factor);
  out.param("rmat.abc", std::to_string(rp.a) + "/" + std::to_string(rp.b) +
                            "/" + std::to_string(rp.c));
  out.param("iterations", kIterations);
  out.param("threads", kThreads);

  // Input preparation, excluded from set-up time.
  std::vector<Edge> edges;
  {
    ScopedSpan span("gen.rmat");
    edges = graph::generate_rmat(rp);
  }
  const vid_t n = vid_t{1} << rp.scale;
  const std::string seg_path = cfg.out_dir + "/" + cfg.workload + "-" +
                               std::to_string(cfg.seed) + ".hcsr";

  // Rounds of {set-up, measured runs}: each round builds a fresh graph
  // and engine, so the medians span several memory layouts.
  const unsigned rounds = cfg.tiny ? 2 : 3;
  const engine::PageRankOptions plain(kIterations);
  engine::PageRankOptions tel(kIterations);
  tel.telemetry = runtime::Telemetry::kOn;
  tel.trace_path = cfg.out_dir + "/engine-" + cfg.workload + "-" +
                   std::to_string(cfg.seed) + ".trace.json";
  std::vector<double> setup_s, build_s, open_s, ctor_s, run_s, cpu_s, plain_s,
      tel_s;
  std::vector<rank_t> reference, first;
  std::uint64_t m = 0, peak_rss = 0;
  unsigned timed_runs = 0;
  engine::RunReport last;
  std::uint64_t fetched = 0;

  auto check_run = [&](std::vector<rank_t> ranks, bool corrupt) {
    if (corrupt) ranks[n / 2] = std::nextafter(ranks[n / 2], 1.0f);
    if (first.empty()) {
      first = std::move(ranks);
      const double l1 = algo::l1_distance(first, reference);
      out.param("l1_vs_reference", l1);
      out.param("l1_bound", kL1Bound);
      out.check(l1 <= kL1Bound);
      return;
    }
    // Bitwise identical across runs and across engine instances.
    out.check(ranks.size() == first.size() &&
              std::memcmp(ranks.data(), first.data(),
                          first.size() * sizeof(rank_t)) == 0);
  };

  for (unsigned round = 0; round < rounds; ++round) {
    std::optional<graph::Graph> g;
    auto eng = std::make_unique<Engine>();
    {
      ScopedSpan span("setup");
      const std::int64_t t0 = now_ns();
      build_s.push_back(timed("graph.build_graph",
                              [&] { g = graph::build_graph(n, edges); }));
      if (!streamed) {
        ctor_s.push_back(timed("engines.pcpm_ctor", [&] {
          eng->incore =
              std::make_unique<engine::PcpmEngine<engine::NativeBackend>>(
                  *g, pcpm_options(kThreads), eng->backend);
        }));
      } else {
        // At least 8 segments; the budget holds the two staging slots
        // and stays below the total payload.
        const std::size_t target =
            graph::segment_payload_bytes(n, g->num_edges()) / 12;
        timed("graph.save_segmented_csr",
              [&] { graph::save_segmented_csr(seg_path, *g, target); });
        graph::SegmentedCsr scsr;
        open_s.push_back(timed("graph.segment_open", [&] {
          scsr = graph::SegmentedCsr::open(seg_path);
        }));
        const std::size_t budget =
            2 * scsr.max_payload_bytes() + scsr.max_payload_bytes() / 4;
        HIPA_CHECK(scsr.num_segments() >= 8 &&
                       budget < scsr.total_payload_bytes(),
                   "segmented layout misses the workload's shape");
        engine::OocoreOptions oo;
        oo.num_threads = kThreads;
        oo.resident_budget_bytes = budget;
        ctor_s.push_back(timed("engines.oocore_ctor", [&] {
          eng->streamed = std::make_unique<engine::OocoreEngine>(
              seg_path, oo, eng->backend);
        }));
        out.param("segments", scsr.num_segments());
        out.param("resident_budget_bytes", double(budget));
        out.param("payload_bytes", double(scsr.total_payload_bytes()));
      }
      setup_s.push_back(1e-9 * double(now_ns() - t0));
    }
    m = g->num_edges();
    if (round == 0) {
      ScopedSpan span("algos.pagerank_reference");
      reference = algo::pagerank_reference(*g, kIterations);
      if (cfg.fault == Fault::kRefBit) {
        std::uint32_t bits;
        std::memcpy(&bits, &reference[n / 3], sizeof bits);
        bits ^= 1u << 30;
        std::memcpy(&reference[n / 3], &bits, sizeof bits);
      }
    }
    // The streamed engine bypasses partition and pcp.
    if (cfg.trace && round == 0 && !streamed) {
      probe_partition_and_bins(*g, kThreads, out);
    }
    if (round + 1 == rounds) edges = std::vector<Edge>();
    // The streamed engine reads only its file; drop the in-memory graph
    // so the window's resident set is the engine's own.
    if (streamed) g.reset();

    if (!cfg.trace) {
      if (!streamed) check_run(eng->run(plain).ranks, false);  // warm-up
      RssSampler rss;
      const std::int64_t start = now_ns();
      const std::int64_t end =
          start + std::int64_t(cfg.seconds / rounds * 1e9);
      do {
        const std::int64_t t0 = now_ns();
        const double cpu0 = cpu_seconds();
        engine::RunResult r = eng->run(plain);
        run_s.push_back(1e-9 * double(now_ns() - t0));
        cpu_s.push_back(cpu_seconds() - cpu0);
        check_run(std::move(r.ranks),
                  cfg.fault == Fault::kAnswer && ++timed_runs == 2);
      } while (now_ns() < end);
      // The last round's peak: by then the generated edge list is gone.
      peak_rss = rss.stop();
    } else if (!streamed || round + 1 == rounds) {
      // Untraced and telemetered runs side by side: the difference is
      // the tracing overhead.
      std::int64_t t0 = now_ns();
      engine::RunResult a = eng->run(plain);
      plain_s.push_back(1e-9 * double(now_ns() - t0));
      check_run(std::move(a.ranks), false);
      t0 = now_ns();
      engine::RunResult b = eng->run(tel);
      tel_s.push_back(1e-9 * double(now_ns() - t0));
      check_run(std::move(b.ranks), cfg.fault == Fault::kAnswer);
      last = std::move(b.report);
      if (streamed) {
        const engine::OocoreStats& st = eng->streamed->stats();
        fetched = st.bytes_fetched;
        out.set("engines.io_wait_s", st.io_wait_seconds, "s");
        out.set("engines.fetch_s", st.fetch_seconds, "s");
        out.set("engines.overlap", st.overlap_ratio(), "ratio");
      }
    }
  }
  out.param("vertices", double(n));
  out.param("edges", double(m));
  out.param("rank_array_bytes", double(std::uint64_t{n} * sizeof(rank_t)));
  out.set("setup_s", median(setup_s), "s");
  out.set("graph.build_s", median(build_s), "s");
  out.set("engines.ctor_s", median(ctor_s), "s");
  if (streamed) out.set("graph.segment_open_s", median(open_s), "s");

  if (!cfg.trace) {
    out.set("pr_run_s", median(run_s), "s");
    out.set("cpu_us_per_op", 1e6 * median(cpu_s), "us");
    out.set("peak_rss_mb", mib(peak_rss), "MiB");
    out.param("runs", double(run_s.size()));
    out.notes.push_back("pr_run_s median " + std::to_string(median(run_s)) +
                        " s over " + std::to_string(run_s.size()) + " runs");
  } else {
    out.set("pr_run_s", median(plain_s), "s");
    out.set("trace.overhead_ms", 1e3 * (median(tel_s) - median(plain_s)),
            "ms");
    if (streamed) {
      // Direct read of every segment through graph/io, outside the engine.
      graph::SegmentedCsr scsr = graph::SegmentedCsr::open(seg_path);
      std::vector<unsigned char> buf(scsr.max_payload_bytes());
      const double read_s = timed("graph.read_segment_all", [&] {
        for (unsigned s = 0; s < scsr.num_segments(); ++s) {
          scsr.read_segment(s, buf.data());
        }
      });
      out.set("graph.segment_read_gbps",
              1e-9 * double(scsr.total_payload_bytes()) / read_s, "GB/s");
    }
    record_engine_telemetry(last, m, fetched, out);
  }
  if (streamed) std::remove(seg_path.c_str());
}

}  // namespace perfbench
