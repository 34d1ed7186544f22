// Reproduces paper Table 1: graph descriptions — vertex/edge counts and
// intra-/inter-edges per partition at the 1 MB partition size.
//
// Stand-in rows print both the scaled synthetic sizes actually used and
// the paper's full-size numbers for comparison.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "graph/stats.hpp"

int main(int argc, char** argv) {
  using namespace hipa;
  const bench::Flags flags = bench::Flags::parse(argc, argv);

  bench::print_banner("Table 1: graph descriptions", "paper Table 1");
  std::printf("%-9s %6s | %9s %10s %7s %7s | %10s %10s %8s\n", "graph",
              "1/N", "#V", "#E", "avgdeg", "skew90", "intra/prt",
              "inter/prt", "cmpr");
  std::printf("  (skew90: smallest vertex fraction covering 90%% of "
              "edges; intra/inter at the paper's 1 MB partition, scaled "
              "1/N; cmpr: edges per compressed message)\n");

  for (const auto& d : bench::load_datasets(flags)) {
    const auto deg = graph::degree_stats(d.graph.out);
    // 1 MB partition scaled with the dataset (paper Table 1 basis).
    const vid_t per_part = static_cast<vid_t>(
        std::max<std::uint64_t>(1024 * 1024 / d.scale / sizeof(rank_t), 1));
    const auto ps = graph::partition_edge_stats(d.graph.out, per_part);
    const double cmpr =
        ps.compressed_inter_total == 0
            ? 0.0
            : static_cast<double>(ps.inter_edges_total) /
                  static_cast<double>(ps.compressed_inter_total);
    std::printf("%-9s %6u | %9u %10llu %7.1f %7.3f | %10.0f %10.0f %8.2f\n",
                d.name.c_str(), d.scale, d.graph.num_vertices(),
                static_cast<unsigned long long>(d.graph.num_edges()),
                deg.avg_degree, deg.skew_vertex_fraction_for_90pct_edges,
                ps.intra_per_partition, ps.inter_per_partition, cmpr);
  }

  std::printf("\npaper Table 1 (full size; intra/inter per 1MB partition):\n");
  for (const auto& info : graph::paper_datasets()) {
    const bool billions = info.paper_edges >= 1e9;
    std::printf("  %-9s %.1fM vertices, %.1f%c edges (%s)\n",
                info.name.c_str(), info.paper_vertices / 1e6,
                info.paper_edges / (billions ? 1e9 : 1e6),
                billions ? 'B' : 'M', info.description.c_str());
  }
  std::printf("  journal 30.8K/7.9M  pld 72K/1.6M  wiki 74.9K/0.5M\n"
              "  kron 113K/2.8M  twitter 10.5K/2.3M  mpi 0.2M/1.6M\n");
  return 0;
}
