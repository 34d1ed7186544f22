// Tests for the PCPM bins: the compressed message structure must be a
// lossless re-encoding of the graph, and the per-node slice helpers
// must tile the arrays exactly.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "pcp/bins.hpp"

namespace hipa::pcp {
namespace {

using graph::build_csr;
using graph::CsrGraph;
using part::CachePartitioning;

/// Decode bins back into an edge multiset, walking the flag-packed
/// destination list exactly the way a gather kernel does.
std::multiset<std::pair<vid_t, vid_t>> decode(const PcpmBins& bins) {
  std::multiset<std::pair<vid_t, vid_t>> edges;
  const auto src = bins.src_list();
  for (const PairInfo& pr : bins.pairs()) {
    eid_t msg = 0;
    vid_t s = kInvalidVid;
    for (eid_t j = pr.dst_off; j < pr.dst_off + pr.dst_count; ++j) {
      const vid_t packed = bins.dst_list()[j];
      if (PcpmBins::is_msg_start(packed)) {
        s = src[pr.src_off + msg];
        ++msg;
      }
      edges.emplace(s, PcpmBins::dst_vertex(packed));
    }
    EXPECT_EQ(msg, pr.msg_count);
  }
  return edges;
}

std::multiset<std::pair<vid_t, vid_t>> graph_edges(const CsrGraph& g) {
  std::multiset<std::pair<vid_t, vid_t>> edges;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (vid_t u : g.neighbors(v)) edges.emplace(v, u);
  }
  return edges;
}

TEST(Bins, LosslessOnTinyGraph) {
  const CsrGraph g =
      build_csr(8, {{0, 1}, {0, 5}, {0, 6}, {3, 7}, {5, 0}, {7, 7}});
  const CachePartitioning parts(8, 4 * 4, 4);  // 4 vertices/partition
  const PcpmBins bins = build_bins(g, parts);
  EXPECT_EQ(bins.total_dests(), g.num_edges());
  EXPECT_EQ(decode(bins), graph_edges(g));
}

TEST(Bins, CompressionMatchesPaperSemantics) {
  // v0 -> {4,5,6}: three inter-edges into partition 1 collapse to one
  // message (paper Fig. 4).
  const CsrGraph g = build_csr(8, {{0, 4}, {0, 5}, {0, 6}});
  const CachePartitioning parts(8, 4 * 4, 4);
  const PcpmBins bins = build_bins(g, parts);
  EXPECT_EQ(bins.total_messages(), 1u);
  EXPECT_EQ(bins.total_dests(), 3u);
  EXPECT_DOUBLE_EQ(bins.compression_ratio(), 3.0);
}

TEST(Bins, MessageCountMatchesStatsModule) {
  const auto edges = graph::generate_zipf(
      {.num_vertices = 1 << 10, .num_edges = 1 << 13, .seed = 21});
  const CsrGraph g = build_csr(1 << 10, edges);
  const vid_t per_part = 128;
  const CachePartitioning parts(1 << 10, per_part * 4, 4);
  const PcpmBins bins = build_bins(g, parts);
  const auto s = graph::partition_edge_stats(g, per_part);
  // Messages = compressed inter pairs + intra (v, own-partition) pairs.
  eid_t intra_msgs = 0;
  {
    std::vector<vid_t> last(parts.num_partitions(), kInvalidVid);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      const auto p = parts.partition_of(v);
      for (vid_t u : g.neighbors(v)) {
        if (parts.partition_of(u) == p && last[p] != v) {
          last[p] = v;
          ++intra_msgs;
        }
      }
    }
  }
  EXPECT_EQ(bins.total_messages(), s.compressed_inter_total + intra_msgs);
}

TEST(Bins, PairsSortedBySrcThenDst) {
  const auto edges = graph::generate_erdos_renyi(512, 4096, 5);
  const CsrGraph g = build_csr(512, edges);
  const CachePartitioning parts(512, 64 * 4, 4);
  const PcpmBins bins = build_bins(g, parts);
  for (std::size_t k = 1; k < bins.pairs().size(); ++k) {
    const auto& a = bins.pairs()[k - 1];
    const auto& b = bins.pairs()[k];
    EXPECT_TRUE(a.src_part < b.src_part ||
                (a.src_part == b.src_part && a.dst_part < b.dst_part));
  }
}

TEST(Bins, FlagCountMatchesMessageCount) {
  const auto edges = graph::generate_zipf(
      {.num_vertices = 1 << 10, .num_edges = 1 << 13, .seed = 8});
  const CsrGraph g = build_csr(1 << 10, edges);
  const CachePartitioning parts(1 << 10, 64 * 4, 4);
  const PcpmBins bins = build_bins(g, parts);
  eid_t flags = 0;
  for (vid_t packed : bins.dst_list()) {
    if (PcpmBins::is_msg_start(packed)) ++flags;
  }
  EXPECT_EQ(flags, bins.total_messages());
  // Every pair's slice must begin with a flagged entry (the gather's
  // message index may start at -1 and is always bumped before the
  // first value read).
  for (const PairInfo& pr : bins.pairs()) {
    ASSERT_GT(pr.dst_count, 0u);
    EXPECT_TRUE(PcpmBins::is_msg_start(bins.dst_list()[pr.dst_off]));
  }
}

TEST(Bins, SlicesTileTheArrays) {
  const auto edges = graph::generate_zipf(
      {.num_vertices = 1 << 11, .num_edges = 1 << 14, .seed = 13});
  const CsrGraph g = build_csr(1 << 11, edges);
  const CachePartitioning parts(1 << 11, 256 * 4, 4);
  const PcpmBins bins = build_bins(g, parts);
  const std::uint32_t num_parts = parts.num_partitions();
  // Split partitions in two "nodes" at every possible boundary: the two
  // slices must exactly tile [0, total).
  for (std::uint32_t cut : {num_parts / 3, num_parts / 2, num_parts - 1}) {
    const auto [a0, a1] = bins.src_slice(0, cut);
    const auto [b0, b1] = bins.src_slice(cut, num_parts);
    EXPECT_EQ(a0, 0u);
    EXPECT_EQ(a1, b0);
    EXPECT_EQ(b1, bins.total_messages());
    const auto [m0, m1] = bins.msg_slice(0, cut);
    const auto [n0, n1] = bins.msg_slice(cut, num_parts);
    EXPECT_EQ(m0, 0u);
    EXPECT_EQ(m1, n0);
    EXPECT_EQ(n1, bins.total_messages());
    const auto [d0, d1] = bins.dst_slice(0, cut);
    const auto [e0, e1] = bins.dst_slice(cut, num_parts);
    EXPECT_EQ(d0, 0u);
    EXPECT_EQ(d1, e0);
    EXPECT_EQ(e1, bins.total_dests());
  }
}

TEST(Bins, LargerPartitionsCompressBetter) {
  // Paper §4.3/§4.5: compression improves with partition size.
  const auto edges = graph::generate_zipf(
      {.num_vertices = 1 << 12, .num_edges = 1 << 15, .seed = 31});
  const CsrGraph g = build_csr(1 << 12, edges);
  const PcpmBins small = build_bins(g, CachePartitioning(1 << 12, 64 * 4, 4));
  const PcpmBins large =
      build_bins(g, CachePartitioning(1 << 12, 1024 * 4, 4));
  EXPECT_GT(large.compression_ratio(), small.compression_ratio());
  EXPECT_LT(large.total_messages(), small.total_messages());
}

TEST(Bins, AutoFallsBackToWideForHugePartitions) {
  // One partition spanning > 2^15 vertices (the paper's 256 KB
  // partitions hold 2^16): the global ids still decode to the graph.
  const vid_t n = (vid_t{1} << 15) + 100;
  const std::vector<Edge> edge_list = {
      {0, n - 1}, {1, 2}, {n - 1, 0}, {n - 2, 1}};
  const CsrGraph g = build_csr(n, edge_list);
  const CachePartitioning parts(n, std::uint64_t{n} * 4, 4);
  ASSERT_GT(parts.vertices_per_partition(), vid_t{1} << 15);
  const PcpmBins bins = build_bins(g, parts);
  EXPECT_EQ(bins.dst_list().size(), bins.total_dests());
  EXPECT_EQ(decode(bins), graph_edges(g));
}

class BinsLossless : public ::testing::TestWithParam<
                         std::tuple<int, vid_t, eid_t, vid_t>> {};

TEST_P(BinsLossless, DecodeMatchesGraph) {
  const auto [seed, n, m, per_part] = GetParam();
  const auto edges = graph::generate_zipf(
      {.num_vertices = n, .num_edges = m,
       .seed = static_cast<std::uint64_t>(seed)});
  const CsrGraph g = build_csr(n, edges);
  const CachePartitioning parts(n, std::uint64_t{per_part} * 4, 4);
  const PcpmBins bins = build_bins(g, parts);
  EXPECT_EQ(decode(bins), graph_edges(g));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinsLossless,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values<vid_t>(100, 1000),
                       ::testing::Values<eid_t>(500, 5000),
                       ::testing::Values<vid_t>(16, 100, 4096)));

}  // namespace
}  // namespace hipa::pcp
