// Unit tests for src/graph: CSR invariants, builder options, transpose,
// I/O round-trips, statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"

namespace hipa::graph {
namespace {

std::vector<Edge> diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
  return {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}};
}

TEST(Csr, BuildBasics) {
  const CsrGraph g = build_csr(4, diamond());
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(3), 1u);
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
}

TEST(Csr, RejectsOutOfRangeEdge) {
  const std::vector<Edge> bad = {{0, 7}};
  EXPECT_THROW(build_csr(4, bad), Error);
}

TEST(Csr, TransposeRoundTrip) {
  const CsrGraph g = build_csr(4, diamond());
  const CsrGraph t = g.transpose();
  EXPECT_EQ(t.num_edges(), g.num_edges());
  // In-degree of 3 is 2 (from 1 and 2).
  EXPECT_EQ(t.degree(3), 2u);
  const CsrGraph back = t.transpose();
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (vid_t v = 0; v < 4; ++v) {
    const auto a = g.neighbors(v);
    const auto b = back.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Csr, CountEdgesWithin) {
  const CsrGraph g = build_csr(4, diamond());
  EXPECT_EQ(g.count_edges_within({0, 4}), 5u);
  EXPECT_EQ(g.count_edges_within({0, 3}), 2u);  // 0->1, 0->2
  EXPECT_EQ(g.count_edges_within({2, 2}), 0u);
}

TEST(Builder, RemoveSelfLoops) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 1}};
  BuildOptions opts;
  opts.remove_self_loops = true;
  const CsrGraph g = build_csr(2, edges, opts);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, RemoveDuplicates) {
  const std::vector<Edge> edges = {{0, 1}, {0, 1}, {0, 2}, {1, 2}, {1, 2}};
  BuildOptions opts;
  opts.remove_duplicates = true;
  const CsrGraph g = build_csr(3, edges, opts);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Builder, Symmetrize) {
  const std::vector<Edge> edges = {{0, 1}};
  BuildOptions opts;
  opts.symmetrize = true;
  const CsrGraph g = build_csr(2, edges, opts);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Builder, SortedNeighbors) {
  const std::vector<Edge> edges = {{0, 3}, {0, 1}, {0, 2}};
  const CsrGraph g = build_csr(4, edges);
  const auto n = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

TEST(GraphBundle, FromOut) {
  const Graph g = build_graph(4, diamond());
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.in.degree(3), 2u);
  EXPECT_EQ(g.out.degree(0), 2u);
}

TEST(Io, EdgeListRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hipa_el_test.txt";
  const std::vector<Edge> edges = diamond();
  write_edge_list(path, 4, edges);
  const EdgeListFile loaded = read_edge_list(path);
  EXPECT_EQ(loaded.num_vertices, 4u);
  ASSERT_EQ(loaded.edges.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(loaded.edges[i], edges[i]);
  }
  std::remove(path.c_str());
}

TEST(Io, EdgeListSkipsComments) {
  const std::string path = ::testing::TempDir() + "/hipa_el_comments.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# comment\n% another\n1 2\n\n3 4\n", f);
  std::fclose(f);
  const EdgeListFile loaded = read_edge_list(path);
  EXPECT_EQ(loaded.edges.size(), 2u);
  EXPECT_EQ(loaded.num_vertices, 5u);
  std::remove(path.c_str());
}

TEST(Io, BinaryCsrRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hipa_test.hcsr";
  const CsrGraph g = build_csr(4, diamond());
  save_csr(path, g);
  const CsrGraph loaded = load_csr(path);
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  for (vid_t v = 0; v < 4; ++v) {
    const auto a = g.neighbors(v);
    const auto b = loaded.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  std::remove(path.c_str());
}

TEST(Io, BinaryRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/hipa_garbage.hcsr";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a csr file at all, just text", f);
  std::fclose(f);
  EXPECT_THROW(load_csr(path), Error);
  std::remove(path.c_str());
}

namespace {

/// Runs `fn`, expecting it to throw hipa::Error; returns the message.
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected hipa::Error, none thrown";
  return {};
}

void write_file(const std::string& path, const void* data,
                std::size_t bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, bytes, f), bytes);
  std::fclose(f);
}

void write_text(const std::string& path, const char* text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(text, f);
  std::fclose(f);
}

std::vector<char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<char> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

}  // namespace

TEST(Io, BinaryRejectsTruncatedFile) {
  const std::string path = ::testing::TempDir() + "/hipa_trunc.hcsr";
  save_csr(path, build_csr(4, diamond()));
  std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 10u);
  bytes.resize(bytes.size() - 10);  // chop the payload tail
  write_file(path, bytes.data(), bytes.size());
  const std::string msg = error_message([&] { (void)load_csr(path); });
  EXPECT_NE(msg.find("size mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Io, BinaryRejectsForeignMagic) {
  const std::string path = ::testing::TempDir() + "/hipa_foreign.hcsr";
  // Plausibly sized binary file with the wrong magic: must be named
  // as a foreign format, not as a truncation.
  std::vector<char> bytes(64, '\x7f');
  write_file(path, bytes.data(), bytes.size());
  const std::string msg = error_message([&] { (void)load_csr(path); });
  EXPECT_NE(msg.find("foreign"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Io, BinaryRejectsChecksumMismatch) {
  const std::string path = ::testing::TempDir() + "/hipa_cksum.hcsr";
  save_csr(path, build_csr(4, diamond()));
  std::vector<char> bytes = slurp(path);
  ASSERT_GE(bytes.size(), 32u);
  bytes[24] ^= 0x01;  // flip one bit inside the v2 checksum word
  write_file(path, bytes.data(), bytes.size());
  const std::string msg = error_message([&] { (void)load_csr(path); });
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Io, BinaryRejectsCorruptedCounts) {
  const std::string path = ::testing::TempDir() + "/hipa_counts.hcsr";
  save_csr(path, build_csr(4, diamond()));
  std::vector<char> bytes = slurp(path);
  bytes[8] ^= 0x01;  // vertex-count word: checksum must catch it
  write_file(path, bytes.data(), bytes.size());
  EXPECT_THROW((void)load_csr(path), Error);
  std::remove(path.c_str());
}

TEST(Io, BinaryAcceptsV1Header) {
  // A v1 file is the 24-byte checksum-free header + payload. Build it
  // by hand so the reader keeps accepting pre-v2 artifacts.
  const std::string path = ::testing::TempDir() + "/hipa_v1.hcsr";
  const CsrGraph g = build_csr(4, diamond());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint64_t magic = 0x48435352'00000001ULL;
  const std::uint64_t v = g.num_vertices();
  const std::uint64_t e = g.num_edges();
  std::fwrite(&magic, 1, 8, f);
  std::fwrite(&v, 1, 8, f);
  std::fwrite(&e, 1, 8, f);
  std::fwrite(g.offsets().data(), 1, g.offsets().size_bytes(), f);
  std::fwrite(g.targets().data(), 1, g.targets().size_bytes(), f);
  std::fclose(f);
  const CsrGraph loaded = load_csr(path);
  ASSERT_EQ(loaded.num_vertices(), g.num_vertices());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  for (vid_t u = 0; u < 4; ++u) {
    const auto a = g.neighbors(u);
    const auto b = loaded.neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  std::remove(path.c_str());
}

TEST(Io, EdgeListRejectsNegativeId) {
  const std::string path = ::testing::TempDir() + "/hipa_el_neg.txt";
  write_text(path, "0 1\n-3 4\n");
  const std::string msg =
      error_message([&] { (void)read_edge_list(path); });
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("negative"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Io, EdgeListRejectsOverflowingId) {
  const std::string path = ::testing::TempDir() + "/hipa_el_ovf.txt";
  // kInvalidVid (2^32 - 1) and anything past it must be refused:
  // they'd silently wrap a 64-bit parse into a bogus vid_t.
  write_text(path, "1 2\n3 4\n7 4294967295\n");
  const std::string msg =
      error_message([&] { (void)read_edge_list(path); });
  EXPECT_NE(msg.find(":3:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("overflows"), std::string::npos) << msg;
  write_text(path, "1 99999999999999999999\n");
  EXPECT_THROW((void)read_edge_list(path), Error);
  std::remove(path.c_str());
}

TEST(Io, EdgeListRejectsNonNumericToken) {
  const std::string path = ::testing::TempDir() + "/hipa_el_alpha.txt";
  write_text(path, "0 1\n2 x\n");
  const std::string msg =
      error_message([&] { (void)read_edge_list(path); });
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("malformed"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Io, EdgeListRejectsMissingField) {
  const std::string path = ::testing::TempDir() + "/hipa_el_short.txt";
  write_text(path, "0 1\n1 2\n5\n");
  const std::string msg =
      error_message([&] { (void)read_edge_list(path); });
  EXPECT_NE(msg.find(":3:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("missing"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Io, EdgeListRejectsTrailingGarbage) {
  const std::string path = ::testing::TempDir() + "/hipa_el_trail.txt";
  write_text(path, "0 1 weight=0.5\n");
  const std::string msg =
      error_message([&] { (void)read_edge_list(path); });
  EXPECT_NE(msg.find(":1:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("trailing garbage"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Stats, DegreeStats) {
  const CsrGraph g = build_csr(4, diamond());
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.min_degree, 1u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 5.0 / 4.0);
  EXPECT_GT(s.skew_vertex_fraction_for_90pct_edges, 0.0);
}

TEST(Stats, PartitionEdgeStats) {
  // Two partitions of 2 vertices: {0,1} and {2,3}.
  const CsrGraph g = build_csr(4, diamond());
  const PartitionEdgeStats s = partition_edge_stats(g, 2);
  EXPECT_EQ(s.num_partitions, 2u);
  // 0->1 intra; 2->3 intra; 0->2, 1->3, 3->0 inter.
  EXPECT_EQ(s.intra_edges_total, 2u);
  EXPECT_EQ(s.inter_edges_total, 3u);
  EXPECT_EQ(s.intra_edges_total + s.inter_edges_total, g.num_edges());
  // 0->2 and 1->3 and 3->0 have distinct (src, dst-partition) pairs.
  EXPECT_EQ(s.compressed_inter_total, 3u);
}

TEST(Stats, CompressionCollapsesSharedTargets) {
  // v0 -> {2, 3}: both in partition 1 => one compressed inter-edge.
  const std::vector<Edge> edges = {{0, 2}, {0, 3}};
  const CsrGraph g = build_csr(4, edges);
  const PartitionEdgeStats s = partition_edge_stats(g, 2);
  EXPECT_EQ(s.inter_edges_total, 2u);
  EXPECT_EQ(s.compressed_inter_total, 1u);
}

}  // namespace
}  // namespace hipa::graph
