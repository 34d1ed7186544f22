// Out-of-core subsystem: segmented HCSR v4 container (and legacy v3
// reads), streaming edge list parsing, the hipa-convert sharder core,
// and the OocoreEngine's streaming-vs-in-core bitwise-identity, budget
// and fail-closed contracts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algos/pagerank.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "engines/backend.hpp"
#include "engines/oocore_engine.hpp"
#include "graph/builder.hpp"
#include "graph/convert.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

using hipa::Edge;
using hipa::Error;
using hipa::eid_t;
using hipa::rank_t;
using hipa::vid_t;
using hipa::engine::NativeBackend;
using hipa::engine::OocoreEngine;
using hipa::engine::OocoreOptions;
using hipa::engine::PageRankOptions;
using namespace hipa::graph;

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

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

void write_file(const std::string& path, const void* data,
                std::size_t bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, bytes, f), bytes);
  std::fclose(f);
}

/// Flip the lowest bit of byte `offset` of `path` in place (same inode,
/// so a handle already open on the file sees the damage).
void flip_byte_in_place(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_NE(std::fputc(c ^ 0x01, f), EOF);
  std::fclose(f);
}

std::uint64_t get_u64(const std::vector<char>& b, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}

void put_u64(std::vector<char>& b, std::size_t off, std::uint64_t v) {
  std::memcpy(b.data() + off, &v, sizeof v);
}

/// Rewrite the segmented v4 file `v4` as a valid HCSR v3 file `v3`: the
/// layout is shared, so only the magic, the header checksum, each
/// payload checksum (FNV-1a in v3) and the manifest checksum change.
void downgrade_to_v3(const std::string& v4, const std::string& v3) {
  constexpr std::uint64_t kMagicV3 = 0x48435352'00000003ULL;
  constexpr std::size_t kManifest = 40;
  std::vector<char> b = slurp(v4);
  const std::uint64_t head[4] = {kMagicV3, get_u64(b, 8), get_u64(b, 16),
                                 get_u64(b, 24)};
  put_u64(b, 0, kMagicV3);
  put_u64(b, 32, hipa::fnv1a(head, sizeof head));
  const std::uint64_t segments = head[3];
  for (std::uint64_t s = 0; s < segments; ++s) {
    const std::size_t entry = kManifest + s * 40;
    const std::uint64_t offset = get_u64(b, entry + 16);
    const std::uint64_t bytes = get_u64(b, entry + 24);
    put_u64(b, entry + 32, hipa::fnv1a(b.data() + offset, bytes));
  }
  put_u64(b, kManifest + segments * 40,
          hipa::fnv1a(b.data() + kManifest, segments * 40));
  write_file(v3, b.data(), b.size());
}

/// Skewed test graph sharded small enough to span several segments.
Graph zipf_graph() {
  ZipfParams zp;
  zp.num_vertices = 800;
  zp.num_edges = 6000;
  zp.seed = 11;
  const std::vector<Edge> edges = generate_zipf(zp);
  return build_graph(zp.num_vertices, edges);
}

constexpr std::size_t kSmallSegment = 4096;

std::vector<rank_t> run_oocore(const std::string& path, unsigned threads,
                               bool streaming, bool prefetch,
                               unsigned iterations = 15) {
  NativeBackend backend;
  OocoreOptions opt;
  opt.num_threads = threads;
  opt.streaming = streaming;
  opt.prefetch = prefetch;
  OocoreEngine eng(path, opt, backend);
  PageRankOptions pr;
  pr.iterations = iterations;
  return eng.run(pr).ranks;
}

}  // namespace

// ---------------------------------------------------------------------------
// Streaming edge-list parsing
// ---------------------------------------------------------------------------

TEST(OocoreStream, MatchesReadEdgeListAndBoundsChunks) {
  const std::string path = tmp_path("oocore_stream.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# comment\n0 1\n1 2\n% more\n2 0\n3 1\n0 3\n", f);
  std::fclose(f);

  const EdgeListFile whole = read_edge_list(path);
  std::vector<Edge> streamed;
  std::size_t max_chunk = 0;
  const EdgeListInfo info = stream_edge_list(
      path,
      [&](std::span<const Edge> chunk) {
        max_chunk = std::max(max_chunk, chunk.size());
        streamed.insert(streamed.end(), chunk.begin(), chunk.end());
      },
      /*chunk_edges=*/2);
  EXPECT_EQ(info.num_vertices, whole.num_vertices);
  EXPECT_EQ(info.num_edges, whole.edges.size());
  EXPECT_EQ(streamed, whole.edges);
  EXPECT_LE(max_chunk, 2u);  // never materializes more than one chunk
  std::remove(path.c_str());
}

TEST(OocoreStream, KeepsStrictParseErrors) {
  const std::string path = tmp_path("oocore_stream_bad.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("0 1\n2 -3\n", f);
  std::fclose(f);
  const std::string msg = error_message([&] {
    stream_edge_list(path, [](std::span<const Edge>) {});
  });
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("negative destination id"), std::string::npos) << msg;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Segmented container round trip + integrity
// ---------------------------------------------------------------------------

TEST(OocoreFormat, RoundTripReassemblesThePullCsr) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_rt.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);

  SegmentedCsr sc = SegmentedCsr::open(path);
  EXPECT_EQ(sc.num_vertices(), g.num_vertices());
  EXPECT_EQ(sc.num_edges(), g.num_edges());
  ASSERT_GT(sc.num_segments(), 3u) << "graph too small to segment";
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(sc.out_degrees()[v], g.out.degree(v));
  }

  // Reassemble the in-CSR segment by segment; every offset and source
  // must be bitwise what the in-memory transpose holds.
  std::vector<char> payload(sc.max_payload_bytes());
  const auto in_offsets = g.in.offsets();
  const auto in_targets = g.in.targets();
  for (unsigned s = 0; s < sc.num_segments(); ++s) {
    sc.read_segment(s, payload.data());
    const SegmentedCsr::SegmentView view = sc.view(s, payload.data());
    const eid_t base = in_offsets[view.range.begin];
    for (vid_t v = view.range.begin; v < view.range.end; ++v) {
      ASSERT_EQ(view.offsets[v - view.range.begin],
                in_offsets[v] - base);
    }
    ASSERT_EQ(view.offsets[view.range.size()],
              in_offsets[view.range.end] - base);
    ASSERT_EQ(view.sources.size(), in_offsets[view.range.end] - base);
    for (std::size_t i = 0; i < view.sources.size(); ++i) {
      ASSERT_EQ(view.sources[i], in_targets[base + i]);
    }
  }
  // Payload staging never exceeded one segment; fetch accounting saw
  // every byte exactly once.
  EXPECT_EQ(sc.bytes_fetched(), sc.total_payload_bytes());
  std::remove(path.c_str());
}

TEST(OocoreFormat, MapUnmapTracksPeakBytes) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_map.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);
  SegmentedCsr sc = SegmentedCsr::open(path);
  ASSERT_GE(sc.num_segments(), 3u);

  const std::size_t b0 = sc.segment(0).payload_bytes;
  const std::size_t b1 = sc.segment(1).payload_bytes;
  const std::size_t b2 = sc.segment(2).payload_bytes;
  const void* p0 = sc.map_segment(0);
  const void* p1 = sc.map_segment(1);
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(sc.map_segment(0), p0);  // idempotent, no double accounting
  EXPECT_EQ(sc.mapped_bytes(), b0 + b1);
  sc.unmap_segment(0);
  EXPECT_EQ(sc.mapped_bytes(), b1);
  (void)sc.map_segment(2);
  EXPECT_EQ(sc.mapped_bytes(), b1 + b2);
  EXPECT_EQ(sc.peak_mapped_bytes(),
            std::max(b0 + b1, b1 + b2));  // high-water, not current
  // Mapped data is directly usable.
  const SegmentedCsr::SegmentView view = sc.view(1, p1);
  EXPECT_EQ(view.range.begin, sc.segment(1).v_begin);
  sc.unmap_segment(1);
  sc.unmap_segment(2);
  EXPECT_EQ(sc.mapped_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(OocoreFormat, RejectsTruncatedFile) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_trunc.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);
  std::vector<char> bytes = slurp(path);
  {
    // Chop into the last segment's payload proper (the file ends with
    // page padding, which truncation must reach past to matter).
    SegmentedCsr sc = SegmentedCsr::open(path);
    const SegmentInfo& last = sc.segment(sc.num_segments() - 1);
    bytes.resize(last.file_offset + last.payload_bytes / 2);
  }
  write_file(path, bytes.data(), bytes.size());
  const std::string msg =
      error_message([&] { (void)SegmentedCsr::open(path); });
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(OocoreFormat, RejectsCorruptSegmentPayload) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_flip.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);
  {
    SegmentedCsr sc = SegmentedCsr::open(path);
    std::vector<char> bytes = slurp(path);
    // Flip one byte in the middle of the last segment's payload.
    const SegmentInfo& info = sc.segment(sc.num_segments() - 1);
    bytes[info.file_offset + info.payload_bytes / 2] ^= 0x01;
    write_file(path, bytes.data(), bytes.size());
  }
  SegmentedCsr sc = SegmentedCsr::open(path);  // manifest still intact
  std::vector<char> payload(sc.max_payload_bytes());
  const unsigned last = sc.num_segments() - 1;
  const std::string msg =
      error_message([&] { sc.read_segment(last, payload.data()); });
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
  // The mmap path verifies the same checksum.
  const std::string mmsg =
      error_message([&] { (void)sc.map_segment(last); });
  EXPECT_NE(mmsg.find("checksum mismatch"), std::string::npos) << mmsg;
  // Undamaged segments still read fine.
  sc.read_segment(0, payload.data());
  std::remove(path.c_str());
}

TEST(OocoreFormat, RejectsCorruptManifest) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_manifest.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);
  std::vector<char> bytes = slurp(path);
  bytes[40] ^= 0x01;  // first manifest word (segment 0 v_begin)
  write_file(path, bytes.data(), bytes.size());
  const std::string msg =
      error_message([&] { (void)SegmentedCsr::open(path); });
  EXPECT_NE(msg.find("manifest checksum mismatch"), std::string::npos)
      << msg;
  std::remove(path.c_str());
}

TEST(OocoreFormat, VersionSkewIsExplainedBothWays) {
  const Graph g = zipf_graph();
  const std::string v3 = tmp_path("oocore_skew.hcsr3");
  const std::string v2 = tmp_path("oocore_skew.hcsr");
  save_segmented_csr(v3, g, kSmallSegment);
  save_csr(v2, g.out);

  // A v3 file fed to the in-core loader points at SegmentedCsr...
  const std::string msg3 = error_message([&] { (void)load_csr(v3); });
  EXPECT_NE(msg3.find("segmented HCSR v3"), std::string::npos) << msg3;
  EXPECT_NE(msg3.find("SegmentedCsr"), std::string::npos) << msg3;
  // ...and a v2 file fed to the segmented opener points at the sharder.
  const std::string msg2 =
      error_message([&] { (void)SegmentedCsr::open(v2); });
  EXPECT_NE(msg2.find("plain HCSR v2"), std::string::npos) << msg2;
  EXPECT_NE(msg2.find("hipa-convert"), std::string::npos) << msg2;
  std::remove(v3.c_str());
  std::remove(v2.c_str());
}

TEST(OocoreFormat, VersionSkewIsExplainedBothWaysForV4) {
  const Graph g = zipf_graph();
  const std::string v4 = tmp_path("oocore_skew.hcsr4");
  const std::string v3 = tmp_path("oocore_skew_v3.hcsr3");
  const std::string v2 = tmp_path("oocore_skew_v4.hcsr");
  save_segmented_csr(v4, g, kSmallSegment);
  downgrade_to_v3(v4, v3);
  save_csr(v2, g.out);

  // The writer emits v4, and the in-core loader names the version it
  // found and points at SegmentedCsr for either segmented version.
  const std::string msg4 = error_message([&] { (void)load_csr(v4); });
  EXPECT_NE(msg4.find("segmented HCSR v4 file"), std::string::npos) << msg4;
  EXPECT_NE(msg4.find("SegmentedCsr"), std::string::npos) << msg4;
  const std::string msg3 = error_message([&] { (void)load_csr(v3); });
  EXPECT_NE(msg3.find("segmented HCSR v3 file"), std::string::npos) << msg3;
  // The segmented opener names both versions it accepts.
  const std::string msg2 =
      error_message([&] { (void)SegmentedCsr::open(v2); });
  EXPECT_NE(msg2.find("v3/v4"), std::string::npos) << msg2;
  // A header checksum is bound to its version: a v4 header relabelled
  // v3 (or the reverse) is rejected, not parsed with the wrong hash.
  std::vector<char> relabelled = slurp(v4);
  put_u64(relabelled, 0, 0x48435352'00000003ULL);
  write_file(v2, relabelled.data(), relabelled.size());
  const std::string bad =
      error_message([&] { (void)SegmentedCsr::open(v2); });
  EXPECT_NE(bad.find("v3 header checksum mismatch"), std::string::npos)
      << bad;
  std::remove(v4.c_str());
  std::remove(v3.c_str());
  std::remove(v2.c_str());
}

TEST(OocoreFormat, ReadsLegacyV3Files) {
  const Graph g = zipf_graph();
  const std::string v4 = tmp_path("oocore_legacy.hcsr4");
  const std::string v3 = tmp_path("oocore_legacy.hcsr3");
  save_segmented_csr(v4, g, kSmallSegment);
  downgrade_to_v3(v4, v3);
  {
    // Same layout; only the payload hashes differ.
    SegmentedCsr a = SegmentedCsr::open(v4);
    SegmentedCsr b = SegmentedCsr::open(v3);
    ASSERT_EQ(a.num_segments(), b.num_segments());
    for (unsigned s = 0; s < a.num_segments(); ++s) {
      EXPECT_EQ(a.segment(s).file_offset, b.segment(s).file_offset);
      EXPECT_EQ(a.segment(s).payload_bytes, b.segment(s).payload_bytes);
      EXPECT_NE(a.segment(s).checksum, b.segment(s).checksum);
    }
  }
  // A v3 file streams bitwise what the in-core run computes.
  const std::vector<rank_t> incore =
      run_oocore(v4, 3, /*streaming=*/false, /*prefetch=*/false);
  EXPECT_EQ(incore, run_oocore(v3, 3, true, true));
  EXPECT_EQ(incore, run_oocore(v3, 3, true, false));

  // And its FNV payload checks still fail closed on both fetch paths.
  unsigned last = 0;
  {
    SegmentedCsr sc = SegmentedCsr::open(v3);
    last = sc.num_segments() - 1;
    const SegmentInfo& info = sc.segment(last);
    flip_byte_in_place(v3, info.file_offset + info.payload_bytes / 2);
  }
  SegmentedCsr sc = SegmentedCsr::open(v3);
  std::vector<char> payload(sc.max_payload_bytes());
  const std::string msg =
      error_message([&] { sc.read_segment(last, payload.data()); });
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
  const std::string mmsg =
      error_message([&] { (void)sc.map_segment(last); });
  EXPECT_NE(mmsg.find("checksum mismatch"), std::string::npos) << mmsg;
  sc.read_segment(0, payload.data());
  std::remove(v4.c_str());
  std::remove(v3.c_str());
}

TEST(OocoreFormat, AccountsReadAndVerifyTime) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_split.hcsr4");
  save_segmented_csr(path, g, kSmallSegment);
  SegmentedCsr sc = SegmentedCsr::open(path);
  EXPECT_EQ(sc.read_ns(), 0u);
  EXPECT_EQ(sc.verify_ns(), 0u);
  std::vector<char> payload(sc.max_payload_bytes());
  sc.read_segment(0, payload.data());
  const std::uint64_t read0 = sc.read_ns();
  const std::uint64_t verify0 = sc.verify_ns();
  EXPECT_GT(read0, 0u);
  EXPECT_GT(verify0, 0u);
  (void)sc.map_segment(1);  // a fresh mapping is read and verified too
  EXPECT_GT(sc.read_ns(), read0);
  EXPECT_GT(sc.verify_ns(), verify0);
  sc.unmap_segment(1);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// hipa-convert core
// ---------------------------------------------------------------------------

TEST(OocoreConvert, ByteIdenticalToInMemorySharding) {
  ZipfParams zp;
  zp.num_vertices = 500;
  zp.num_edges = 4000;
  zp.seed = 23;
  std::vector<Edge> edges = generate_zipf(zp);
  vid_t n = 0;
  for (const Edge& e : edges) n = std::max(n, std::max(e.src, e.dst) + 1);

  const std::string el = tmp_path("oocore_conv.txt");
  const std::string from_list = tmp_path("oocore_conv_a.hcsr3");
  const std::string from_mem = tmp_path("oocore_conv_b.hcsr3");
  write_edge_list(el, n, edges);

  ConvertOptions opt;
  opt.target_segment_bytes = kSmallSegment;
  opt.chunk_edges = 512;  // force many streaming chunks
  const ConvertStats stats =
      convert_edge_list_to_segmented(el, from_list, opt);
  EXPECT_EQ(stats.num_vertices, n);
  EXPECT_EQ(stats.num_edges, edges.size());
  EXPECT_GT(stats.num_segments, 1u);

  // The bounded-memory external build must produce bitwise the file
  // the in-memory path writes (same plans, same transpose order).
  save_segmented_csr(from_mem, build_graph(n, edges), kSmallSegment);
  EXPECT_EQ(slurp(from_list), slurp(from_mem));
  // Spill files were cleaned up.
  for (unsigned s = 0; s < stats.num_segments; ++s) {
    const std::string spill =
        from_list + ".seg" + std::to_string(s) + ".tmp";
    std::FILE* f = std::fopen(spill.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << "leftover spill file " << spill;
    if (f != nullptr) std::fclose(f);
  }
  std::remove(el.c_str());
  std::remove(from_list.c_str());
  std::remove(from_mem.c_str());
}

// ---------------------------------------------------------------------------
// Out-of-core engine: bitwise identity, budget, telemetry
// ---------------------------------------------------------------------------

TEST(OocoreEngineTest, BitwiseIdenticalAcrossModesAndGraphs) {
  struct Case {
    const char* name;
    Graph g;
  };
  RmatParams rp;
  rp.scale = 7;
  rp.edge_factor = 8;
  std::vector<Case> cases;
  {
    const std::vector<Edge> e = generate_rmat(rp);
    cases.push_back({"rmat", build_graph(vid_t{1} << rp.scale, e)});
  }
  {
    const std::vector<Edge> e = generate_erdos_renyi(600, 5000, 3);
    cases.push_back({"er", build_graph(600, e)});
  }
  cases.push_back({"zipf", zipf_graph()});

  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = tmp_path("oocore_bitwise.hcsr3");
    save_segmented_csr(path, c.g, kSmallSegment);

    // In-core run of the same kernel is the reference point.
    const std::vector<rank_t> incore =
        run_oocore(path, 3, /*streaming=*/false, /*prefetch=*/false);
    // Streaming must match bitwise: synchronous and prefetched, and
    // independently of the thread count.
    EXPECT_EQ(incore, run_oocore(path, 3, true, false));
    EXPECT_EQ(incore, run_oocore(path, 3, true, true));
    EXPECT_EQ(incore, run_oocore(path, 1, true, true));
    EXPECT_EQ(incore, run_oocore(path, 5, true, true));

    // And the whole family agrees with the serial oracle.
    const std::vector<rank_t> oracle =
        hipa::algo::pagerank_reference(c.g, 15);
    EXPECT_LT(hipa::algo::l1_distance(incore, oracle), 1e-3);
    std::remove(path.c_str());
  }
}

TEST(OocoreEngineTest, RespectsResidentBudget) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_budget.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);

  NativeBackend backend;
  OocoreOptions opt;
  opt.num_threads = 3;
  {
    SegmentedCsr probe = SegmentedCsr::open(path);
    // A budget that holds the two staging slots but NOT the whole
    // graph: the defining out-of-core condition.
    opt.resident_budget_bytes = 2 * probe.max_payload_bytes() + 1024;
    ASSERT_LT(opt.resident_budget_bytes, probe.total_payload_bytes())
        << "test graph must exceed its own budget";
  }
  OocoreEngine eng(path, opt, backend);
  PageRankOptions pr;
  pr.iterations = 10;
  const auto result = eng.run(pr);
  const auto& st = eng.stats();

  EXPECT_GT(st.segments, 3u);
  EXPECT_LE(st.peak_resident_bytes, st.resident_budget_bytes);
  EXPECT_LT(st.peak_resident_bytes, eng.graph().total_payload_bytes());
  // Every iteration re-streams the full topology through the slots.
  EXPECT_EQ(st.segment_fetches,
            std::uint64_t{pr.iterations} * st.segments);
  EXPECT_EQ(st.bytes_fetched,
            std::uint64_t{pr.iterations} * eng.graph().total_payload_bytes());
  EXPECT_GE(st.overlap_ratio(), 0.0);
  EXPECT_LE(st.overlap_ratio(), 1.0);
  EXPECT_GT(st.fetch_seconds, 0.0);
  EXPECT_EQ(result.report.iterations, pr.iterations);
  std::remove(path.c_str());
}

TEST(OocoreEngineTest, RejectsBudgetBelowTwoSlots) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_tiny_budget.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);
  NativeBackend backend;
  OocoreOptions opt;
  opt.num_threads = 2;
  opt.resident_budget_bytes = 1;  // cannot hold even one slot
  const std::string msg = error_message(
      [&] { OocoreEngine eng(path, opt, backend); });
  EXPECT_NE(msg.find("staging slots"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(OocoreEngineTest, ChargesIoWaitTelemetry) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_tel.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);

  NativeBackend backend;
  OocoreOptions opt;
  opt.num_threads = 2;
  OocoreEngine eng(path, opt, backend);
  PageRankOptions pr;
  pr.iterations = 8;
  pr.telemetry = hipa::runtime::Telemetry::kOn;
  const auto telemetered = eng.run(pr);
  ASSERT_TRUE(telemetered.report.telemetry.enabled);
  const auto& io_wait = telemetered.report.telemetry[
      hipa::runtime::Phase::kIoWait];
  // One wait per segment per iteration, all charged to the io_wait row.
  EXPECT_EQ(io_wait.invocations,
            std::uint64_t{pr.iterations} * eng.graph().num_segments());
  EXPECT_GE(io_wait.wall_sum_seconds, 0.0);
  EXPECT_EQ(io_wait.bytes_consumed,
            std::uint64_t{pr.iterations} *
                eng.graph().total_payload_bytes());
  // Compute phases are present too.
  EXPECT_GT(telemetered.report.telemetry[
      hipa::runtime::Phase::kGather].invocations, 0u);

  // Telemetry must not perturb the ranks.
  PageRankOptions plain;
  plain.iterations = 8;
  NativeBackend backend2;
  OocoreEngine eng2(path, opt, backend2);
  EXPECT_EQ(eng2.run(plain).ranks, telemetered.ranks);
  std::remove(path.c_str());
}

TEST(OocoreEngineTest, SplitsFetchIntoReadAndVerify) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_fetch_split.hcsr4");
  save_segmented_csr(path, g, kSmallSegment);
  for (const bool prefetch : {true, false}) {
    SCOPED_TRACE(prefetch ? "prefetch" : "sync");
    NativeBackend backend;
    OocoreOptions opt;
    opt.num_threads = 2;
    opt.prefetch = prefetch;
    OocoreEngine eng(path, opt, backend);
    PageRankOptions pr;
    pr.iterations = 4;
    (void)eng.run(pr);
    const auto& st = eng.stats();
    EXPECT_GT(st.read_seconds, 0.0);
    EXPECT_GT(st.verify_seconds, 0.0);
    // Both are measured inside the reads that fetch_seconds brackets.
    EXPECT_LE(st.read_seconds + st.verify_seconds, st.fetch_seconds);
  }
  // An in-core run fetches everything before it starts.
  NativeBackend backend;
  OocoreOptions opt;
  opt.num_threads = 2;
  opt.streaming = false;
  OocoreEngine eng(path, opt, backend);
  PageRankOptions pr;
  pr.iterations = 2;
  (void)eng.run(pr);
  EXPECT_EQ(eng.stats().read_seconds, 0.0);
  EXPECT_EQ(eng.stats().verify_seconds, 0.0);
  std::remove(path.c_str());
}

TEST(OocoreEngineTest, CorruptPayloadMidRunThrowsOnTheCaller) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_midrun.hcsr4");
  for (const bool prefetch : {true, false}) {
    SCOPED_TRACE(prefetch ? "prefetch" : "sync");
    save_segmented_csr(path, g, kSmallSegment);
    NativeBackend backend;
    OocoreOptions opt;
    opt.num_threads = 2;
    opt.prefetch = prefetch;
    OocoreEngine eng(path, opt, backend);
    // The damage lands after construction: open() validated only the
    // header and manifest, so the fetch inside run() must catch it.
    const SegmentInfo& info =
        eng.graph().segment(eng.graph().num_segments() / 2);
    flip_byte_in_place(path, info.file_offset + info.payload_bytes / 2);
    PageRankOptions pr;
    pr.iterations = 5;
    const std::string msg = error_message([&] { (void)eng.run(pr); });
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
    // The failed run tore down its producer and team: running again
    // fails the same way instead of hanging.
    const std::string again = error_message([&] { (void)eng.run(pr); });
    EXPECT_NE(again.find("checksum mismatch"), std::string::npos) << again;
  }
  std::remove(path.c_str());
}

TEST(OocoreEngineTest, ToleranceStopsIdenticallyAcrossModes) {
  const Graph g = zipf_graph();
  const std::string path = tmp_path("oocore_tol.hcsr3");
  save_segmented_csr(path, g, kSmallSegment);

  auto run_tol = [&](bool streaming, bool prefetch) {
    NativeBackend backend;
    OocoreOptions opt;
    opt.num_threads = 3;
    opt.streaming = streaming;
    opt.prefetch = prefetch;
    OocoreEngine eng(path, opt, backend);
    PageRankOptions pr;
    pr.iterations = 50;
    pr.tolerance = 1e-5;
    return eng.run(pr);
  };
  const auto incore = run_tol(false, false);
  const auto sync = run_tol(true, false);
  const auto async = run_tol(true, true);
  EXPECT_LT(incore.report.iterations, 50u) << "tolerance never reached";
  EXPECT_EQ(incore.report.iterations, sync.report.iterations);
  EXPECT_EQ(incore.report.iterations, async.report.iterations);
  EXPECT_EQ(incore.report.last_delta, sync.report.last_delta);
  EXPECT_EQ(incore.report.last_delta, async.report.last_delta);
  EXPECT_EQ(incore.ranks, sync.ranks);
  EXPECT_EQ(incore.ranks, async.ranks);
  std::remove(path.c_str());
}
