// Graph serialization: whitespace edge lists (SNAP/KONECT style), a
// fast binary CSR container (HCSR v1/v2), and the segmented HCSR v3/v4
// container for out-of-core execution (per-destination-range segment
// slices with a checksummed manifest, mapped or read one at a time).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace hipa::graph {

/// Read a text edge list: one "src dst" pair per line, '#' or '%'
/// comment lines skipped. Returns edges and the implied vertex count
/// (max id + 1).
struct EdgeListFile {
  std::vector<Edge> edges;
  vid_t num_vertices = 0;
};
[[nodiscard]] EdgeListFile read_edge_list(const std::string& path);

/// What a streaming pass over an edge list learned without keeping the
/// tuples: the implied vertex count (max id + 1) and the edge total.
struct EdgeListInfo {
  vid_t num_vertices = 0;
  std::uint64_t num_edges = 0;
};

/// Chunked streaming reader: parse `path` with the same strict
/// validation as read_edge_list but hand edges to `sink` in chunks of
/// at most `chunk_edges`, so converting a large file never
/// materializes all its tuples at once (peak memory is one chunk).
/// read_edge_list is implemented on top of this.
EdgeListInfo stream_edge_list(
    const std::string& path,
    const std::function<void(std::span<const Edge>)>& sink,
    std::size_t chunk_edges = std::size_t{1} << 20);

/// Write a text edge list (with a header comment).
void write_edge_list(const std::string& path, vid_t num_vertices,
                     const std::vector<Edge>& edges);

/// Binary CSR container (".hcsr"): magic, version, V, E, offsets,
/// targets. Little-endian, host-width types as defined in types.hpp.
/// Reads v1 and v2; segmented v3/v4 files are rejected with a pointer
/// to SegmentedCsr.
void save_csr(const std::string& path, const CsrGraph& g);
[[nodiscard]] CsrGraph load_csr(const std::string& path);

// ---------------------------------------------------------------------------
// Segmented HCSR v4 — the out-of-core container.
// ---------------------------------------------------------------------------
//
// Layout (little-endian, host-width types):
//
//   [0]  u64 magic (HCSR v4)   [8]  u64 num_vertices
//   [16] u64 num_edges         [24] u64 num_segments
//   [32] u64 header checksum (FNV-1a over the four words above)
//   [40] manifest: num_segments x { u64 v_begin, v_end, file_offset,
//                                   payload_bytes, checksum }
//   [..] u64 manifest checksum (FNV-1a over the manifest bytes)
//   [..] out-degrees: num_vertices x u32 (kept resident by the
//        out-of-core engine for the inverse-degree table — the
//        payloads store the PULL direction)
//   [..] page-aligned segment payloads
//
// Each segment covers a destination range [v_begin, v_end) of the
// in-edge (pull) CSR. Its payload is (nv+1) eid_t offsets rebased to
// the segment (offsets[0] == 0) followed by ne vid_t sources, each
// vertex's sources ascending — exactly the order CsrGraph::transpose
// produces, so a reassembled file is bitwise the in-core transpose.
//
// A payload's checksum is LaneHash64 (common/checksum.hpp) over its
// bytes. HCSR v3 is the same layout with an FNV-1a payload checksum;
// the writer emits v4 only, and SegmentedCsr reads both, picking the
// payload hash from the magic.

/// One manifest entry.
struct SegmentInfo {
  vid_t v_begin = 0;
  vid_t v_end = 0;  ///< destination range [v_begin, v_end)
  std::uint64_t file_offset = 0;  ///< page-aligned payload start
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;  ///< payload hash (v4 LaneHash64, v3 FNV-1a)

  [[nodiscard]] vid_t num_vertices() const { return v_end - v_begin; }
};

/// A planned (not yet written) segment: its range and edge count.
struct SegmentPlan {
  VertexRange range;
  std::uint64_t edges = 0;
};

/// Payload bytes a segment of `nv` vertices / `ne` edges occupies:
/// (nv+1) local eid_t offsets + ne vid_t sources.
[[nodiscard]] constexpr std::size_t segment_payload_bytes(
    std::uint64_t nv, std::uint64_t ne) {
  return (static_cast<std::size_t>(nv) + 1) * sizeof(eid_t) +
         static_cast<std::size_t>(ne) * sizeof(vid_t);
}

/// Greedily split [0, V) into destination ranges whose payloads stay
/// at or under `target_segment_bytes` (a single vertex whose own
/// payload exceeds the target still gets a segment — the format never
/// splits one vertex's in-list). `in_degrees[v]` is v's in-degree.
[[nodiscard]] std::vector<SegmentPlan> plan_segments(
    std::span<const std::uint64_t> in_degrees,
    std::size_t target_segment_bytes);

/// Streaming v4 writer shared by save_segmented_csr and the offline
/// hipa-convert sharder: the full layout is computed up front from the
/// plan, payloads are appended in order (checksummed as they stream
/// through), and finish() back-patches the manifest.
class SegmentedCsrWriter {
 public:
  /// Opens `path` and writes header + degree table; `plans` must cover
  /// [0, num_vertices) contiguously and sum to num_edges.
  SegmentedCsrWriter(const std::string& path, std::uint64_t num_vertices,
                     std::uint64_t num_edges,
                     std::vector<SegmentPlan> plans,
                     std::span<const std::uint32_t> out_degrees);
  ~SegmentedCsrWriter();
  SegmentedCsrWriter(const SegmentedCsrWriter&) = delete;
  SegmentedCsrWriter& operator=(const SegmentedCsrWriter&) = delete;

  /// Append the next planned segment's payload. `local_offsets` has
  /// plan.range size + 1 entries rebased to 0; `sources` has
  /// plan.edges entries.
  void write_segment(std::span<const eid_t> local_offsets,
                     std::span<const vid_t> sources);

  /// Seal the file: back-patch the manifest (with per-segment
  /// checksums) and its checksum. Must be called after every planned
  /// segment was written.
  void finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Shard an in-memory Graph into a segmented v4 file: the pull (in)
/// direction is sliced by destination range, out-degrees ride along
/// for the resident inverse-degree table.
void save_segmented_csr(const std::string& path, const Graph& g,
                        std::size_t target_segment_bytes);

/// Read-side handle over a segmented v3/v4 file. Opening validates the
/// header, manifest (checksums, contiguous coverage, in-file bounds)
/// and loads only the degree table; segment payloads are fetched on
/// demand via read_segment (pread into caller storage) or
/// map_segment/unmap_segment (mmap + MADV_WILLNEED). Byte accounting
/// (cumulative fetched, current/peak mapped) feeds the out-of-core
/// engine's budget assertion and the `oocore` bench section.
///
/// read_segment is safe to call from a prefetch thread concurrently
/// with map/unmap/metadata calls on another thread.
class SegmentedCsr {
 public:
  [[nodiscard]] static SegmentedCsr open(const std::string& path);

  SegmentedCsr();
  ~SegmentedCsr();
  SegmentedCsr(SegmentedCsr&&) noexcept;
  SegmentedCsr& operator=(SegmentedCsr&&) noexcept;
  SegmentedCsr(const SegmentedCsr&) = delete;
  SegmentedCsr& operator=(const SegmentedCsr&) = delete;

  [[nodiscard]] vid_t num_vertices() const;
  [[nodiscard]] eid_t num_edges() const;
  [[nodiscard]] unsigned num_segments() const;
  [[nodiscard]] const SegmentInfo& segment(unsigned s) const;
  [[nodiscard]] std::span<const std::uint32_t> out_degrees() const;

  /// Largest single segment payload — the unit the out-of-core
  /// engine's staging slots are sized by.
  [[nodiscard]] std::size_t max_payload_bytes() const;
  /// Sum of all payloads — what a fully resident run would map.
  [[nodiscard]] std::size_t total_payload_bytes() const;

  /// pread segment `s` into `dst` (at least payload_bytes writable)
  /// and verify its manifest checksum. Thread-safe.
  void read_segment(unsigned s, void* dst) const;

  /// Decoded view over a fetched payload of segment `s` (`payload` is
  /// what read_segment filled or map_segment returned).
  struct SegmentView {
    VertexRange range;
    std::span<const eid_t> offsets;  ///< nv+1 entries, rebased to 0
    std::span<const vid_t> sources;
  };
  [[nodiscard]] SegmentView view(unsigned s, const void* payload) const;

  /// Map segment `s` read-only (mmap + MADV_WILLNEED), verify its
  /// checksum, and account the mapping. Repeated maps of the same
  /// segment return the existing mapping.
  [[nodiscard]] const void* map_segment(unsigned s);
  /// Drop segment `s`'s mapping (no-op if not mapped).
  void unmap_segment(unsigned s);

  /// Currently mapped payload bytes (map_segment minus unmap_segment).
  [[nodiscard]] std::size_t mapped_bytes() const;
  /// High-water mark of mapped_bytes over this handle's lifetime.
  [[nodiscard]] std::size_t peak_mapped_bytes() const;
  /// Cumulative payload bytes fetched (reads + fresh maps).
  [[nodiscard]] std::uint64_t bytes_fetched() const;
  /// Cumulative nanoseconds spent getting payload bytes (pread, or
  /// mmap + madvise) and checksumming them. A mapping's page faults
  /// land in verify, the first pass that touches its pages.
  [[nodiscard]] std::uint64_t read_ns() const;
  [[nodiscard]] std::uint64_t verify_ns() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hipa::graph
