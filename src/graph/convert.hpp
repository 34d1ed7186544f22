// Offline sharder: convert a raw text edge list into the segmented
// HCSR v4 container with memory bounded by O(V + largest segment),
// never the full edge set. Backs the `hipa-convert` CLI; exposed as a
// library so tests can drive it directly.
#pragma once

#include <cstdint>
#include <string>

#include "graph/io.hpp"

namespace hipa::graph {

struct ConvertOptions {
  /// Target payload bytes per segment (the resident unit of the
  /// out-of-core engine). 64 MiB default keeps two staging slots well
  /// under typical budgets.
  std::size_t target_segment_bytes = std::size_t{64} << 20;
  /// Edges parsed per streaming chunk (peak parse memory).
  std::size_t chunk_edges = std::size_t{1} << 20;
};

struct ConvertStats {
  vid_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  unsigned num_segments = 0;
  std::size_t max_segment_payload_bytes = 0;
};

/// Shard `edge_list_path` into a segmented v4 file at `out_path`.
///
/// Three bounded-memory passes:
///   1. stream the edge list to count V and per-vertex in/out degrees;
///   2. stream again, spilling each edge to its segment's temp file
///      (`out_path` + ".seg<i>.tmp", removed on success);
///   3. per segment, read the spill back, sort by (dst, src) — the
///      order CsrGraph::transpose produces — and append the payload.
///
/// The result is byte-identical to save_segmented_csr of the same
/// graph built in memory; ranks computed from it match in-core runs
/// bitwise.
ConvertStats convert_edge_list_to_segmented(const std::string& edge_list_path,
                                            const std::string& out_path,
                                            const ConvertOptions& opt = {});

}  // namespace hipa::graph
