// Query vocabulary of the serving layer and snapshot-local evaluators.
//
// Three request kinds cover the ROADMAP's read traffic:
//
//   * kPoint — "what is the rank of page v?" (one vertex);
//   * kBatch — the same for a caller-supplied vertex set (one response
//     array, input order preserved);
//   * kTopK  — "who are the strongest k pages?", either globally
//     (served straight from the snapshot's NUMA-local top-k replica —
//     no scan, no cross-node traffic) or restricted to a vertex-id
//     range (served by a bounded-heap scan of exactly that range).
//
// The evaluators here are pure functions of one pinned Snapshot: they
// take a SnapshotRef'd snapshot, never touch the store, and therefore
// inherit the snapshot contract — everything they read is immutable
// and epoch-consistent. Placement-aware execution (which node's worker
// scans which slice) lives one layer up in serve/service.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "serve/snapshot.hpp"
#include "serve/topk_index.hpp"

namespace hipa::serve {

/// Request kinds understood by the query engine.
enum class QueryKind : unsigned char { kPoint = 0, kBatch = 1, kTopK = 2 };

[[nodiscard]] std::string_view query_kind_name(QueryKind k);

/// Top-k request: global when `range` is empty (the default), else
/// restricted to vertex ids in [range.begin, range.end).
struct TopKQuery {
  unsigned k = 10;
  VertexRange range{0, 0};

  [[nodiscard]] bool global() const { return range.empty(); }
};

/// One request. Exactly the fields of its kind are meaningful.
struct Query {
  QueryKind kind = QueryKind::kPoint;
  vid_t vertex = 0;                ///< kPoint
  std::vector<vid_t> vertices;     ///< kBatch
  TopKQuery topk;                  ///< kTopK

  [[nodiscard]] static Query point(vid_t v) {
    Query q;
    q.kind = QueryKind::kPoint;
    q.vertex = v;
    return q;
  }
  [[nodiscard]] static Query batch(std::vector<vid_t> vs) {
    Query q;
    q.kind = QueryKind::kBatch;
    q.vertices = std::move(vs);
    return q;
  }
  [[nodiscard]] static Query top_k(unsigned k, VertexRange range = {0, 0}) {
    Query q;
    q.kind = QueryKind::kTopK;
    q.topk = TopKQuery{k, range};
    return q;
  }
};

/// One response. `epoch` stamps which snapshot answered; `ranks`
/// carries kPoint (size 1) / kBatch (input order) results, `topk`
/// carries kTopK results (descending under topk_less).
struct QueryResult {
  std::uint64_t epoch = 0;
  std::vector<rank_t> ranks;
  std::vector<TopKEntry> topk;
};

// ---------------------------------------------------------------------------
// Snapshot-local evaluators (the per-shard kernels the service runs on
// its pinned workers; also usable directly against a pinned snapshot).
// ---------------------------------------------------------------------------

/// Point lookup. Bounds-checked (HIPA_CHECK).
[[nodiscard]] rank_t point_lookup(const Snapshot& snap, vid_t v);

/// Batch lookup: out[i] = rank of vertices[i]. `out.size()` must equal
/// `vertices.size()`; every id is bounds-checked.
void batch_lookup(const Snapshot& snap, std::span<const vid_t> vertices,
                  std::span<rank_t> out);

/// Top-k evaluation. Global queries with k <= the snapshot's index
/// depth are answered from the replica of `node` (pure local reads);
/// deeper-than-index or range-restricted queries fall back to a
/// bounded-heap scan of the requested range. Result is descending
/// under topk_less and at most k entries.
[[nodiscard]] std::vector<TopKEntry> topk_query(const Snapshot& snap,
                                                const TopKQuery& q,
                                                unsigned node = 0);

/// Evaluate one whole query against one snapshot (the single-threaded
/// reference the service's sharded execution must agree with).
[[nodiscard]] QueryResult evaluate(const Snapshot& snap, const Query& q,
                                   unsigned node = 0);

}  // namespace hipa::serve
