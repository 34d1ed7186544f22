#include "serve/query.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hipa::serve {

std::string_view query_kind_name(QueryKind k) {
  switch (k) {
    case QueryKind::kPoint:
      return "point";
    case QueryKind::kBatch:
      return "batch";
    case QueryKind::kTopK:
      return "topk";
  }
  return "?";
}

rank_t point_lookup(const Snapshot& snap, vid_t v) {
  HIPA_CHECK(v < snap.num_vertices(),
             "point lookup vertex " << v << " out of range (n = "
                                    << snap.num_vertices() << ")");
  return snap.rank_of(v);
}

void batch_lookup(const Snapshot& snap, std::span<const vid_t> vertices,
                  std::span<rank_t> out) {
  HIPA_CHECK(out.size() == vertices.size(),
             "batch lookup output size mismatch");
  const std::span<const rank_t> ranks = snap.ranks();
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const vid_t v = vertices[i];
    HIPA_CHECK(v < ranks.size(), "batch lookup vertex "
                                     << v << " out of range (n = "
                                     << ranks.size() << ")");
    out[i] = ranks[v];
  }
}

std::vector<TopKEntry> topk_query(const Snapshot& snap, const TopKQuery& q,
                                  unsigned node) {
  if (q.k == 0) return {};
  const TopKIndex& index = snap.topk();
  const unsigned index_node =
      index.num_nodes() == 0 ? 0 : node % index.num_nodes();
  if (q.global()) {
    // The index holds the global top-`index.k()` in every replica; any
    // request no deeper than that is a pure node-local copy.
    if (q.k <= index.k() && index.num_nodes() > 0) {
      const std::span<const TopKEntry> rep = index.replica(index_node);
      const std::size_t take = std::min<std::size_t>(q.k, rep.size());
      return {rep.begin(), rep.begin() + static_cast<std::ptrdiff_t>(take)};
    }
    return partial_top_k(snap.ranks(), VertexRange{0, snap.num_vertices()},
                         q.k);
  }
  HIPA_CHECK(q.range.begin <= q.range.end &&
                 q.range.end <= snap.num_vertices(),
             "top-k range [" << q.range.begin << ", " << q.range.end
                             << ") exceeds snapshot vertices "
                             << snap.num_vertices());
  return partial_top_k(snap.ranks(), q.range, q.k);
}

QueryResult evaluate(const Snapshot& snap, const Query& q, unsigned node) {
  QueryResult out;
  out.epoch = snap.epoch();
  switch (q.kind) {
    case QueryKind::kPoint:
      out.ranks.push_back(point_lookup(snap, q.vertex));
      break;
    case QueryKind::kBatch:
      out.ranks.assign(q.vertices.size(), rank_t{});
      batch_lookup(snap, q.vertices, out.ranks);
      break;
    case QueryKind::kTopK:
      out.topk = topk_query(snap, q.topk, node);
      break;
  }
  return out;
}

}  // namespace hipa::serve
