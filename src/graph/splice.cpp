#include "graph/splice.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace hipa::graph {

namespace {
bool row_major(const RowEdit& a, const RowEdit& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}
}  // namespace

std::vector<RowEdit> coalesce_edits(std::vector<RowEdit> edits) {
  std::stable_sort(edits.begin(), edits.end(), row_major);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < edits.size(); ++i) {
    const bool superseded = i + 1 < edits.size() &&
                            edits[i + 1].row == edits[i].row &&
                            edits[i + 1].col == edits[i].col;
    if (!superseded) edits[kept++] = edits[i];
  }
  edits.resize(kept);
  return edits;
}

CsrGraph splice_rows(const CsrGraph& g, std::span<const RowEdit> edits) {
  const vid_t n = g.num_vertices();
  const std::span<const eid_t> off = g.offsets();
  const std::span<const vid_t> tgt = g.targets();
  HIPA_CHECK(off.size() == std::size_t{n} + 1, "splice needs a built CSR");

  // Merge every edited row into `merged`; row k occupies
  // merged[rows[k-1].end, rows[k].end).
  struct Row {
    vid_t v;
    std::size_t end;
  };
  std::vector<Row> rows;
  std::vector<vid_t> merged;
  eid_t old_edited = 0;  // old degree sum of the edited rows
  for (std::size_t i = 0; i < edits.size();) {
    const vid_t v = edits[i].row;
    HIPA_CHECK(v < n, "edit row " << v << " outside vertex universe " << n);
    const std::span<const vid_t> old = g.neighbors(v);
    std::size_t a = 0;
    std::size_t j = i;
    for (; j < edits.size() && edits[j].row == v; ++j) {
      const RowEdit& e = edits[j];
      HIPA_CHECK(e.col < n, "edit (" << v << ", " << e.col
                                      << ") outside vertex universe " << n);
      HIPA_CHECK(j == i || edits[j - 1].col < e.col,
                 "edits must be sorted by (row, col) without repeats");
      while (a < old.size() && old[a] < e.col) merged.push_back(old[a++]);
      if (a < old.size() && old[a] == e.col) ++a;  // the edit decides it
      if (e.present) merged.push_back(e.col);
    }
    merged.insert(merged.end(), old.begin() + static_cast<std::ptrdiff_t>(a),
                  old.end());
    old_edited += old.size();
    rows.push_back(Row{v, merged.size()});
    HIPA_CHECK(j == edits.size() || edits[j].row > v,
               "edits must be sorted by (row, col) without repeats");
    i = j;
  }

  const eid_t new_edges = off[n] - old_edited + merged.size();
  AlignedBuffer<eid_t> new_off(static_cast<std::size_t>(n) + 1);
  AlignedBuffer<vid_t> new_tgt(static_cast<std::size_t>(new_edges));
  // Unsigned wrap-around arithmetic: off[u] + shift is exact whenever
  // the true new offset is in range, which it always is.
  eid_t shift = 0;
  vid_t from = 0;  // first row not yet written
  // Rows [from, to) are untouched: shifted offsets, one block copy.
  auto copy_block = [&](vid_t to) {
    for (vid_t u = from; u < to; ++u) new_off[u] = off[u] + shift;
    if (off[to] > off[from]) {
      std::memcpy(new_tgt.data() + (off[from] + shift),
                  tgt.data() + off[from],
                  (off[to] - off[from]) * sizeof(vid_t));
    }
  };
  std::size_t begin = 0;
  for (const Row& r : rows) {
    copy_block(r.v);
    new_off[r.v] = off[r.v] + shift;
    const std::size_t len = r.end - begin;
    if (len > 0) {
      std::memcpy(new_tgt.data() + new_off[r.v], merged.data() + begin,
                  len * sizeof(vid_t));
    }
    shift += len - g.degree(r.v);
    begin = r.end;
    from = r.v + 1;
  }
  copy_block(n);
  new_off[n] = off[n] + shift;
  return CsrGraph(std::move(new_off), std::move(new_tgt));
}

Graph splice_graph(const Graph& g, std::span<const RowEdit> out_edits) {
  std::vector<RowEdit> in_edits(out_edits.begin(), out_edits.end());
  for (RowEdit& e : in_edits) std::swap(e.row, e.col);
  std::sort(in_edits.begin(), in_edits.end(), row_major);
  Graph next;
  next.out = splice_rows(g.out, out_edits);
  next.in = splice_rows(g.in, in_edits);
  return next;
}

}  // namespace hipa::graph
