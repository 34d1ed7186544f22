// Row splicing: edit a few rows of a canonical CSR without rebuilding it.
//
// A small batch of edge inserts and removes changes only the rows of its
// endpoints. splice_rows() merges just those rows and copies every
// untouched block of rows with one memcpy, shifting its offsets by the
// size change of the edited rows before it: no edge list, no counting
// pass, no per-row sort. On a CSR whose rows are sorted and duplicate-
// free (build_csr with remove_duplicates) the result is byte-identical
// to rebuilding from the edited edge set.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace hipa::graph {

/// Final state of one (row, col) entry after an edit batch: `col` is in
/// `row`'s neighbor list iff `present`.
struct RowEdit {
  vid_t row = 0;
  vid_t col = 0;
  bool present = true;
};

/// Edits given in arrival order, sorted by (row, col) with only the
/// newest entry of each pair kept — the form splice_rows() takes.
[[nodiscard]] std::vector<RowEdit> coalesce_edits(std::vector<RowEdit> edits);

/// `g` with each edited entry set or cleared. `g`'s rows must be sorted
/// and duplicate-free; `edits` must be sorted by (row, col), hold at most
/// one entry per pair and stay inside the vertex universe (HIPA_CHECK).
/// Setting a present entry or clearing an absent one is a no-op.
[[nodiscard]] CsrGraph splice_rows(const CsrGraph& g,
                                   std::span<const RowEdit> edits);

/// Both directions of `g` after `out_edits` (out-direction entries):
/// the out CSR takes them as given, the in CSR the same edits
/// transposed.
[[nodiscard]] Graph splice_graph(const Graph& g,
                                 std::span<const RowEdit> out_edits);

}  // namespace hipa::graph
