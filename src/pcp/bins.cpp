#include "pcp/bins.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hipa::pcp {

std::pair<eid_t, eid_t> PcpmBins::src_slice(std::uint32_t pb,
                                            std::uint32_t pe) const {
  HIPA_CHECK(pb <= pe && pe <= num_parts_);
  const std::uint32_t first_pair = src_pair_begin_[pb];
  const std::uint32_t last_pair = src_pair_begin_[pe];
  if (first_pair == last_pair) return {0, 0};
  const PairInfo& first = pairs_[first_pair];
  const PairInfo& last = pairs_[last_pair - 1];
  return {first.src_off, last.src_off + last.msg_count};
}

std::pair<eid_t, eid_t> PcpmBins::msg_slice(std::uint32_t qb,
                                            std::uint32_t qe) const {
  HIPA_CHECK(qb <= qe && qe <= num_parts_);
  const std::uint32_t first_idx = dst_pair_begin_[qb];
  const std::uint32_t last_idx = dst_pair_begin_[qe];
  if (first_idx == last_idx) return {0, 0};
  const PairInfo& first = pairs_[dst_pair_index_[first_idx]];
  const PairInfo& last = pairs_[dst_pair_index_[last_idx - 1]];
  return {first.value_off, last.value_off + last.msg_count};
}

std::pair<eid_t, eid_t> PcpmBins::dst_slice(std::uint32_t qb,
                                            std::uint32_t qe) const {
  HIPA_CHECK(qb <= qe && qe <= num_parts_);
  const std::uint32_t first_idx = dst_pair_begin_[qb];
  const std::uint32_t last_idx = dst_pair_begin_[qe];
  if (first_idx == last_idx) return {0, 0};
  const PairInfo& first = pairs_[dst_pair_index_[first_idx]];
  const PairInfo& last = pairs_[dst_pair_index_[last_idx - 1]];
  return {first.dst_off, last.dst_off + last.dst_count};
}

std::uint64_t PcpmBins::footprint_bytes() const {
  return pairs_.size() * sizeof(PairInfo) +
         (src_pair_begin_.size() + dst_pair_index_.size() +
          dst_pair_begin_.size()) *
             sizeof(std::uint32_t) +
         src_list_.size() * sizeof(vid_t) +
         total_dests_ * sizeof(vid_t);
}

PcpmBins build_bins(const graph::CsrGraph& out,
                    const part::CachePartitioning& parts) {
  HIPA_CHECK(out.num_vertices() == parts.num_vertices(),
             "partitioning built for a different graph");
  PcpmBins bins;
  const std::uint32_t num_parts = parts.num_partitions();
  bins.num_parts_ = num_parts;
  bins.total_dests_ = out.num_edges();

  // ---- pass 1: per source partition, count edges and messages per
  // destination partition; emit pairs in (p, q) order.
  bins.src_pair_begin_.assign(num_parts + 1, 0);
  {
    std::vector<eid_t> row_edges(num_parts, 0);
    std::vector<eid_t> row_msgs(num_parts, 0);
    std::vector<std::uint32_t> touched;  // q's seen this row
    touched.reserve(256);
    std::vector<vid_t> last_src(num_parts, kInvalidVid);

    for (std::uint32_t p = 0; p < num_parts; ++p) {
      const VertexRange r = parts.range(p);
      for (vid_t v = r.begin; v < r.end; ++v) {
        for (vid_t u : out.neighbors(v)) {
          const std::uint32_t q = parts.partition_of(u);
          if (row_edges[q] == 0) touched.push_back(q);
          ++row_edges[q];
          if (last_src[q] != v) {
            last_src[q] = v;
            ++row_msgs[q];
          }
        }
      }
      std::sort(touched.begin(), touched.end());
      for (std::uint32_t q : touched) {
        PairInfo info;
        info.src_part = p;
        info.dst_part = q;
        info.msg_count = row_msgs[q];
        info.dst_count = row_edges[q];
        bins.pairs_.push_back(info);
        row_edges[q] = 0;
        row_msgs[q] = 0;
        last_src[q] = kInvalidVid;
      }
      touched.clear();
      bins.src_pair_begin_[p + 1] =
          static_cast<std::uint32_t>(bins.pairs_.size());
    }
  }

  // ---- scatter-order source offsets.
  eid_t src_cursor = 0;
  for (PairInfo& pr : bins.pairs_) {
    pr.src_off = src_cursor;
    src_cursor += pr.msg_count;
  }
  bins.total_msgs_ = src_cursor;

  // ---- gather-order grouping and offsets (stable counting sort by q).
  bins.dst_pair_begin_.assign(num_parts + 1, 0);
  for (const PairInfo& pr : bins.pairs_) {
    ++bins.dst_pair_begin_[pr.dst_part + 1];
  }
  for (std::uint32_t q = 0; q < num_parts; ++q) {
    bins.dst_pair_begin_[q + 1] += bins.dst_pair_begin_[q];
  }
  bins.dst_pair_index_.resize(bins.pairs_.size());
  {
    std::vector<std::uint32_t> cursor(bins.dst_pair_begin_.begin(),
                                      bins.dst_pair_begin_.end() - 1);
    for (std::uint32_t k = 0;
         k < static_cast<std::uint32_t>(bins.pairs_.size()); ++k) {
      bins.dst_pair_index_[cursor[bins.pairs_[k].dst_part]++] = k;
    }
  }
  {
    eid_t value_cursor = 0;
    eid_t dst_cursor = 0;
    for (std::uint32_t idx : bins.dst_pair_index_) {
      PairInfo& pr = bins.pairs_[idx];
      pr.value_off = value_cursor;
      pr.dst_off = dst_cursor;
      value_cursor += pr.msg_count;
      dst_cursor += pr.dst_count;
    }
    HIPA_CHECK(value_cursor == bins.total_msgs_ &&
                   dst_cursor == bins.total_dests_,
               "gather-order offsets inconsistent");
  }

  // ---- pass 2: fill src_list (scatter order) and the flag-packed
  // destination list (gather order) in one row scan with per-pair
  // cursors.
  bins.src_list_ = AlignedBuffer<vid_t>(bins.total_msgs_);
  bins.dst_list_ = AlignedBuffer<vid_t>(bins.total_dests_);
  {
    std::vector<eid_t> src_cur(bins.pairs_.size());
    std::vector<eid_t> dst_cur(bins.pairs_.size());
    for (std::size_t k = 0; k < bins.pairs_.size(); ++k) {
      src_cur[k] = bins.pairs_[k].src_off;
      dst_cur[k] = bins.pairs_[k].dst_off;
    }
    // Row-local map q -> pair index.
    std::vector<std::uint32_t> row_pair(num_parts, ~0u);
    std::vector<vid_t> last_src(num_parts, kInvalidVid);

    for (std::uint32_t p = 0; p < num_parts; ++p) {
      for (std::uint32_t k = bins.src_pair_begin_[p];
           k < bins.src_pair_begin_[p + 1]; ++k) {
        row_pair[bins.pairs_[k].dst_part] = k;
      }
      const VertexRange r = parts.range(p);
      for (vid_t v = r.begin; v < r.end; ++v) {
        for (vid_t u : out.neighbors(v)) {
          const std::uint32_t q = parts.partition_of(u);
          const std::uint32_t k = row_pair[q];
          bool starts_msg = false;
          if (last_src[q] != v) {
            last_src[q] = v;
            bins.src_list_[src_cur[k]++] = v;
            starts_msg = true;
          }
          HIPA_CHECK((u & PcpmBins::kMsgStart) == 0,
                     "vertex ids must fit in 31 bits for PCPM packing");
          bins.dst_list_[dst_cur[k]++] =
              u | (starts_msg ? PcpmBins::kMsgStart : 0);
        }
      }
      // Reset row-local state.
      for (std::uint32_t k = bins.src_pair_begin_[p];
           k < bins.src_pair_begin_[p + 1]; ++k) {
        row_pair[bins.pairs_[k].dst_part] = ~0u;
        last_src[bins.pairs_[k].dst_part] = kInvalidVid;
      }
    }
    // Verify cursors landed exactly on the next pair's offsets.
    for (std::size_t k = 0; k < bins.pairs_.size(); ++k) {
      HIPA_CHECK(src_cur[k] ==
                     bins.pairs_[k].src_off + bins.pairs_[k].msg_count,
                 "src cursor mismatch on pair " << k);
      HIPA_CHECK(dst_cur[k] ==
                     bins.pairs_[k].dst_off + bins.pairs_[k].dst_count,
                 "dst cursor mismatch on pair " << k);
    }
  }
  return bins;
}

}  // namespace hipa::pcp
