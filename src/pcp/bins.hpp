// PCPM message bins with inter-edge compression (paper §3.4, ref [21]).
//
// All edges from one source vertex v into one destination partition q
// are compressed into a single *message* (paper Fig. 4: inter-edges
// (v1,v6),(v1,v7) become Edge(v1,p1)). During scatter, the thread
// owning v's partition writes one value per message; during gather, the
// thread owning q propagates each message's value to its destination
// vertices through partition-local intra-edges.
//
// Two orderings coexist:
//  * scatter order — pairs sorted by (src_part, dst_part); src_list is
//    laid out this way so a scatter thread streams its sources.
//  * gather order — pairs grouped by dst_part; the value buffer,
//    dst_begin and dst_list are laid out this way so a gather thread
//    streams its inbox. This also keeps each NUMA node's slice of every
//    array contiguous (one registered range per node, paper §3.4's
//    "contiguous virtual address space").
//
// Destination list (the gather phase's dominant stream): one 32-bit
// entry per edge, the destination's 31-bit global vertex id with the
// MSB flagging the first destination of a message. Global ids, because
// the paper's 256 KB partition holds 2^16 vertices, more than a
// 15-bit partition-local offset can address (DESIGN.md §3.4).
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "graph/csr.hpp"
#include "partition/cache_partitions.hpp"

namespace hipa::pcp {

/// One (source partition, destination partition) bin.
struct PairInfo {
  std::uint32_t src_part = 0;
  std::uint32_t dst_part = 0;
  eid_t msg_count = 0;  ///< compressed messages in this bin
  eid_t dst_count = 0;  ///< raw edges in this bin
  eid_t src_off = 0;    ///< first index into src_list (scatter order)
  eid_t value_off = 0;  ///< first message id (gather order; indexes the
                        ///< value buffer and dst_begin)
  eid_t dst_off = 0;    ///< first index into dst_list (gather order)
};

/// Immutable bin structure for one (graph, partitioning).
class PcpmBins {
 public:
  PcpmBins() = default;

  [[nodiscard]] std::uint32_t num_partitions() const { return num_parts_; }
  [[nodiscard]] eid_t total_messages() const { return total_msgs_; }
  [[nodiscard]] eid_t total_dests() const { return total_dests_; }
  /// Edges per message — the paper's compression payoff (§4.3: "the
  /// larger a partition, the better the compression").
  [[nodiscard]] double compression_ratio() const {
    return total_msgs_ == 0 ? 0.0
                            : static_cast<double>(total_dests_) /
                                  static_cast<double>(total_msgs_);
  }

  [[nodiscard]] const std::vector<PairInfo>& pairs() const { return pairs_; }
  /// Pairs with src_part == p: pairs()[src_pair_begin()[p] ..
  /// src_pair_begin()[p+1]).
  [[nodiscard]] const std::vector<std::uint32_t>& src_pair_begin() const {
    return src_pair_begin_;
  }
  /// Pair ids grouped by dst_part: dst_pair_index()[dst_pair_begin()[q]
  /// .. dst_pair_begin()[q+1]).
  [[nodiscard]] const std::vector<std::uint32_t>& dst_pair_index() const {
    return dst_pair_index_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& dst_pair_begin() const {
    return dst_pair_begin_;
  }

  /// Message source vertices, scatter order.
  [[nodiscard]] std::span<const vid_t> src_list() const {
    return src_list_.span();
  }

  /// Destination list (gather order). The MSB marks the first
  /// destination of each message (the PCPM trick of ref [21]): a
  /// gather walks one pair's slice linearly, bumping its message index
  /// at every flagged entry — no per-message offset array needed.
  [[nodiscard]] std::span<const vid_t> dst_list() const {
    return dst_list_.span();
  }
  /// MSB flag: this dst_list entry starts a new message.
  static constexpr vid_t kMsgStart = vid_t{1} << 31;
  [[nodiscard]] static constexpr bool is_msg_start(vid_t packed) {
    return (packed & kMsgStart) != 0;
  }
  [[nodiscard]] static constexpr vid_t dst_vertex(vid_t packed) {
    return packed & ~kMsgStart;
  }

  // --- contiguous per-node slice helpers (for NUMA registration) ---------
  /// [first, last) src_list indices for source partitions [pb, pe).
  [[nodiscard]] std::pair<eid_t, eid_t> src_slice(std::uint32_t pb,
                                                  std::uint32_t pe) const;
  /// [first, last) message ids for destination partitions [qb, qe).
  [[nodiscard]] std::pair<eid_t, eid_t> msg_slice(std::uint32_t qb,
                                                  std::uint32_t qe) const;
  /// [first, last) dst_list indices for destination partitions [qb, qe).
  /// Entry-granular; multiply by sizeof(vid_t) for byte ranges.
  [[nodiscard]] std::pair<eid_t, eid_t> dst_slice(std::uint32_t qb,
                                                  std::uint32_t qe) const;

  /// Bytes of metadata built (for preprocessing-cost accounting).
  [[nodiscard]] std::uint64_t footprint_bytes() const;

  friend PcpmBins build_bins(const graph::CsrGraph& out,
                             const part::CachePartitioning& parts);

 private:
  std::uint32_t num_parts_ = 0;
  eid_t total_msgs_ = 0;
  eid_t total_dests_ = 0;
  std::vector<PairInfo> pairs_;
  std::vector<std::uint32_t> src_pair_begin_;
  std::vector<std::uint32_t> dst_pair_index_;
  std::vector<std::uint32_t> dst_pair_begin_;
  AlignedBuffer<vid_t> src_list_;
  AlignedBuffer<vid_t> dst_list_;
};

/// Build bins for a graph under a fixed-|P| partitioning. Requires the
/// CSR's neighbor lists to be sorted (builder default) so each (v, q)
/// message's destinations are consecutive.
[[nodiscard]] PcpmBins build_bins(const graph::CsrGraph& out,
                                  const part::CachePartitioning& parts);

}  // namespace hipa::pcp
