// Pieces shared by the two serving workloads (serve_rw, routed): the
// seeded request mix, the benchmark's own top-k for answer checking and
// the search for the highest rate that meets the latency limit.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common.hpp"
#include "common/types.hpp"
#include "openloop.hpp"
#include "serve/query.hpp"

namespace perfbench {

/// Request mix in percent; the remainder up to 100 is range top-k.
struct Mix {
  unsigned point = 70;
  unsigned batch = 20;       ///< batch of kBatchSize vertices
  unsigned global_topk = 8;  ///< global top-kTopK
};
inline constexpr unsigned kBatchSize = 16;
inline constexpr unsigned kTopK = 10;

/// Request i of a phase: a pure function of (phase seed, i).
[[nodiscard]] hipa::serve::Query make_query(const Mix& mix,
                                            std::uint64_t seed,
                                            std::uint64_t i, hipa::vid_t n);

/// The benchmark's own top-k over `ranks[range]`, ordered by rank
/// descending, ties by smaller vertex id (the serve layer's contract).
[[nodiscard]] std::vector<hipa::serve::TopKEntry> own_top_k(
    std::span<const hipa::rank_t> ranks, hipa::VertexRange range,
    unsigned k);

template <class T>
[[nodiscard]] bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

/// Does `r` answer `q` exactly as `ranks` (and `global_top`, the top-k
/// over every vertex) say it must?
[[nodiscard]] bool answer_matches(
    const hipa::serve::Query& q, const hipa::serve::QueryResult& r,
    std::span<const hipa::rank_t> ranks,
    std::span<const hipa::serve::TopKEntry> global_top);

/// Sample-array size for the light and heavy phases and for
/// `busy_seconds` at the expected maximum rate (rates.hi / 0.6).
[[nodiscard]] std::size_t max_phase_requests(Rates rates, double lo_seconds,
                                             double hi_seconds,
                                             double busy_seconds);

/// Scope whose calling-thread CPU time is the benchmark's own work
/// (building requests, checking answers): cpu_us_per_op leaves it out.
/// Counts only while the capacity step runs, so latency phases pay
/// nothing for it.
class OwnCpu {
 public:
  OwnCpu();
  ~OwnCpu();
  OwnCpu(const OwnCpu&) = delete;
  OwnCpu& operator=(const OwnCpu&) = delete;

 private:
  double start_ = -1.0;
};

/// The fixed-rate measurements of a serving workload.
struct Rounds {
  PhaseStats lo;          ///< light rate, all rounds merged
  PhaseStats hi;          ///< heavy rate, all rounds merged
  double capacity = 0.0;  ///< median full-batch rate over the rounds
  /// Median over the rounds of the CPU time per request of the capacity
  /// step: this process and `children`, less the benchmark's own work.
  double cpu_us_per_request = 0.0;
};

/// `rounds` rounds of {light phase, heavy phase, capacity step}, so each
/// figure samples the whole window rather than one stretch of it; a
/// host-level disturbance of a second or two then moves a minority of
/// the slices. `phase_seed` is set to each phase's request-stream seed
/// before the phase runs (the batch call builds requests from it).
[[nodiscard]] Rounds interleaved_rounds(OpenLoop& loop, Rates rates,
                                        double lo_seconds, double hi_seconds,
                                        double capacity_requests,
                                        unsigned rounds, std::uint64_t seed,
                                        std::uint64_t& phase_seed,
                                        double limit_us, const BatchCall& call,
                                        const std::vector<pid_t>& children);

/// Reports what both serving workloads take from their rounds and the
/// max-rate search (`tried` empty when it did not run): cpu_us_per_op,
/// the gen.* latency and rate figures, the generator-side serve.* ones,
/// and one note line per search step.
void report_reads(Result& out, const Rounds& rw,
                  const std::vector<PhaseStats>& tried, double max_qps,
                  double limit_us);

/// Highest offered rate whose phase meets `limit_us`, by geometric
/// bracketing from `guess` and bisection, in `steps` phases of
/// `step_seconds` each. Returns the highest passing rate tried (0 if
/// none passed); every phase's stats land in `tried`.
double search_max_rate(OpenLoop& loop, double guess, double limit_us,
                       unsigned steps, double step_seconds,
                       std::uint64_t seed, const BatchCall& call,
                       std::vector<PhaseStats>* tried);

}  // namespace perfbench
