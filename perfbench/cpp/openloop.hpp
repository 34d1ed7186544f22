// Open-loop load generator of the serving workloads (layer `gen`).
//
// Requests arrive on a Poisson schedule at a fixed offered rate, whether
// or not the system keeps up. Each request is timed from when it was
// due, so a stall also charges the requests that queued behind it. A
// sender that becomes free takes every request already due, up to a
// cap, and submits them as one batch call. Request i's content is a pure
// function of (phase seed, i), so nothing is pre-generated and the same
// seed replays the same stream.
//
// All per-request and per-call sample arrays are allocated and touched
// once at construction, so the measured window's resident-set growth is
// the system's own, not the generator's.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of one independent stream (a phase, a burst) of run seed `seed`.
[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t seed,
                                               std::uint64_t salt) {
  return mix64(mix64(seed) + 0x9e3779b97f4a7c15ULL * (salt + 1));
}

/// Outcome of one request, filled by the batch call.
struct Outcome {
  bool ok = false;
  bool topk = false;  ///< global top-k (reported separately)
};

/// One batch call: requests [first, first + count) of the phase; fills
/// out[0..count). `sender` identifies the calling sender thread.
using BatchCall = std::function<void(unsigned sender, std::uint64_t first,
                                     unsigned count, Outcome* out)>;

struct PhaseStats {
  double offered_rate = 0.0;
  std::uint64_t failed = 0;
  double completed_per_s = 0.0;  ///< requests over phase start to last reply
  /// p50, p90 and p99 of each 50 ms slice of the phase, median over
  /// the slices; failed requests count as misses.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double topk_p99_us = 0.0;   ///< same, global top-k requests only
  std::vector<double> slice_p50_us, slice_p90_us, slice_p99_us,
      slice_topk_p99_us;
  double call_p50_us = 0.0;   ///< time inside the batch call
  double call_p99_us = 0.0;
  double queue_wait_p99_us = 0.0;  ///< due time to call start
  double batch_mean = 0.0;
  double lag_p99_us = 0.0;    ///< idle sender waking past the due time
  /// True when the queue wait of the last fifth of the phase exceeds
  /// that of the first fifth by more than the latency limit.
  bool backlog_growing = false;
  [[nodiscard]] bool meets(double limit_us) const {
    return failed == 0 && p99_us <= limit_us && !backlog_growing;
  }
};

/// Several phases at one rate taken as one: slices pooled (p50 and p99
/// are medians over every slice), per-phase figures by median, counts
/// summed, the worst generator lag.
[[nodiscard]] PhaseStats merge(const std::vector<PhaseStats>& parts);

class OpenLoop {
 public:
  OpenLoop(std::size_t max_requests, unsigned senders, unsigned batch_cap);
  /// Drive one phase. The phase ends after `seconds` of arrivals (or
  /// when the sample arrays are full) and once every request answered.
  PhaseStats run(double rate, double seconds, std::uint64_t seed,
                 double limit_us, const BatchCall& call);
  /// Capacity: `count` requests all due at once, so every call carries
  /// a full batch; returns requests completed per second.
  double saturated_rate(std::uint64_t count, std::uint64_t seed,
                        const BatchCall& call);
  [[nodiscard]] std::size_t capacity() const { return lat_ns_.size(); }

 private:
  PhaseStats run_impl(double rate, double seconds, std::uint64_t max_n,
                      std::uint64_t seed, double limit_us,
                      const BatchCall& call);

  unsigned senders_;
  unsigned cap_;
  std::vector<std::uint32_t> lat_ns_;    // per request, from due
  std::vector<std::uint32_t> due_us_;    // per request, due offset
  std::vector<std::uint32_t> qwait_ns_;  // per request, due to call
  std::vector<std::uint8_t> flags_;      // per request: ok | topk << 1
  std::vector<std::uint32_t> call_ns_;   // per call
  std::vector<std::uint32_t> batch_;     // per call
  std::vector<std::uint32_t> lag_ns_;    // per idle wake-up
};

}  // namespace perfbench
