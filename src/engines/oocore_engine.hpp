// Out-of-core segmented PageRank (native backend only — the point is
// real file I/O).
//
// The graph lives in a segmented HCSR v4 file (graph/io.hpp): the
// pull-direction CSR sliced by destination range. Only O(V) vertex
// attributes plus two segment-sized staging slots are resident; the
// edge topology streams through the slots one segment at a time, with
// an async prefetch thread reading segment N+1 while the team computes
// on segment N (double buffering). Per-vertex accumulation order is
// unchanged by segmentation, so ranks are bitwise identical to running
// the same kernel fully in-core — which `streaming = false` does, as
// the comparator.
//
// Time the compute team spends blocked on the prefetch thread is
// charged to the Phase::kIoWait telemetry row (thread 0); the stats()
// accessor reports fetch/wait seconds and the overlap ratio between
// them, fetch split into read and verify, plus byte accounting for the
// budget assertion.
//
// A fetch that fails (checksum mismatch, short read) on the prefetch
// thread is captured and rethrown on the thread that called run(),
// after the producer is joined and the team is torn down, so the
// engine can run again.
#pragma once

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/numeric.hpp"
#include "engines/backend.hpp"
#include "graph/io.hpp"
#include "runtime/trace.hpp"

namespace hipa::engine {

struct OocoreOptions {
  unsigned num_threads = 4;
  /// Resident-set ceiling for segment payload staging, in bytes.
  /// 0 = unlimited. Streaming mode needs two staging slots (double
  /// buffering), so the largest segment payload must fit the budget
  /// twice — checked at construction.
  std::size_t resident_budget_bytes = 0;
  /// false = load every segment up front and run the identical kernel
  /// fully in-core (the bitwise comparator for streaming runs).
  bool streaming = true;
  /// Overlap the read of segment N+1 with compute on segment N via a
  /// producer thread. false = synchronous reads on the driving thread
  /// (all fetch time becomes I/O wait). Ignored when !streaming.
  bool prefetch = true;
};

struct OocoreStats {
  unsigned segments = 0;
  std::uint64_t segment_fetches = 0;  ///< read_segment calls issued
  std::uint64_t bytes_fetched = 0;    ///< cumulative payload bytes read
  /// High-water mark of resident segment payload bytes (staging slots
  /// for streaming runs, the whole topology for in-core runs). Vertex
  /// attribute arrays (O(V)) are outside the budget by definition.
  std::size_t peak_resident_bytes = 0;
  std::size_t resident_budget_bytes = 0;  ///< 0 = unlimited
  double io_wait_seconds = 0.0;  ///< compute blocked on segment data
  double fetch_seconds = 0.0;    ///< wall time inside segment reads
  /// fetch_seconds split by graph/io: getting the payload bytes
  /// (pread / mmap) and checksumming them.
  double read_seconds = 0.0;
  double verify_seconds = 0.0;
  /// Fraction of fetch time hidden behind compute: 1 means every read
  /// finished before the team needed it, 0 means fully synchronous.
  [[nodiscard]] double overlap_ratio() const {
    if (fetch_seconds <= 0.0) return 1.0;
    const double r = 1.0 - io_wait_seconds / fetch_seconds;
    return r < 0.0 ? 0.0 : (r > 1.0 ? 1.0 : r);
  }
};

class OocoreEngine {
 public:
  using Mem = NativeBackend::Mem;

  OocoreEngine(const std::string& segmented_path, const OocoreOptions& opt,
               NativeBackend& backend)
      : opt_(opt), backend_(&backend) {
    HIPA_CHECK(opt.num_threads >= 1);
    const double t0 = backend.now_seconds();
    scsr_ = graph::SegmentedCsr::open(segmented_path);
    const vid_t n = scsr_.num_vertices();
    HIPA_CHECK(n > 0, "'" << segmented_path << "' has no vertices");

    stats_.segments = scsr_.num_segments();
    stats_.resident_budget_bytes = opt.resident_budget_bytes;

    rank_ = backend.template alloc_pages<rank_t>(n);
    new_rank_ = backend.template alloc_pages<rank_t>(n);
    contrib_ = backend.template alloc_pages<rank_t>(n);
    inv_deg_ = backend.template alloc_pages<rank_t>(n);
    const auto degrees = scsr_.out_degrees();
    for (vid_t v = 0; v < n; ++v) {
      inv_deg_[v] = degrees[v] == 0
                        ? rank_t{0}
                        : rank_t{1} / static_cast<rank_t>(degrees[v]);
    }

    if (opt.streaming) {
      const std::size_t slot = scsr_.max_payload_bytes();
      const std::size_t resident = 2 * slot;
      HIPA_CHECK(
          opt.resident_budget_bytes == 0 ||
              resident <= opt.resident_budget_bytes,
          "resident budget " << opt.resident_budget_bytes
                             << " bytes cannot hold two staging slots of "
                             << slot
                             << " bytes (the largest segment payload) — "
                                "re-shard with a smaller segment size or "
                                "raise the budget");
      staging_[0] = backend.template alloc_pages<unsigned char>(slot);
      staging_[1] = backend.template alloc_pages<unsigned char>(slot);
      stats_.peak_resident_bytes = resident;
    } else {
      // A payload's length is only a multiple of sizeof(vid_t), so each
      // one starts eid_t-aligned, as it would in a staging slot.
      incore_offsets_.reserve(stats_.segments);
      std::size_t pos = 0;
      for (unsigned s = 0; s < stats_.segments; ++s) {
        incore_offsets_.push_back(pos);
        pos += round_up<std::size_t>(scsr_.segment(s).payload_bytes,
                                     alignof(eid_t));
      }
      incore_ = backend.template alloc_pages<unsigned char>(pos);
      for (unsigned s = 0; s < stats_.segments; ++s) {
        scsr_.read_segment(s, incore_.data() + incore_offsets_[s]);
        ++stats_.segment_fetches;
      }
      stats_.peak_resident_bytes = pos;
    }

    vertex_chunks_ = even_chunks<vid_t>(n, opt.num_threads);
    preprocessing_seconds_ = backend.now_seconds() - t0;
  }

  /// Unified run surface (report + final ranks), matching the in-core
  /// engines. RunReport::telemetry includes the Phase::kIoWait row.
  [[nodiscard]] RunResult run(const PageRankOptions& pr) {
    return pr.instrumented() ? run_impl<true>(pr) : run_impl<false>(pr);
  }

  /// I/O accounting of the most recent run (fetch bytes/seconds reset
  /// per run; segments/budget are construction-time facts).
  [[nodiscard]] const OocoreStats& stats() const { return stats_; }

  [[nodiscard]] const graph::SegmentedCsr& graph() const { return scsr_; }
  [[nodiscard]] double preprocessing_seconds() const {
    return preprocessing_seconds_;
  }

 private:
  /// Double-buffered segment pipeline: a producer thread preads the
  /// flattened sequence seq = 0 .. iters*S-1 (segment seq % S) into
  /// slot seq % 2; the consumer (driving thread) blocks until its
  /// sequence number lands, runs the gather phase over it, then
  /// releases the slot. Two slots in flight keep exactly one read
  /// ahead of compute, which is all sequential consumption can use.
  struct Pipeline {
    std::mutex mu;
    std::condition_variable filled_cv;
    std::condition_variable freed_cv;
    std::int64_t slot_seq[2] = {-1, -1};  ///< sequence resident per slot
    std::int64_t next_consume = 0;
    bool done = false;
    std::exception_ptr error;  ///< producer's failed fetch, if any
    double fetch_seconds = 0.0;
    std::uint64_t fetches = 0;
  };

  template <bool kTel>
  RunResult run_impl(const PageRankOptions& pr) {
    const vid_t n = scsr_.num_vertices();
    const unsigned num_segments = stats_.segments;
    const unsigned threads = opt_.num_threads;
    stats_.io_wait_seconds = 0.0;
    stats_.fetch_seconds = 0.0;
    stats_.read_seconds = 0.0;
    stats_.verify_seconds = 0.0;
    const std::uint64_t bytes0 = scsr_.bytes_fetched();
    const std::uint64_t read_ns0 = scsr_.read_ns();
    const std::uint64_t verify_ns0 = scsr_.verify_ns();
    if (opt_.streaming) stats_.segment_fetches = 0;

    if constexpr (kTel) {
      timeline_.reset(threads);
      timeline_.reserve_iterations(pr.iterations);
      if (!pr.trace_path.empty()) {
        timeline_.enable_spans(
            (2 + std::size_t{num_segments}) * pr.iterations + 4);
      }
    }

    ThreadTeamSpec spec;
    spec.num_threads = threads;
    spec.persistent = true;
    spec.binding = ThreadTeamSpec::Binding::kSpread;

    const double t0 = backend_->now_seconds();
    [[maybe_unused]] std::optional<runtime::HotPathGuard> hot_guard;
    hot_guard.emplace();
    backend_->start_team(spec);

    const auto r0 = static_cast<rank_t>(1.0 / static_cast<double>(n));
    timed_phase<kTel>(runtime::Phase::kInit, [&](unsigned t, Mem&) {
      runtime::MaybeTimer<kTel> sw;
      sw.reset();
      for (vid_t v = vertex_chunks_[t]; v < vertex_chunks_[t + 1]; ++v) {
        rank_[v] = r0;
      }
      if constexpr (kTel) {
        runtime::PhaseSample& row =
            timeline_.thread(t)[runtime::Phase::kInit];
        ++row.invocations;
        row.wall_seconds += sw.seconds();
      }
    });

    // Spin up the producer once for the whole run; it stays exactly
    // one segment ahead across iteration boundaries too (the last
    // segment of iteration i overlaps the first read of i+1).
    Pipeline pipe;
    std::thread producer;
    const bool async = opt_.streaming && opt_.prefetch && pr.iterations > 0;
    if (async) {
      const std::int64_t total =
          std::int64_t{pr.iterations} * num_segments;
      producer = std::thread([this, &pipe, total, num_segments] {
        produce(pipe, total, num_segments);
      });
    }

    const auto base =
        static_cast<rank_t>((1.0 - pr.damping) / static_cast<double>(n));
    std::vector<PaddedDouble> partials(threads);
    const bool track_delta = pr.tolerance > 0.0;
    double last_delta = 0.0;
    unsigned executed = 0;
    std::int64_t seq = 0;
    try {
      for (unsigned it = 0; it < pr.iterations; ++it) {
        [[maybe_unused]] double it0 = 0.0;
        if constexpr (kTel) it0 = backend_->now_seconds();
        timed_phase<kTel>(runtime::Phase::kScatter, [&](unsigned t, Mem&) {
          contrib_pass<kTel>(t);
        });
        if (track_delta) {
          for (PaddedDouble& p : partials) p.v = 0.0;
        }
        for (unsigned s = 0; s < num_segments; ++s, ++seq) {
          const void* payload = acquire_segment<kTel>(pipe, async, s, seq);
          const graph::SegmentedCsr::SegmentView view = scsr_.view(s, payload);
          timed_phase<kTel>(runtime::Phase::kGather, [&](unsigned t, Mem&) {
            gather_pass<kTel>(t, view, base, pr.damping,
                              track_delta ? &partials[t].v : nullptr);
          });
          if (async) release_segment(pipe, seq);
        }
        std::swap(rank_, new_rank_);
        ++executed;
        if constexpr (kTel) {
          timeline_.record_iteration(backend_->now_seconds() - it0);
        }
        if (track_delta) {
          last_delta = 0.0;
          for (const PaddedDouble& p : partials) last_delta += p.v;
          if (last_delta <= pr.tolerance) break;
        }
      }
    } catch (...) {
      // A failed fetch (either thread) ends the run: no rank from a
      // corrupt segment is ever returned, and the engine stays usable.
      stop_producer(pipe, producer);
      backend_->end_team();
      throw;
    }

    if (async) {
      stop_producer(pipe, producer);
      stats_.fetch_seconds = pipe.fetch_seconds;
      stats_.segment_fetches += pipe.fetches;
    }
    backend_->end_team();

    RunResult result;
    result.report.seconds = backend_->now_seconds() - t0;
    result.report.preprocessing_seconds = preprocessing_seconds_;
    result.report.iterations = executed;
    result.report.last_delta = last_delta;
    if constexpr (kTel) {
      result.report.telemetry = runtime::aggregate(timeline_);
      if (!pr.trace_path.empty() &&
          !trace::ChromeTraceWriter::write(pr.trace_path, timeline_,
                                           "oocore")) {
        HIPA_WARN("trace write failed: " << pr.trace_path);
      }
    }
    result.report.arena = backend_->arena_stats();
    // In-core runs fetch nothing: everything was resident before t0.
    stats_.bytes_fetched = scsr_.bytes_fetched() - bytes0;
    stats_.read_seconds =
        1e-9 * static_cast<double>(scsr_.read_ns() - read_ns0);
    stats_.verify_seconds =
        1e-9 * static_cast<double>(scsr_.verify_ns() - verify_ns0);
    result.ranks.assign(rank_.begin(), rank_.end());
    return result;
  }

  /// Producer body: read the flattened segment sequence one slot ahead
  /// of the consumer. Only file I/O happens here — no arena traffic,
  /// no rank access — so it needs no synchronization with the team
  /// beyond the slot protocol. A failed read is parked in pipe.error
  /// for the consumer to rethrow, and ends the producer.
  void produce(Pipeline& pipe, std::int64_t total, unsigned num_segments) {
    for (std::int64_t seq = 0; seq < total; ++seq) {
      {
        std::unique_lock<std::mutex> lock(pipe.mu);
        pipe.freed_cv.wait(lock, [&] {
          return pipe.done || seq - pipe.next_consume < 2;
        });
        if (pipe.done) return;
      }
      const double f0 = backend_->now_seconds();
      try {
        scsr_.read_segment(static_cast<unsigned>(seq % num_segments),
                           staging_[seq % 2].data());
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(pipe.mu);
          pipe.error = std::current_exception();
        }
        pipe.filled_cv.notify_one();
        return;
      }
      const double dt = backend_->now_seconds() - f0;
      {
        std::lock_guard<std::mutex> lock(pipe.mu);
        pipe.fetch_seconds += dt;
        ++pipe.fetches;
        pipe.slot_seq[seq % 2] = seq;
      }
      pipe.filled_cv.notify_one();
    }
  }

  /// Stop and join the producer (no-op when none was started).
  static void stop_producer(Pipeline& pipe, std::thread& producer) {
    if (!producer.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(pipe.mu);
      pipe.done = true;
    }
    pipe.freed_cv.notify_all();
    producer.join();
  }

  /// Block until segment `s` (sequence `seq`) is resident and return
  /// its payload, or rethrow the producer's failure. The blocked
  /// interval is the run's I/O wait — charged to thread 0's
  /// Phase::kIoWait telemetry row.
  template <bool kTel>
  const void* acquire_segment(Pipeline& pipe, bool async, unsigned s,
                              std::int64_t seq) {
    if (!opt_.streaming) {
      return incore_.data() + incore_offsets_[s];
    }
    const double w0 = backend_->now_seconds();
    const void* payload = nullptr;
    if (async) {
      std::unique_lock<std::mutex> lock(pipe.mu);
      pipe.filled_cv.wait(lock, [&] {
        return pipe.slot_seq[seq % 2] == seq || pipe.error != nullptr;
      });
      if (pipe.slot_seq[seq % 2] != seq) std::rethrow_exception(pipe.error);
      payload = staging_[seq % 2].data();
    } else {
      scsr_.read_segment(s, staging_[0].data());
      ++stats_.segment_fetches;
      payload = staging_[0].data();
    }
    const double wait = backend_->now_seconds() - w0;
    stats_.io_wait_seconds += wait;
    if (!async) stats_.fetch_seconds += wait;
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(0)[runtime::Phase::kIoWait];
      ++row.invocations;
      row.wall_seconds += wait;
      row.bytes_consumed += scsr_.segment(s).payload_bytes;
      timeline_.record_region(runtime::Phase::kIoWait, wait);
    }
    return payload;
  }

  /// Mark `seq` consumed so the producer may overwrite its slot.
  void release_segment(Pipeline& pipe, std::int64_t seq) {
    {
      std::lock_guard<std::mutex> lock(pipe.mu);
      pipe.next_consume = seq + 1;
    }
    pipe.freed_cv.notify_one();
  }

  template <bool kTel>
  void contrib_pass(unsigned t) {
    runtime::MaybeTimer<kTel> sw;
    sw.reset();
    const vid_t b = vertex_chunks_[t];
    const vid_t e = vertex_chunks_[t + 1];
    const rank_t* __restrict rank = rank_.data();
    const rank_t* __restrict inv = inv_deg_.data();
    rank_t* __restrict contrib = contrib_.data();
    for (vid_t v = b; v < e; ++v) contrib[v] = rank[v] * inv[v];
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(t)[runtime::Phase::kScatter];
      ++row.invocations;
      row.wall_seconds += sw.seconds();
      row.messages_produced += e - b;
      row.bytes_produced += std::uint64_t{e - b} * sizeof(rank_t);
    }
  }

  /// Pull pass over one segment's destination range. The split is by
  /// destination vertex, and each vertex's sum runs over its sources
  /// in payload order — per-vertex accumulation is identical no matter
  /// how [v_begin, v_end) is cut across threads or segments, which is
  /// what makes streaming bitwise-equal to in-core.
  template <bool kTel>
  void gather_pass(unsigned t, const graph::SegmentedCsr::SegmentView& view,
                   rank_t base, rank_t damping, double* delta_out) {
    runtime::MaybeTimer<kTel> sw;
    sw.reset();
    const vid_t nv = view.range.size();
    const vid_t b = view.range.begin + chunk_of(nv, t);
    const vid_t e = view.range.begin + chunk_of(nv, t + 1);
    const eid_t* __restrict offsets = view.offsets.data();
    const vid_t* __restrict sources = view.sources.data();
    const rank_t* __restrict contrib = contrib_.data();
    rank_t* __restrict out = new_rank_.data();
    [[maybe_unused]] std::uint64_t tel_edges = 0;
    double delta = 0.0;
    for (vid_t v = b; v < e; ++v) {
      const eid_t lo = offsets[v - view.range.begin];
      const eid_t hi = offsets[v - view.range.begin + 1];
      rank_t sum = 0.0f;
      for (eid_t i = lo; i < hi; ++i) sum += contrib[sources[i]];
      const rank_t r = base + damping * sum;
      out[v] = r;
      if (delta_out != nullptr) {
        delta += std::abs(static_cast<double>(r) -
                          static_cast<double>(rank_[v]));
      }
      if constexpr (kTel) tel_edges += hi - lo;
    }
    if (delta_out != nullptr) *delta_out += delta;
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(t)[runtime::Phase::kGather];
      ++row.invocations;
      row.wall_seconds += sw.seconds();
      row.messages_consumed += tel_edges;
      row.bytes_consumed += tel_edges * sizeof(rank_t);
    }
  }

  /// Even split boundary: thread t's chunk of nv vertices starts here.
  [[nodiscard]] vid_t chunk_of(vid_t nv, unsigned t) const {
    const auto tt = static_cast<std::uint64_t>(t);
    return static_cast<vid_t>(tt * nv / opt_.num_threads);
  }

  /// Region accounting around one phase() dispatch (vpr/pcpm idiom).
  template <bool kTel, class F>
  void timed_phase(runtime::Phase ph, F&& kernel) {
    if constexpr (!kTel) {
      backend_->phase(std::forward<F>(kernel));
    } else {
      const double t0 = backend_->now_seconds();
      backend_->phase(std::forward<F>(kernel));
      timeline_.record_region(ph, backend_->now_seconds() - t0);
    }
  }

  struct alignas(kCacheLine) PaddedDouble {
    double v = 0.0;
  };

  OocoreOptions opt_;
  NativeBackend* backend_;
  graph::SegmentedCsr scsr_;
  AlignedBuffer<rank_t> rank_;
  AlignedBuffer<rank_t> new_rank_;
  AlignedBuffer<rank_t> contrib_;
  AlignedBuffer<rank_t> inv_deg_;
  AlignedBuffer<unsigned char> staging_[2];  ///< streaming slots
  AlignedBuffer<unsigned char> incore_;      ///< !streaming: all payloads
  std::vector<std::size_t> incore_offsets_;  ///< per-segment offset in ^
  std::vector<vid_t> vertex_chunks_;
  runtime::PhaseTimeline timeline_;
  OocoreStats stats_;
  double preprocessing_seconds_ = 0.0;
};

}  // namespace hipa::engine
