// Execution backends.
//
// Engines are written once against a small backend concept and run
// either natively (real threads, zero-overhead no-op instrumentation)
// or on the simulated NUMA machine (every data access modeled). The
// backend owns three concerns:
//   * allocation + NUMA placement registration,
//   * the thread team model (persistent Algorithm-2 teams vs
//     per-phase Algorithm-1 regions; binding policy),
//   * phase execution and time measurement.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include <string>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "runtime/affinity.hpp"
#include "runtime/arena.hpp"
#include "runtime/barrier.hpp"
#include "runtime/numa_audit.hpp"
#include "runtime/placement.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/machine.hpp"

namespace hipa::engine {

/// Where a buffer's pages live (mirrors sim::Placement; the native
/// backend treats it as advisory).
enum class DataPlacement {
  kNode,        ///< bound to one NUMA node
  kInterleave,  ///< round-robin pages
  kScatter,     ///< wherever first touch lands (NUMA-oblivious)
};

/// Thread team description.
struct ThreadTeamSpec {
  unsigned num_threads = 1;
  /// Algorithm 2 (persistent, created once) vs Algorithm 1 (fresh
  /// threads per parallel region).
  bool persistent = true;
  enum class Binding {
    kNodeBlocked,  ///< bound to nodes per threads_per_node (NUMA-aware)
    kSpread,       ///< round-robin over physical cores (good scheduler)
    kRandom,       ///< arbitrary logical cores (paper §3.3.1's OS model)
  } binding = Binding::kSpread;
  /// Required for kNodeBlocked; one entry per node.
  std::vector<unsigned> threads_per_node;
};

// ---------------------------------------------------------------------------
// Native backend
// ---------------------------------------------------------------------------

/// Zero-cost instrumentation: plain loads/stores; atomics are real.
class NoopMem {
 public:
  explicit NoopMem(unsigned tid) : tid_(tid) {}

  template <class T>
  [[nodiscard]] T load(const T* p) const {
    return *p;
  }
  template <class T>
  void store(T* p, T v) const {
    *p = v;
  }
  template <class T>
  void atomic_add(T* p, T v) const {
    std::atomic_ref<T>(*p).fetch_add(v, std::memory_order_relaxed);
  }
  template <class T>
  void stream_read(const T*, std::size_t) const {}
  template <class T>
  void stream_write(const T*, std::size_t) const {}
  void work(std::uint64_t) const {}
  [[nodiscard]] unsigned tid() const { return tid_; }
  [[nodiscard]] unsigned node() const { return 0; }

 private:
  unsigned tid_;
};

/// Per-thread handle inside a `run_loop` parallel region. Wraps the
/// team-wide barrier (flat SpinBarrier or topology-aware TreeBarrier —
/// run_loop picks) together with this thread's private sense flag, so
/// kernels separate sub-phases with a bare `ctl.barrier()`. Plain
/// (non-atomic) data written before a barrier may be read by any team
/// thread after it — the barrier's acquire/release atomics carry the
/// happens-before edge (this is how thread 0 publishes per-iteration
/// scalars to the team) on both barrier shapes.
class LoopCtl {
 public:
  explicit LoopCtl(runtime::SpinBarrier& barrier) : flat_(&barrier) {}
  LoopCtl(runtime::TreeBarrier& barrier, unsigned tid)
      : tree_(&barrier), tid_(tid), is_tree_(true) {}

  /// In-region barrier: every team thread arrives before any proceeds.
  /// Dispatches on a flag, not on a null test, so no inlined path
  /// dereferences the barrier pointer left null.
  void barrier() {
    if (is_tree_) {
      tree_->arrive_and_wait(tid_, sense_);
    } else {
      flat_->arrive_and_wait(sense_);
    }
  }

 private:
  runtime::SpinBarrier* flat_ = nullptr;
  runtime::TreeBarrier* tree_ = nullptr;
  unsigned tid_ = 0;
  bool is_tree_ = false;
  bool sense_ = false;
};

/// Real-thread execution. Phase time contributes to wall-clock
/// `now_seconds()`. NUMA is real here: `start_team` translates the
/// binding policy into concrete CPU pins via the discovered host
/// topology, and placement hints bind pages (mbind when compiled in,
/// pinned first-touch otherwise).
class NativeBackend {
 public:
  using Mem = NoopMem;
  static constexpr bool kSimulated = false;
  static constexpr bool kSupportsRunLoop = true;

  /// Allocate and physically place from the partitioned NUMA arena.
  /// Contents are unspecified (like AlignedBuffer); allocations are
  /// page-aligned bump carves out of the region matching the placement
  /// hint, so the policy governs exactly this allocation's pages.
  template <class T>
  [[nodiscard]] AlignedBuffer<T> alloc(std::size_t n, DataPlacement pl,
                                       unsigned node = 0) {
    return arena().template alloc_buffer<T>(n, to_arena(pl), node);
  }

  /// Page-aligned, placement-neutral arena allocation: pages commit
  /// where first touched, which is exactly what the engines' contiguous
  /// attribute arrays want (each pinned owner touches its own slice).
  template <class T>
  [[nodiscard]] AlignedBuffer<T> alloc_pages(std::size_t n) {
    return arena().template alloc_buffer<T>(
        n, runtime::ArenaPlacement::kFirstTouch);
  }

  /// The backend's arena (created on first allocation; outlives every
  /// buffer it handed out because engines never outlive their backend).
  [[nodiscard]] runtime::NumaArena& arena() {
    if (!arena_) arena_ = std::make_shared<runtime::NumaArena>();
    return *arena_;
  }

  [[nodiscard]] runtime::ArenaStats arena_stats() const {
    return arena_ ? arena_->stats() : runtime::ArenaStats{};
  }

  /// Add the arena's node-bound spans to a placement audit.
  void register_arena(numa::PlacementAuditor& auditor) const {
    if (arena_) arena_->register_with(auditor);
  }

  /// Which barrier the next run_loop hands its team (from
  /// PageRankOptions::barrier; kAuto picks by topology).
  void set_barrier_kind(runtime::BarrierKind kind) { barrier_kind_ = kind; }

  /// Best-effort physical placement of an existing range. Without
  /// mbind support this can only migrate nothing — untouched pages
  /// still land correctly when their pinned owner touches them first
  /// (the engines' init phases are written to guarantee that), and
  /// already-touched pages stay put (slower, never wrong).
  void register_buffer(const void* p, std::size_t bytes, DataPlacement pl,
                       unsigned node = 0) {
    place(const_cast<void*>(p), bytes, pl, node, /*contents_dead=*/false);
  }

  /// Zero `bytes` at `p` AND commit the pages to `node`: mbind+memset
  /// when available, else a pinned-thread first-touch write. Contents
  /// must be dead. (SimBackend mirrors the zeroing so both backends
  /// leave identical memory images.)
  void first_touch(void* p, std::size_t bytes, unsigned node) {
    if (runtime::bind_pages_to_node(p, bytes, node)) {
      std::memset(p, 0, bytes);
    } else {
      runtime::first_touch_zero_on_node(p, bytes, node);
    }
  }

  [[nodiscard]] unsigned num_nodes() const {
    return runtime::topology().num_nodes();
  }

  void start_team(const ThreadTeamSpec& spec) {
    spec_ = spec;
    if (spec.persistent) {
      team_ = std::make_unique<runtime::PersistentTeam>(spec.num_threads,
                                                        cpu_map(spec));
    }
  }

  template <class F>
  void phase(F&& kernel) {
    const unsigned threads =
        team_ ? team_->size() : spec_.num_threads;
    auto body = [&](unsigned t) {
      NoopMem mem(t);
      kernel(t, mem);
    };
    if (team_) {
      team_->run(body);
    } else {
      runtime::fork_join_run(threads, body);
    }
  }

  /// ONE parallel region for a whole multi-phase run (Algorithm 2's
  /// single dispatch): `kernel(tid, mem, ctl)` runs once per team
  /// thread and separates its internal sub-phases with
  /// `ctl.barrier()`. Replaces `2 × iters` condvar dispatches with one
  /// wakeup plus in-region spin barriers.
  template <class F>
  void run_loop(F&& kernel) {
    const unsigned threads =
        team_ ? team_->size() : spec_.num_threads;
    const std::vector<unsigned> groups = barrier_groups(threads);
    if (!groups.empty()) {
      runtime::TreeBarrier barrier(groups);
      auto body = [&](unsigned t) {
        NoopMem mem(t);
        LoopCtl ctl(barrier, t);
        kernel(t, mem, ctl);
      };
      if (team_) {
        team_->run(body);
      } else {
        runtime::fork_join_run(threads, body);
      }
      return;
    }
    runtime::SpinBarrier barrier(threads);
    auto body = [&](unsigned t) {
      NoopMem mem(t);
      LoopCtl ctl(barrier);
      kernel(t, mem, ctl);
    };
    if (team_) {
      team_->run(body);
    } else {
      runtime::fork_join_run(threads, body);
    }
  }

  void end_team() { team_.reset(); }

  [[nodiscard]] double now_seconds() const { return timer_.seconds(); }

 private:
  /// Binding policy -> concrete OS CPU ids, one per team thread.
  /// kRandom leaves scheduling to the OS (the paper §3.3.1 baseline).
  [[nodiscard]] static std::vector<unsigned> cpu_map(
      const ThreadTeamSpec& spec) {
    switch (spec.binding) {
      case ThreadTeamSpec::Binding::kNodeBlocked: {
        auto map = runtime::cpus_node_blocked(spec.threads_per_node);
        // An inconsistent spec (counts don't sum to the team size)
        // degrades to spread rather than mis-pinning.
        if (map.size() != spec.num_threads) {
          return runtime::cpus_spread(spec.num_threads);
        }
        return map;
      }
      case ThreadTeamSpec::Binding::kSpread:
        return runtime::cpus_spread(spec.num_threads);
      case ThreadTeamSpec::Binding::kRandom:
        return {};
    }
    return {};
  }

  void place(void* p, std::size_t bytes, DataPlacement pl, unsigned node,
             bool contents_dead) {
    switch (pl) {
      case DataPlacement::kScatter:
        return;  // NUMA-oblivious by definition
      case DataPlacement::kNode:
        if (!runtime::bind_pages_to_node(p, bytes, node) && contents_dead) {
          runtime::first_touch_zero_on_node(p, bytes, node);
        }
        return;
      case DataPlacement::kInterleave:
        if (!runtime::interleave_pages(p, bytes) && contents_dead) {
          runtime::first_touch_zero_interleaved(p, bytes);
        }
        return;
    }
  }

  [[nodiscard]] static runtime::ArenaPlacement to_arena(DataPlacement pl) {
    switch (pl) {
      case DataPlacement::kNode:
        return runtime::ArenaPlacement::kNode;
      case DataPlacement::kInterleave:
        return runtime::ArenaPlacement::kInterleave;
      case DataPlacement::kScatter:
        break;
    }
    return runtime::ArenaPlacement::kFirstTouch;
  }

  /// tid -> barrier leaf for the next run_loop, or empty for the flat
  /// SpinBarrier. Node-blocked teams group by their pinned node; kAuto
  /// takes the tree only when that yields >= 2 populated leaves.
  /// Forced kTree on hosts where topology gives one group synthesizes
  /// two balanced halves so the tree protocol is still exercised.
  [[nodiscard]] std::vector<unsigned> barrier_groups(unsigned threads) const {
    if (barrier_kind_ == runtime::BarrierKind::kFlat || threads < 2) {
      return {};
    }
    std::vector<unsigned> groups;
    if (spec_.binding == ThreadTeamSpec::Binding::kNodeBlocked) {
      unsigned sum = 0;
      for (unsigned c : spec_.threads_per_node) sum += c;
      if (sum == threads) {
        unsigned g = 0;
        for (unsigned c : spec_.threads_per_node) {
          if (c == 0) continue;  // keep leaves dense
          groups.insert(groups.end(), c, g);
          ++g;
        }
      }
    }
    const unsigned num_groups = groups.empty() ? 0 : groups.back() + 1;
    if (num_groups >= 2) return groups;
    if (barrier_kind_ == runtime::BarrierKind::kAuto) return {};
    groups.assign(threads, 0);
    for (unsigned t = (threads + 1) / 2; t < threads; ++t) groups[t] = 1;
    return groups;
  }

  ThreadTeamSpec spec_;
  std::unique_ptr<runtime::PersistentTeam> team_;
  std::shared_ptr<runtime::NumaArena> arena_;
  runtime::BarrierKind barrier_kind_ = runtime::BarrierKind::kAuto;
  Timer timer_;
};

// ---------------------------------------------------------------------------
// Simulated backend
// ---------------------------------------------------------------------------

/// Runs phases on a sim::SimMachine; allocation registers NUMA
/// placement; team lifecycle charges thread creation/migration.
class SimBackend {
 public:
  using Mem = sim::SimMem;
  static constexpr bool kSimulated = true;
  /// The simulator charges per-phase costs, so engines keep using the
  /// per-phase dispatch path here (exactly what the paper's model
  /// measures for Algorithm 1 vs 2 thread management).
  static constexpr bool kSupportsRunLoop = false;

  explicit SimBackend(sim::SimMachine& machine) : machine_(&machine) {}

  [[nodiscard]] sim::SimMachine& machine() { return *machine_; }
  [[nodiscard]] unsigned num_nodes() const {
    return machine_->topology().num_nodes;
  }

  template <class T>
  [[nodiscard]] AlignedBuffer<T> alloc(std::size_t n, DataPlacement pl,
                                       unsigned node = 0) {
    AlignedBuffer<T> buf(n);
    register_buffer(buf.data(), n * sizeof(T), pl, node);
    return buf;
  }

  /// Mirror of NativeBackend::alloc_pages — page-aligned, no placement
  /// registration (first-touch is scatter in the sim's NUMA model).
  template <class T>
  [[nodiscard]] AlignedBuffer<T> alloc_pages(std::size_t n) {
    // arena-exempt: simulated machine, no physical pages to place
    return AlignedBuffer<T>(n, kPageSize);
  }

  void register_buffer(const void* p, std::size_t bytes, DataPlacement pl,
                       unsigned node = 0) {
    machine_->numa().register_range(p, bytes, to_sim(pl), node);
  }

  /// Mirror of NativeBackend::first_touch: zero the range (so both
  /// backends leave identical memory images) and register it
  /// node-bound in the NUMA model.
  void first_touch(void* p, std::size_t bytes, unsigned node) {
    std::memset(p, 0, bytes);
    register_buffer(p, bytes, DataPlacement::kNode, node);
  }

  void start_team(const ThreadTeamSpec& spec) {
    spec_ = spec;
    machine_->charge_thread_creations(spec.num_threads);
    if (spec.persistent) {
      placement_ = make_placement();
      if (spec.binding == ThreadTeamSpec::Binding::kNodeBlocked) {
        // Worst-case binding: every thread might start on the wrong
        // node; the paper bounds migrations by the team size (§3.3.2).
        machine_->charge_thread_migrations(spec.num_threads / 2, true);
      }
    }
  }

  template <class F>
  void phase(F&& kernel) {
    if (!spec_.persistent) {
      machine_->charge_thread_creations(spec_.num_threads);
      placement_ = make_placement();
      if (spec_.binding == ThreadTeamSpec::Binding::kNodeBlocked) {
        // Algorithm 1 + NUMA binding: threads spawn anywhere, then get
        // migrated to their node — (1 - 1/N) expected per thread.
        const unsigned n = machine_->topology().num_nodes;
        machine_->charge_thread_migrations(
            spec_.num_threads - spec_.num_threads / n, true);
      }
    }
    machine_->run_phase(placement_,
                        [&](unsigned t, sim::SimMem& mem) { kernel(t, mem); });
  }

  void end_team() {}

  [[nodiscard]] double now_seconds() const { return machine_->seconds(); }

 private:
  [[nodiscard]] static sim::Placement to_sim(DataPlacement pl) {
    switch (pl) {
      case DataPlacement::kNode:
        return sim::Placement::kNode;
      case DataPlacement::kInterleave:
        return sim::Placement::kInterleave;
      case DataPlacement::kScatter:
        return sim::Placement::kScatter;
    }
    return sim::Placement::kScatter;
  }

  [[nodiscard]] sim::PlacementVec make_placement() {
    switch (spec_.binding) {
      case ThreadTeamSpec::Binding::kNodeBlocked:
        return machine_->placement_node_blocked(spec_.threads_per_node);
      case ThreadTeamSpec::Binding::kSpread:
        return machine_->placement_spread(spec_.num_threads);
      case ThreadTeamSpec::Binding::kRandom:
        return machine_->placement_random(spec_.num_threads);
    }
    HIPA_CHECK(false, "unknown binding");
    __builtin_unreachable();
  }

  sim::SimMachine* machine_;
  ThreadTeamSpec spec_;
  sim::PlacementVec placement_;
};

/// PageRank run parameters — the one options surface every engine's
/// `run()` / `run_pagerank()` accepts (PCPM family, v-PR, Polymer).
/// Kernel-independent run controls shared by every engine and every
/// kernel (PageRank, PPR, BFS, WCC, SSSP): iteration budget,
/// convergence tracking, instrumentation and placement.
/// Kernel-specific knobs (damping, seeds, source vertex) live in the
/// per-kernel option structs (engines/kernels.hpp).
struct RunOptions {
  unsigned iterations = 20;  ///< paper's fixed iteration count (a cap
                             ///< when tolerance > 0); frontier kernels
                             ///< use their own max_rounds instead
  /// L1 convergence threshold: stop once sum_v |r_new - r_old| drops
  /// to or below it. 0 (default) keeps the paper's fixed-iteration
  /// behavior. The per-thread partial sums and the early-stop decision
  /// are computed identically on the per-phase and single-dispatch
  /// paths, so both stop after the same iteration with bitwise-equal
  /// ranks.
  double tolerance = 0.0;
  /// Per-phase/per-thread telemetry (RunReport::telemetry). kOff (the
  /// default) compiles the instrumentation out of the run path
  /// entirely — ranks are bitwise identical to an untelemetered build.
  runtime::Telemetry telemetry = runtime::Telemetry::kOff;
  /// Per-thread perf_event counter groups around the same recording
  /// sites (native backends only; implies the telemetered code path).
  /// Soft-degrades — RunTelemetry::hw_available stays false — when the
  /// kernel denies perf_event_open.
  runtime::HwProf hw_counters = runtime::HwProf::kOff;
  /// When non-empty (native backends), collect per-thread spans and
  /// write a Chrome/Perfetto trace-events JSON here after the run.
  /// Implies the telemetered code path.
  std::string trace_path;
  /// Audit physical page placement of the engine's attribute/bin
  /// buffers after allocation (native backends; RunReport::
  /// placement_audit). Reports available=false on single-node hosts or
  /// when both move_pages and numa_maps are inaccessible.
  bool audit_placement = false;
  /// run_loop barrier shape (native single-dispatch path only): kAuto
  /// uses the topology-aware tree barrier when the team is node-blocked
  /// across >= 2 nodes, flat SpinBarrier otherwise.
  runtime::BarrierKind barrier = runtime::BarrierKind::kAuto;

  /// True when any instrumentation was requested — the engines'
  /// run-path dispatch: instrumented() picks the kTel=true
  /// instantiation, plain runs pick the token-identical kOff path.
  [[nodiscard]] bool instrumented() const {
    return telemetry == runtime::Telemetry::kOn ||
           hw_counters == runtime::HwProf::kOn || !trace_path.empty();
  }
};

/// PageRank's run surface: the shared run controls plus the damping
/// factor. The (iterations, damping) constructor exists so positional
/// `{20, 0.85f}` initialization keeps meaning (iterations, damping) —
/// without it, aggregate brace elision would silently route the second
/// value into RunOptions::tolerance.
struct PageRankOptions : RunOptions {
  rank_t damping = 0.85f;

  PageRankOptions() = default;
  PageRankOptions(unsigned iters, rank_t d = 0.85f) {
    iterations = iters;
    damping = d;
  }
};

/// Result of one engine run.
struct RunReport {
  double seconds = 0.0;                ///< iteration time
  double preprocessing_seconds = 0.0;  ///< partitioning + bins + layout
  unsigned iterations = 0;  ///< executed (may undershoot with tolerance)
  /// L1 rank delta of the last executed iteration; 0 unless the run
  /// tracked convergence (PageRankOptions::tolerance > 0).
  double last_delta = 0.0;
  sim::SimStats stats;  ///< simulated backends only (zero for native)
  /// Per-phase/per-thread breakdown; default (enabled == false,
  /// all-zero) unless the run requested Telemetry::kOn.
  runtime::RunTelemetry telemetry;
  /// NUMA page-placement verification (PageRankOptions::
  /// audit_placement on a native multi-node run); default
  /// available=false otherwise.
  numa::PlacementAudit placement_audit;
  /// Arena allocation snapshot after the run (native backends; empty
  /// regions vector for simulated runs): bytes per node region,
  /// hugepage/policy status, heap fallbacks.
  runtime::ArenaStats arena;
};

/// The unified PageRank run surface every engine and the `algo::`
/// facade return: the report and the final ranks in one value. The
/// kernel-generic analog is KernelResult<K> (engines/kernels.hpp);
/// RunResult is exactly KernelResult<PageRankKernel> by another name.
struct RunResult {
  RunReport report;
  std::vector<rank_t> ranks;
};

}  // namespace hipa::engine
