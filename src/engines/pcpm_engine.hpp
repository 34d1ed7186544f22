// Partition-centric scatter-gather engine (PCPM machinery).
//
// One engine body covers the three partition-centric methodologies of
// the paper through policy switches:
//
//   HiPa  — numa_aware + persistent_threads + pinned_partitions
//           (Algorithm 2: hierarchical plan, thread–data pinning,
//           NUMA-placed layout, all SMT threads usable)
//   p-PR  — NUMA-oblivious, per-phase thread regions, FCFS dynamic
//           partition queue (Algorithm 1; paper's hand-tuned baseline)
//   GPOP  — like p-PR with 1 MB partitions plus framework state
//           (per-partition Flags/State fields, extra indirection)
//
// The engine is kernel-generic (engines/kernels.hpp): any Kernel with
// scatter/gather hooks runs through the same hierarchical plan, bins,
// NUMA placement, telemetry and both execution paths. One iteration is
// two parallel regions (paper Algorithm 1/2):
//   scatter: for each owned source partition, stream its message
//            sources, read the cache-resident per-vertex state, stream
//            the kernel's messages into destination bins;
//   gather : for each owned destination partition, stream its inbox
//            and fold each message into its destination vertices
//            through intra-partition edges; then the kernel's apply
//            epilogue (PageRank-family) updates the vertex state.
// Frontier kernels (BFS/WCC/SSSP) additionally keep per-partition
// active maps: inactive partitions skip their whole scatter stream and
// their stale inbox pairs are skipped in gather.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <typeindex>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/prefetch.hpp"
#include "engines/backend.hpp"
#include "engines/kernels.hpp"
#include "graph/csr.hpp"
#include "partition/plan.hpp"
#include "pcp/bins.hpp"
#include "runtime/trace.hpp"

namespace hipa::engine {

/// Policy knobs for the PCPM engine family.
struct PcpmOptions {
  std::uint64_t partition_bytes = 256 * 1024;  ///< paper's Skylake optimum
  unsigned num_threads = 40;
  unsigned num_nodes = 2;  ///< plan granularity (match the machine)
  bool numa_aware = true;
  bool persistent_threads = true;
  bool pinned_partitions = true;  ///< false: FCFS dynamic claiming
  bool framework_overhead = false;  ///< GPOP-style per-partition state
  /// Enter ONE parallel region for the whole run (Backend::run_loop
  /// with in-region barriers) instead of two condvar dispatches per
  /// iteration. Only takes effect on backends that support it AND with
  /// persistent pinned-partition teams (the HiPa configuration);
  /// p-PR/GPOP keep the per-phase Algorithm 1 path. Off exists only
  /// for the tests that check both paths give bitwise-equal results.
  bool single_dispatch = true;
  /// Edge-balanced (paper Eq. 2) vs even-vertex partitioning (§3.1's
  /// rejected strawman, kept for the balance ablation).
  part::PlanConfig::Balance balance = part::PlanConfig::Balance::kEdges;
  /// Cycles one FCFS claim costs per contending thread.
  std::uint32_t fcfs_claim_cycles = 150;
  /// Extra framework cycles per message / per partition (GPOP).
  std::uint32_t framework_cycles_per_msg = 3;
  std::uint32_t framework_bytes_per_part = 64;

  /// The paper's named configurations.
  static PcpmOptions hipa(unsigned threads = 40, unsigned nodes = 2,
                          std::uint64_t part_bytes = 256 * 1024) {
    PcpmOptions o;
    o.partition_bytes = part_bytes;
    o.num_threads = threads;
    o.num_nodes = nodes;
    return o;
  }
  static PcpmOptions ppr(unsigned threads = 16, unsigned nodes = 2,
                         std::uint64_t part_bytes = 256 * 1024) {
    PcpmOptions o;
    o.partition_bytes = part_bytes;
    o.num_threads = threads;
    o.num_nodes = nodes;
    o.numa_aware = false;
    o.persistent_threads = false;
    o.pinned_partitions = false;
    return o;
  }
  static PcpmOptions gpop(unsigned threads = 20, unsigned nodes = 2,
                          std::uint64_t part_bytes = 1024 * 1024) {
    PcpmOptions o = ppr(threads, nodes, part_bytes);
    o.framework_overhead = true;
    return o;
  }
};

// RunOptions/PageRankOptions (shared by every engine) live in
// engines/backend.hpp next to RunReport/RunResult — the unified run
// surface; the per-kernel option structs live in engines/kernels.hpp.

template <class Backend>
class PcpmEngine {
 public:
  using Mem = typename Backend::Mem;

  PcpmEngine(const graph::Graph& g, const PcpmOptions& opt,
             Backend& backend)
      : graph_(&g), opt_(opt), backend_(&backend) {
    HIPA_CHECK(opt.num_threads >= 1 && opt.num_nodes >= 1);
    const double t0 = backend.now_seconds();
    build_plan();
    if (!opt_.pinned_partitions) build_fcfs_slots();
    build_bins();
    // The PageRank slot is built eagerly so the constructor carves the
    // arena in the historical order (rank, rank_scaled, acc, values,
    // framework state) and preprocessing_seconds covers it; other
    // kernels' state is built lazily on their first run.
    slot<PageRankKernel>().prep_seconds = 0.0;
    if (opt_.framework_overhead) {
      const std::size_t words_per_part =
          opt_.framework_bytes_per_part / sizeof(std::uint64_t);
      framework_state_ = backend_->template alloc_pages<std::uint64_t>(
          std::size_t{plan_.parts.num_partitions()} * words_per_part);
      framework_state_.fill_zero();
    }
    place_bins();
    charge_preprocessing();
    preprocessing_seconds_ = backend.now_seconds() - t0;
  }

  /// Unified run surface: report + final ranks in one value.
  [[nodiscard]] RunResult run(const PageRankOptions& pr) {
    RunResult result;
    result.report = run_pagerank(pr, &result.ranks);
    return result;
  }

  /// Kernel-generic run surface: one templated entry point for every
  /// kernel (PageRank, PPR, BFS, WCC, SSSP). Instrumentation
  /// (telemetry, hw counters, trace spans) stays a compile-time fork:
  /// the uninstrumented instantiation contains no recording code.
  template <class K>
  [[nodiscard]] KernelResult<K> run(const typename K::Options& ko,
                                    const RunOptions& ro = {}) {
    KernelResult<K> result;
    result.report = ro.instrumented()
                        ? run_kernel_impl<K, true>(ko, ro, &result.values)
                        : run_kernel_impl<K, false>(ko, ro, &result.values);
    return result;
  }

  /// Run PageRank; final ranks land in `ranks_out` when non-null.
  /// Thin wrapper over the generic core — ranks are bitwise identical
  /// to the pre-redesign PageRank-only engine.
  RunReport run_pagerank(const PageRankOptions& pr,
                         std::vector<rank_t>* ranks_out = nullptr) {
    PrOptions ko;
    ko.damping = pr.damping;
    return pr.instrumented()
               ? run_kernel_impl<PageRankKernel, true>(ko, pr, ranks_out)
               : run_kernel_impl<PageRankKernel, false>(ko, pr, ranks_out);
  }

 private:
  /// Per-kernel engine-side state: the kernel's vertex attributes, its
  /// typed message inbox (NUMA-placed like the PageRank values array)
  /// and, for frontier kernels, the double-buffered per-partition
  /// active maps (swapped by the control/0 thread between rounds).
  template <class K>
  struct KernelSlot {
    typename K::State state;
    AlignedBuffer<typename K::Message> values;
    AlignedBuffer<std::uint8_t> active;
    AlignedBuffer<std::uint8_t> next_active;
    std::uint8_t* active_ptr = nullptr;
    std::uint8_t* next_ptr = nullptr;
    /// Wall seconds spent building this slot (0 for the
    /// constructor-built PageRank slot — the engine's
    /// preprocessing_seconds already covers it).
    double prep_seconds = 0.0;
  };

  /// Find-or-create the slot for kernel K. Creation allocates the
  /// kernel's state + inbox from the arena and registers the same
  /// per-node placement the PageRank attributes get.
  template <class K>
  KernelSlot<K>& slot() {
    const std::type_index key(typeid(K));
    for (auto& [k, p] : slots_) {
      if (k == key) return *static_cast<KernelSlot<K>*>(p.get());
    }
    const double t0 = backend_->now_seconds();
    auto sp = std::make_shared<KernelSlot<K>>();
    sp->state = K::make_state(*graph_, *backend_);
    sp->values = backend_->template alloc_pages<typename K::Message>(
        bins_.total_messages());
    if constexpr (K::kUsesFrontier) {
      const std::uint32_t parts = plan_.parts.num_partitions();
      sp->active = backend_->template alloc_pages<std::uint8_t>(parts);
      sp->next_active = backend_->template alloc_pages<std::uint8_t>(parts);
      sp->active_ptr = sp->active.data();
      sp->next_ptr = sp->next_active.data();
    }
    place_slot<K>(*sp);
    sp->prep_seconds = backend_->now_seconds() - t0;
    KernelSlot<K>& ref = *sp;
    slots_.emplace_back(key, std::move(sp));
    return ref;
  }

  template <class K, bool kTel>
  RunReport run_kernel_impl(const typename K::Options& ko,
                            const RunOptions& ro,
                            std::vector<typename K::Value>* values_out) {
    KernelSlot<K>& sl = slot<K>();
    K::begin_run(sl.state, ko, *graph_);
    const unsigned max_iters = K::max_iterations(ko, ro);
    if constexpr (kTel) {
      timeline_.reset(opt_.num_threads);
      timeline_.reserve_iterations(std::min(max_iters, 4096u));
      if constexpr (!Backend::kSimulated) {
        // Hardware counters + trace spans are host-side concepts; the
        // simulated backend keeps its modeled counters instead.
        hwprof_.reset(opt_.num_threads,
                      ro.hw_counters == runtime::HwProf::kOn);
        if (!ro.trace_path.empty()) {
          timeline_.enable_spans(
              4 * std::size_t{std::min(max_iters, 4096u)} + 8);
        }
      }
    }
    ThreadTeamSpec spec;
    spec.num_threads = opt_.num_threads;
    spec.persistent = opt_.persistent_threads;
    spec.binding = opt_.numa_aware ? ThreadTeamSpec::Binding::kNodeBlocked
                                   : ThreadTeamSpec::Binding::kRandom;
    // Pad with idle nodes when the plan collapsed to fewer nodes than
    // the machine has (node-blocked placement wants one entry each).
    spec.threads_per_node = plan_.threads_per_node;
    spec.threads_per_node.resize(
        std::max<std::size_t>(spec.threads_per_node.size(),
                              opt_.num_nodes),
        0);

    sim::SimStats before;
    if constexpr (Backend::kSimulated) before = backend_->machine().stats();
    const double t0 = backend_->now_seconds();

    // Iteration region: any page-aligned allocation from here on must
    // come from the arena (debug builds assert; all builds count).
    [[maybe_unused]] std::optional<runtime::HotPathGuard> hot_guard;
    if constexpr (!Backend::kSimulated) {
      backend_->set_barrier_kind(ro.barrier);
      hot_guard.emplace();
    }
    phase_salt_ = 0;  // runs replay identically on a reset machine
    backend_->start_team(spec);
    const bool track = K::kHasApply && ro.tolerance > 0.0;
    if (track) deltas_.assign(opt_.num_threads, PaddedDouble{});

    unsigned iters_done = 0;
    double last_delta = 0.0;
    bool single_dispatch = false;
    if constexpr (Backend::kSupportsRunLoop) {
      // Algorithm 2's whole point: one team wakeup for the entire run.
      // FCFS claiming (p-PR/GPOP) keeps per-phase dispatch — its salt
      // rotation and claim-cost model are phase-granular by design.
      single_dispatch = opt_.single_dispatch && opt_.persistent_threads &&
                        opt_.pinned_partitions;
    }
    if (single_dispatch) {
      if constexpr (Backend::kSupportsRunLoop) {
        run_single_dispatch<K, kTel>(sl, ro, track, max_iters, &iters_done,
                                     &last_delta);
      }
    } else {
      timed_phase<kTel>(runtime::Phase::kInit, [&](unsigned t, Mem& mem) {
        init_thread<K, kTel>(sl, t, mem);
      });
      for (unsigned it = 0; it < max_iters; ++it) {
        [[maybe_unused]] double it0 = 0.0;
        if constexpr (kTel) it0 = backend_->now_seconds();
        ++phase_salt_;
        timed_phase<kTel>(runtime::Phase::kScatter,
                          [&](unsigned t, Mem& mem) {
                            scatter_thread<K, kTel>(sl, t, mem);
                          });
        ++phase_salt_;
        timed_phase<kTel>(runtime::Phase::kGather, [&](unsigned t, Mem& mem) {
          if (track) deltas_[t].value = 0.0;
          gather_thread<K, kTel>(sl, t, mem,
                                 track ? &deltas_[t].value : nullptr);
        });
        if constexpr (kTel) {
          timeline_.record_iteration(backend_->now_seconds() - it0);
        }
        iters_done = it + 1;
        if constexpr (K::kUsesFrontier) {
          if (!advance_frontier(sl)) break;
        } else {
          if (track) {
            last_delta = reduce_deltas();
            if (last_delta <= ro.tolerance) break;
          }
        }
      }
    }
    backend_->end_team();

    RunReport report;
    report.seconds = backend_->now_seconds() - t0;
    report.preprocessing_seconds = preprocessing_seconds_ + sl.prep_seconds;
    report.iterations = iters_done;
    report.last_delta = last_delta;
    if constexpr (Backend::kSimulated) {
      report.stats = stats_delta(backend_->machine().stats(), before);
    }
    if constexpr (kTel) {
      report.telemetry = runtime::aggregate(timeline_);
      if constexpr (!Backend::kSimulated) {
        if (ro.hw_counters == runtime::HwProf::kOn) {
          report.telemetry.hw_available = hwprof_.any_open();
          report.telemetry.hw_threads = hwprof_.open_threads();
          report.telemetry.hw_event_mask = hwprof_.event_mask();
          if (!report.telemetry.hw_available && hwprof_.num_threads() > 0) {
            report.telemetry.hw_errno = hwprof_.group(0).last_errno();
          }
        }
        if (!ro.trace_path.empty() &&
            !trace::ChromeTraceWriter::write(ro.trace_path, timeline_,
                                             engine_label())) {
          HIPA_WARN("trace write failed: " << ro.trace_path);
        }
      }
    }
    if constexpr (!Backend::kSimulated) {
      // Plain runtime branch after the parallel region — never on the
      // hot path, works with or without telemetry.
      report.arena = backend_->arena_stats();
      if (ro.audit_placement) report.placement_audit = run_placement_audit(sl);
    }
    if (values_out != nullptr) K::extract(sl.state, *values_out);
    return report;
  }

  /// Human label for traces: which of the three PCPM configurations
  /// this engine instance embodies.
  [[nodiscard]] const char* engine_label() const {
    if (opt_.numa_aware && opt_.persistent_threads &&
        opt_.pinned_partitions) {
      return "HiPa";
    }
    return opt_.framework_overhead ? "GPOP" : "p-PR";
  }

  /// Wrap one phase() dispatch in region accounting: region wall time
  /// (simulated seconds on SimBackend, host seconds on native) plus,
  /// on the simulated backend, the DRAM local/remote access delta the
  /// region produced. The kOff instantiation is exactly
  /// `backend_->phase(kernel)` — zero added code.
  template <bool kTel, class F>
  void timed_phase(runtime::Phase ph, F&& kernel) {
    if constexpr (!kTel) {
      backend_->phase(std::forward<F>(kernel));
    } else {
      [[maybe_unused]] sim::SimStats s0;
      if constexpr (Backend::kSimulated) s0 = backend_->machine().stats();
      const double t0 = backend_->now_seconds();
      backend_->phase(std::forward<F>(kernel));
      const double dt = backend_->now_seconds() - t0;
      if constexpr (Backend::kSimulated) {
        const sim::SimStats d =
            stats_delta(backend_->machine().stats(), s0);
        timeline_.record_region(ph, dt, d.dram_local_accesses,
                                d.dram_remote_accesses);
      } else {
        timeline_.record_region(ph, dt);
      }
    }
  }

 public:
  /// Whether run() will take the single-dispatch run_loop path
  /// (backend capability x policy knobs). Exposed for tests/bench.
  [[nodiscard]] bool uses_single_dispatch() const {
    return Backend::kSupportsRunLoop && opt_.single_dispatch &&
           opt_.persistent_threads && opt_.pinned_partitions;
  }

  /// Field-wise counter subtraction (this run's delta).
  static sim::SimStats stats_delta(sim::SimStats s, const sim::SimStats& b) {
    s.loads -= b.loads;
    s.stores -= b.stores;
    s.atomics -= b.atomics;
    s.l1_hits -= b.l1_hits;
    s.l1_misses -= b.l1_misses;
    s.l2_hits -= b.l2_hits;
    s.l2_misses -= b.l2_misses;
    s.llc_hits -= b.llc_hits;
    s.llc_misses -= b.llc_misses;
    s.dram_local_accesses -= b.dram_local_accesses;
    s.dram_remote_accesses -= b.dram_remote_accesses;
    s.dram_local_bytes -= b.dram_local_bytes;
    s.dram_remote_bytes -= b.dram_remote_bytes;
    s.thread_creations -= b.thread_creations;
    s.thread_migrations -= b.thread_migrations;
    s.phases -= b.phases;
    s.total_cycles -= b.total_cycles;
    return s;
  }

  /// Sparse matrix-vector product over the adjacency matrix:
  /// y[v] = sum of x[u] over edges u->v (paper §6's first listed
  /// extension). Runs one scatter-gather round through the same bins
  /// and thread-data pinning as PageRank, reusing the PageRank slot's
  /// attribute arrays as staging.
  RunReport run_spmv(std::span<const rank_t> x, std::vector<rank_t>& y) {
    const vid_t n = graph_->num_vertices();
    HIPA_CHECK(x.size() == n, "input vector size mismatch");
    KernelSlot<PageRankKernel>& sl = slot<PageRankKernel>();
    typename PageRankKernel::State& st = sl.state;
    ThreadTeamSpec spec;
    spec.num_threads = opt_.num_threads;
    spec.persistent = opt_.persistent_threads;
    spec.binding = opt_.numa_aware ? ThreadTeamSpec::Binding::kNodeBlocked
                                   : ThreadTeamSpec::Binding::kRandom;
    spec.threads_per_node = plan_.threads_per_node;
    spec.threads_per_node.resize(
        std::max<std::size_t>(spec.threads_per_node.size(), opt_.num_nodes),
        0);

    sim::SimStats before;
    if constexpr (Backend::kSimulated) before = backend_->machine().stats();
    const double t0 = backend_->now_seconds();

    // Stage x into the NUMA-placed rank_scaled array, then reuse the
    // PageRank scatter; gather accumulates into acc and copies to y.
    backend_->start_team(spec);
    ++phase_salt_;
    backend_->phase([&](unsigned t, Mem& mem) {
      for_owned_partitions(t, mem, true, [&](std::uint32_t p) {
        const VertexRange r = plan_.parts.range(p);
        mem.stream_read(x.data() + r.begin, r.size());
        mem.stream_write(st.rank_scaled.data() + r.begin, r.size());
        for (vid_t v = r.begin; v < r.end; ++v) {
          st.rank_scaled.data()[v] = x[v];
          st.acc.data()[v] = 0.0f;
        }
        mem.work(r.size());
      });
    });
    ++phase_salt_;
    backend_->phase([&](unsigned t, Mem& mem) {
      scatter_thread<PageRankKernel, false>(sl, t, mem);
    });
    ++phase_salt_;
    y.resize(n);
    backend_->phase([&](unsigned t, Mem& mem) {
      gather_accumulate<PageRankKernel, false>(sl, t, mem);
      for_owned_partitions(t, mem, false, [&](std::uint32_t q) {
        const VertexRange r = plan_.parts.range(q);
        mem.stream_read(st.acc.data() + r.begin, r.size());
        mem.stream_write(y.data() + r.begin, r.size());
        for (vid_t v = r.begin; v < r.end; ++v) {
          y[v] = st.acc.data()[v];
          st.acc.data()[v] = 0.0f;
        }
        mem.work(r.size());
      });
    });
    backend_->end_team();

    RunReport report;
    report.seconds = backend_->now_seconds() - t0;
    report.preprocessing_seconds = preprocessing_seconds_;
    report.iterations = 1;
    if constexpr (Backend::kSimulated) {
      report.stats = stats_delta(backend_->machine().stats(), before);
    }
    return report;
  }

  /// Weakly-connected components through the generic WccKernel (kept
  /// as a named convenience for algo::wcc and older call sites). The
  /// graph must be symmetric for the result to be *weak* connectivity.
  struct WccResult {
    std::vector<vid_t> labels;
    unsigned rounds = 0;
    RunReport report;
  };
  WccResult run_wcc(unsigned max_rounds = 1000) {
    WccOptions ko;
    ko.max_rounds = max_rounds;
    const RunOptions ro;
    WccResult result;
    result.report = run_kernel_impl<WccKernel, false>(ko, ro, &result.labels);
    result.rounds = result.report.iterations;
    return result;
  }

  [[nodiscard]] const part::HierarchicalPlan& plan() const { return plan_; }
  [[nodiscard]] const pcp::PcpmBins& bins() const { return bins_; }
  [[nodiscard]] double preprocessing_seconds() const {
    return preprocessing_seconds_;
  }

 private:
  void build_plan() {
    part::PlanConfig cfg;
    cfg.partition_bytes = opt_.partition_bytes;
    cfg.vertex_bytes = sizeof(rank_t);
    // Fewer threads than nodes degenerates to fewer plan nodes (a
    // 1-thread run cannot co-locate with data on two sockets).
    cfg.num_nodes = opt_.numa_aware
                        ? std::max(1u, std::min(opt_.num_nodes,
                                                opt_.num_threads))
                        : 1;
    cfg.threads_per_node.assign(cfg.num_nodes, 0);
    for (unsigned t = 0; t < opt_.num_threads; ++t) {
      ++cfg.threads_per_node[t % cfg.num_nodes];
    }
    cfg.balance = opt_.balance;
    plan_ = part::build_hierarchical_plan(graph_->out, cfg);
  }

  void build_bins() {
    bins_ = pcp::build_bins(graph_->out, plan_.parts);
  }

  /// Register the destination list's [db, de) entry range.
  void register_dst_range(eid_t db, eid_t de, DataPlacement pl,
                          unsigned node = 0) {
    backend_->register_buffer(bins_.dst_list().data() + db,
                              (de - db) * sizeof(vid_t), pl, node);
  }

  /// NUMA placement of one kernel slot: per-node slices of every
  /// vertex-indexed attribute array, and destination-side inbox
  /// first-touch. Attribute arrays are single contiguous allocations;
  /// per-node physical placement is registered over slices (paper
  /// §3.4's contiguous virtual address space with per-node pages). The
  /// inbox is written remotely in scatter and consumed locally in
  /// gather (Fig. 1's "send out updated data") — natural first touch
  /// would happen on the SOURCE node, the wrong side — so its pages
  /// are committed to the consuming node explicitly while their
  /// contents are still dead.
  template <class K>
  void place_slot(KernelSlot<K>& sl) {
    using Message = typename K::Message;
    const vid_t n = graph_->num_vertices();
    if (!opt_.numa_aware) {
      // NUMA-oblivious: pages land wherever the allocator/first-touch
      // scatter them; interleave is the faithful 2-node average.
      K::for_each_vertex_array(
          sl.state, [&](const char*, const void* base, std::size_t elem,
                        bool) {
            backend_->register_buffer(base, std::size_t{n} * elem,
                                      DataPlacement::kInterleave);
          });
      backend_->register_buffer(sl.values.data(),
                                sl.values.size() * sizeof(Message),
                                DataPlacement::kInterleave);
      return;
    }
    for (unsigned node = 0; node < plan_.num_nodes; ++node) {
      const VertexRange vr = plan_.node_vertex_range(node);
      K::for_each_vertex_array(
          sl.state, [&](const char*, const void* base, std::size_t elem,
                        bool) {
            backend_->register_buffer(
                static_cast<const char*>(base) +
                    std::size_t{vr.begin} * elem,
                std::size_t{vr.size()} * elem, DataPlacement::kNode, node);
          });
      const std::uint32_t pb = plan_.node_part_begin[node];
      const std::uint32_t pe = plan_.node_part_begin[node + 1];
      const auto [mb, me] = bins_.msg_slice(pb, pe);
      backend_->first_touch(sl.values.data() + mb,
                            (me - mb) * sizeof(Message), node);
    }
  }

  /// Placement of the kernel-independent bin streams (source lists +
  /// destination lists), registered once at construction.
  void place_bins() {
    if (!opt_.numa_aware) {
      backend_->register_buffer(bins_.src_list().data(),
                                bins_.src_list().size_bytes(),
                                DataPlacement::kInterleave);
      register_dst_range(0, bins_.total_dests(),
                         DataPlacement::kInterleave);
      return;
    }
    for (unsigned node = 0; node < plan_.num_nodes; ++node) {
      const std::uint32_t pb = plan_.node_part_begin[node];
      const std::uint32_t pe = plan_.node_part_begin[node + 1];
      // Source-side stream (read by this node's scatter threads).
      const auto [sb, se] = bins_.src_slice(pb, pe);
      backend_->register_buffer(bins_.src_list().data() + sb,
                                (se - sb) * sizeof(vid_t),
                                DataPlacement::kNode, node);
      const auto [db, de] = bins_.dst_slice(pb, pe);
      register_dst_range(db, de, DataPlacement::kNode, node);
    }
  }

  /// Verify the physical placement place_slot() asked for: register
  /// each per-node slice of the kernel's audited attribute arrays plus
  /// the destination-side inbox with the auditor and query the kernel
  /// for where the pages actually live. NUMA-oblivious configurations
  /// have no intended node per buffer, so they audit nothing
  /// (available stays false unless the host is multi-node AND
  /// numa_aware).
  template <class K>
  [[nodiscard]] numa::PlacementAudit run_placement_audit(
      KernelSlot<K>& sl) const {
    numa::PlacementAuditor auditor;
    backend_->register_arena(auditor);
    if (opt_.numa_aware) {
      for (unsigned node = 0; node < plan_.num_nodes; ++node) {
        const VertexRange vr = plan_.node_vertex_range(node);
        const std::string tag = "[node" + std::to_string(node) + "]";
        K::for_each_vertex_array(
            sl.state, [&](const char* nm, const void* base,
                          std::size_t elem, bool audited) {
              if (!audited) return;
              auditor.add(nm + tag,
                          static_cast<const char*>(base) +
                              std::size_t{vr.begin} * elem,
                          std::size_t{vr.size()} * elem, node);
            });
        const std::uint32_t pb = plan_.node_part_begin[node];
        const std::uint32_t pe = plan_.node_part_begin[node + 1];
        const auto [mb, me] = bins_.msg_slice(pb, pe);
        auditor.add("values" + tag, sl.values.data() + mb,
                    (me - mb) * sizeof(typename K::Message), node);
      }
    }
    return auditor.audit();
  }

  void charge_preprocessing() {
    if constexpr (Backend::kSimulated) {
      // Two CSR passes (count + fill) plus writing the bin structure,
      // all serial-equivalent bandwidth; ~15 cycles of bookkeeping per
      // edge (calibrated so the overhead amortizes within roughly the
      // paper's 10-13 HiPa iterations, §4.2).
      const eid_t e = graph_->num_edges();
      backend_->machine().charge_preprocessing(
          e * 16 + 2 * bins_.footprint_bytes(), e * 15);
    }
  }

  // ---- single-dispatch run loop (Algorithm 2) -----------------------------

  /// One cache line per thread so convergence partials never
  /// false-share.
  struct alignas(kCacheLine) PaddedDouble {
    double value = 0.0;
  };

  /// Deterministic thread-index-order reduction of the per-thread L1
  /// partials — shared by both execution paths so the early-stop
  /// decision is bit-identical.
  [[nodiscard]] double reduce_deltas() const {
    double sum = 0.0;
    for (const PaddedDouble& d : deltas_) sum += d.value;
    return sum;
  }

  /// Frontier bookkeeping between rounds (control thread on the
  /// phase() path, thread 0 between barriers on the single-dispatch
  /// path): scan the next-active map written by this round's gather,
  /// swap the double buffer, and report whether any partition stays
  /// active. Plain byte accesses — the phase barrier/join orders them.
  template <class K>
  bool advance_frontier(KernelSlot<K>& sl) {
    const std::uint32_t parts = plan_.parts.num_partitions();
    const std::uint8_t* nx = sl.next_ptr;
    bool any = false;
    for (std::uint32_t p = 0; p < parts; ++p) any = any || nx[p] != 0;
    std::swap(sl.active_ptr, sl.next_ptr);
    return any;
  }

  /// The whole kernel run inside ONE Backend::run_loop parallel
  /// region: init, then per iteration scatter | barrier | gather+apply
  /// | barrier, with thread 0 publishing the iteration scalars
  /// (executed count, convergence sum or frontier emptiness, stop
  /// flag) between barriers. Eliminates the 2-per-iteration condvar
  /// dispatch latency of the phase() path while computing
  /// bitwise-identical results.
  ///
  /// Telemetry (kTel): each thread times its own barrier waits
  /// (attributed to the phase the barrier closes) and thread 0 appends
  /// per-iteration wall seconds between barriers — the same
  /// happens-before pattern as the convergence scalars. The kOff
  /// instantiation is token-identical to the untelemetered loop.
  template <class K, bool kTel>
  void run_single_dispatch(KernelSlot<K>& sl, const RunOptions& ro,
                           bool track, unsigned max_iters,
                           unsigned* iters_out, double* delta_out) {
    // Published by thread 0 between barriers; the barrier's
    // acquire/release atomics order these plain accesses.
    unsigned iters_done = 0;
    double last_delta = 0.0;
    bool stop = false;
    backend_->run_loop([&](unsigned t, Mem& mem, LoopCtl& ctl) {
      auto timed_barrier = [&](runtime::Phase ph) {
        runtime::MaybeTimer<kTel> bt;
        runtime::MaybeSpan<kTel> bspan(timeline_);
        bt.reset();
        ctl.barrier();
        if constexpr (kTel) {
          runtime::PhaseSample& row = timeline_.thread(t)[ph];
          row.barrier_seconds += bt.seconds();
          ++row.barrier_crossings;
          bspan.finish(t, ph, runtime::SpanKind::kBarrier);
        }
      };
      runtime::MaybeTimer<kTel> iter_timer;
      init_thread<K, kTel>(sl, t, mem);
      // vertex state (and active maps) visible before any scatter
      timed_barrier(runtime::Phase::kInit);
      for (unsigned it = 0; it < max_iters; ++it) {
        if constexpr (kTel) {
          if (t == 0) iter_timer.reset();
        }
        scatter_thread<K, kTel>(sl, t, mem);
        // every inbox written before any gather reads
        timed_barrier(runtime::Phase::kScatter);
        if (track) deltas_[t].value = 0.0;
        gather_thread<K, kTel>(sl, t, mem,
                               track ? &deltas_[t].value : nullptr);
        // new vertex state ready for the next scatter
        timed_barrier(runtime::Phase::kGather);
        if (t == 0) {
          iters_done = it + 1;
          if constexpr (kTel) {
            timeline_.record_iteration(iter_timer.seconds());
          }
          if constexpr (K::kUsesFrontier) {
            stop = !advance_frontier(sl);
          } else {
            if (track) {
              last_delta = reduce_deltas();
              stop = last_delta <= ro.tolerance;
            }
          }
        }
        if constexpr (!K::kUsesFrontier) {
          if (!track) continue;
        }
        // thread 0's stop decision (and swapped active maps for
        // frontier kernels) reaches the team
        timed_barrier(runtime::Phase::kGather);
        if (stop) break;
      }
    });
    *iters_out = iters_done;
    *delta_out = last_delta;
  }

  // ---- per-phase partition->thread assignment -----------------------------

  /// Partitions processed by thread t this phase. Pinned mode: the
  /// plan's fixed groups. FCFS mode: the dynamic first-come-first-serve
  /// queue self-balances load, modeled as a longest-processing-time
  /// assignment whose slot->thread mapping rotates every phase (any
  /// thread may end up owning any partition, the paper's contention
  /// point), plus a claim cost per partition scaled by contender count.
  template <class F>
  void for_owned_partitions(unsigned t, Mem& mem, bool source_side,
                            F&& body) {
    (void)source_side;
    if (opt_.pinned_partitions) {
      const auto [pb, pe] = plan_.table.partitions_of_thread(t);
      for (std::uint32_t p = pb; p < pe; ++p) body(p);
      return;
    }
    const unsigned threads = opt_.num_threads;
    const auto& mine = fcfs_slots_[(t + phase_salt_) % threads];
    for (std::uint32_t p : mine) {
      mem.work(std::uint64_t{opt_.fcfs_claim_cycles} * threads);
      body(p);
    }
  }

  /// LPT schedule of partitions onto FCFS slots (built once).
  void build_fcfs_slots() {
    const unsigned threads = opt_.num_threads;
    fcfs_slots_.assign(threads, {});
    std::vector<std::uint32_t> order(plan_.parts.num_partitions());
    for (std::uint32_t p = 0; p < order.size(); ++p) order[p] = p;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return plan_.partition_weights[a] >
                              plan_.partition_weights[b];
                     });
    std::vector<std::uint64_t> load(threads, 0);
    for (std::uint32_t p : order) {
      unsigned best = 0;
      for (unsigned k = 1; k < threads; ++k) {
        if (load[k] < load[best]) best = k;
      }
      fcfs_slots_[best].push_back(p);
      load[best] += plan_.partition_weights[p] + 1;
    }
  }

  // ---- kernels -------------------------------------------------------------

  template <class K, bool kTel>
  void init_thread(KernelSlot<K>& sl, unsigned t, Mem& mem) {
    // Per-thread kernel wall is only meaningful on native backends
    // (simulated threads run in charged sim time, not host time).
    runtime::MaybeTimer<kTel && !Backend::kSimulated> sw;
    runtime::HwSection<kTel && !Backend::kSimulated> hwsec(hwprof_, t);
    runtime::MaybeSpan<kTel && !Backend::kSimulated> span(timeline_);
    sw.reset();
    [[maybe_unused]] std::uint8_t* act = nullptr;
    [[maybe_unused]] std::uint8_t* nxt = nullptr;
    if constexpr (K::kUsesFrontier) {
      act = sl.active_ptr;
      nxt = sl.next_ptr;
    }
    for_owned_partitions(t, mem, true, [&](std::uint32_t p) {
      const VertexRange r = plan_.parts.range(p);
      K::init(sl.state, mem, r);
      if constexpr (K::kUsesFrontier) {
        act[p] = K::initially_active(sl.state, r) ? 1 : 0;
        nxt[p] = 0;
      }
    });
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(t)[runtime::Phase::kInit];
      ++row.invocations;
      row.wall_seconds += sw.seconds();
      hwsec.finish(row.hw);
      span.finish(t, runtime::Phase::kInit, runtime::SpanKind::kKernel);
    }
  }

  /// Software-prefetch lookahead in the pair loops (entries, not
  /// bytes). Far enough to cover an L2 hit, close enough to stay
  /// inside the partition's resident slice.
  static constexpr eid_t kPrefetchDist = 16;

  template <class K, bool kTel>
  void scatter_thread(KernelSlot<K>& sl, unsigned t, Mem& mem) {
    using Message = typename K::Message;
    runtime::MaybeTimer<kTel && !Backend::kSimulated> sw;
    runtime::HwSection<kTel && !Backend::kSimulated> hwsec(hwprof_, t);
    runtime::MaybeSpan<kTel && !Backend::kSimulated> span(timeline_);
    sw.reset();
    [[maybe_unused]] std::uint64_t tel_msgs = 0;
    const auto& pairs = bins_.pairs();
    const auto& src_begin = bins_.src_pair_begin();
    const vid_t* src_list = bins_.src_list().data();
    const auto sc = K::scatter_ctx(sl.state);
    Message* vals = sl.values.data();
    [[maybe_unused]] const std::uint8_t* act = nullptr;
    [[maybe_unused]] std::uint8_t* nxt = nullptr;
    if constexpr (K::kUsesFrontier) {
      act = sl.active_ptr;
      nxt = sl.next_ptr;
    }
    for_owned_partitions(t, mem, true, [&](std::uint32_t p) {
      if constexpr (K::kUsesFrontier) {
        // Clearing here (before the gather phase sets bits) keeps the
        // double buffer race-free: every partition is claimed exactly
        // once per phase. An inactive partition skips its whole
        // source stream — the frontier payoff.
        nxt[p] = 0;
        if (act[p] == 0) return;
      }
      for (std::uint32_t k = src_begin[p]; k < src_begin[p + 1]; ++k) {
        const pcp::PairInfo& pr = pairs[k];
        if constexpr (kTel) tel_msgs += pr.msg_count;
        mem.stream_read(&pr, 1);  // bin metadata
        mem.stream_read(src_list + pr.src_off, pr.msg_count);
        mem.stream_write(vals + pr.value_off, pr.msg_count);
        // Hoisted cursors; the per-vertex state read is random but
        // resident in this partition's cache slice — prefetch hides
        // its latency when the slice spills past L1.
        const vid_t* __restrict src = src_list + pr.src_off;
        Message* __restrict out = vals + pr.value_off;
        const eid_t cnt = pr.msg_count;
        const eid_t fenced = cnt > kPrefetchDist ? cnt - kPrefetchDist : 0;
        eid_t i = 0;
        for (; i < fenced; ++i) {
          K::scatter_prefetch(sc, src[i + kPrefetchDist]);
          out[i] = K::scatter(sc, mem, src[i]);
        }
        for (; i < cnt; ++i) out[i] = K::scatter(sc, mem, src[i]);
        mem.work(2 * pr.msg_count);
        if (opt_.framework_overhead) {
          mem.work(std::uint64_t{opt_.framework_cycles_per_msg} *
                   pr.msg_count);
        }
      }
      if (opt_.framework_overhead) framework_touch(p, mem);
    });
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(t)[runtime::Phase::kScatter];
      ++row.invocations;
      row.wall_seconds += sw.seconds();
      row.messages_produced += tel_msgs;
      row.bytes_produced += tel_msgs * sizeof(Message);
      hwsec.finish(row.hw);
      span.finish(t, runtime::Phase::kScatter, runtime::SpanKind::kKernel);
    }
  }

  /// Inbox drain of one thread's destination partitions: fold message
  /// values into the kernel's vertex state (shared by the gather phase
  /// and SpMV). The inner loop is branchless in its message tracking:
  /// the new-message flag sits in the entry's top bit, so adding it to
  /// `msg` advances the message index and the value re-load is
  /// L1-resident. Frontier kernels skip pairs whose source partition
  /// is inactive — those inbox slices were not rewritten this round —
  /// and mark the destination partition next-active when any vertex
  /// changed.
  template <class K, bool kTel>
  void gather_accumulate(KernelSlot<K>& sl, unsigned t, Mem& mem) {
    using Message = typename K::Message;
    using Bins = pcp::PcpmBins;
    const vid_t* dst_list = bins_.dst_list().data();
    [[maybe_unused]] std::uint64_t tel_msgs = 0;
    [[maybe_unused]] std::uint64_t tel_dsts = 0;
    const auto& pairs = bins_.pairs();
    const auto& dpi = bins_.dst_pair_index();
    const auto& dpb = bins_.dst_pair_begin();
    const Message* __restrict vals = sl.values.data();
    const auto gc = K::gather_ctx(sl.state);
    [[maybe_unused]] const std::uint8_t* act = nullptr;
    [[maybe_unused]] std::uint8_t* nxt = nullptr;
    if constexpr (K::kUsesFrontier) {
      act = sl.active_ptr;
      nxt = sl.next_ptr;
    }
    for_owned_partitions(t, mem, false, [&](std::uint32_t q) {
      [[maybe_unused]] bool part_changed = false;
      for (std::uint32_t idx = dpb[q]; idx < dpb[q + 1]; ++idx) {
        const pcp::PairInfo& pr = pairs[dpi[idx]];
        if constexpr (K::kUsesFrontier) {
          if (act[pr.src_part] == 0) continue;
        }
        if constexpr (kTel) {
          tel_msgs += pr.msg_count;
          tel_dsts += pr.dst_count;
        }
        mem.stream_read(&pr, 1);
        mem.stream_read(vals + pr.value_off, pr.msg_count);
        mem.stream_read(dst_list + pr.dst_off, pr.dst_count);
        const vid_t* __restrict dl = dst_list + pr.dst_off;
        const eid_t cnt = pr.dst_count;
        // First entry of a pair is always flagged, so the pre-first
        // message index is never read.
        eid_t msg = pr.value_off - 1;
        const eid_t fenced = cnt > kPrefetchDist ? cnt - kPrefetchDist : 0;
        eid_t j = 0;
        for (; j < fenced; ++j) {
          const vid_t e = dl[j];
          K::gather_prefetch(gc, Bins::dst_vertex(dl[j + kPrefetchDist]));
          msg += Bins::is_msg_start(e);
          const vid_t d = Bins::dst_vertex(e);
          if constexpr (K::kUsesFrontier) {
            part_changed |= K::gather(gc, mem, d, vals[msg]);
          } else {
            K::gather(gc, mem, d, vals[msg]);
          }
        }
        for (; j < cnt; ++j) {
          const vid_t e = dl[j];
          msg += Bins::is_msg_start(e);
          const vid_t d = Bins::dst_vertex(e);
          if constexpr (K::kUsesFrontier) {
            part_changed |= K::gather(gc, mem, d, vals[msg]);
          } else {
            K::gather(gc, mem, d, vals[msg]);
          }
        }
        mem.work(2 * pr.dst_count + pr.msg_count);
        if (opt_.framework_overhead) {
          mem.work(std::uint64_t{opt_.framework_cycles_per_msg} *
                   pr.msg_count);
        }
      }
      if constexpr (K::kUsesFrontier) {
        if (part_changed) nxt[q] = 1;
      }
    });
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(t)[runtime::Phase::kGather];
      row.messages_consumed += tel_msgs;
      row.bytes_consumed +=
          tel_msgs * sizeof(Message) + tel_dsts * sizeof(vid_t);
    }
  }

  /// Gather + apply. When `delta_out` is non-null (kHasApply kernels
  /// tracking convergence), accumulates this thread's L1 state change
  /// (sum |new - old| over owned vertices, in vertex order); the
  /// update arithmetic is identical either way.
  template <class K, bool kTel>
  void gather_thread(KernelSlot<K>& sl, unsigned t, Mem& mem,
                     double* delta_out = nullptr) {
    runtime::MaybeTimer<kTel && !Backend::kSimulated> sw;
    runtime::HwSection<kTel && !Backend::kSimulated> hwsec(hwprof_, t);
    runtime::MaybeSpan<kTel && !Backend::kSimulated> span(timeline_);
    sw.reset();
    gather_accumulate<K, kTel>(sl, t, mem);
    if constexpr (K::kHasApply) {
      double l1 = 0.0;
      for_owned_partitions(t, mem, false, [&](std::uint32_t q) {
        const VertexRange r = plan_.parts.range(q);
        if (delta_out == nullptr) {
          K::apply(sl.state, mem, r);
        } else {
          l1 += K::apply_tracked(sl.state, mem, r);
        }
        if (opt_.framework_overhead) framework_touch(q, mem);
      });
      if (delta_out != nullptr) *delta_out += l1;
    }
    if constexpr (kTel) {
      runtime::PhaseSample& row =
          timeline_.thread(t)[runtime::Phase::kGather];
      ++row.invocations;
      row.wall_seconds += sw.seconds();
      hwsec.finish(row.hw);
      span.finish(t, runtime::Phase::kGather, runtime::SpanKind::kKernel);
    }
  }

  /// GPOP-style per-partition framework state (Flags, State, bin
  /// sizes): an extra streamed structure per partition per phase.
  void framework_touch(std::uint32_t p, Mem& mem) {
    const std::size_t words =
        opt_.framework_bytes_per_part / sizeof(std::uint64_t);
    std::uint64_t* state = framework_state_.data() + p * words;
    mem.stream_read(state, words);
    mem.stream_write(state, words);
    mem.work(50);
  }

  const graph::Graph* graph_;
  PcpmOptions opt_;
  Backend* backend_;
  part::HierarchicalPlan plan_;
  pcp::PcpmBins bins_;
  /// Per-kernel state slots (vertex attributes + typed inbox + active
  /// maps), keyed by kernel type; the PageRank slot is built in the
  /// constructor, others on first use.
  std::vector<std::pair<std::type_index, std::shared_ptr<void>>> slots_;
  AlignedBuffer<std::uint64_t> framework_state_;
  std::vector<std::vector<std::uint32_t>> fcfs_slots_;
  /// Per-thread L1 convergence partials (only sized when a run tracks
  /// convergence); cache-line padded against false sharing.
  std::vector<PaddedDouble> deltas_;
  /// Per-thread telemetry rows + phase-region totals; reset at the top
  /// of every telemetered run, untouched (empty) otherwise.
  runtime::PhaseTimeline timeline_;
  /// Per-thread perf_event counter groups; provisioned only when a
  /// native run asks for HwProf::kOn (otherwise empty, zero syscalls).
  runtime::HwProfiler hwprof_;
  double preprocessing_seconds_ = 0.0;
  unsigned phase_salt_ = 0;
};

}  // namespace hipa::engine
