// Compile-time Kernel concept for the partition-centric engines.
//
// A kernel packages everything algorithm-specific about one
// scatter-gather computation so the engines (PcpmEngine, VprEngine,
// PolymerEngine) can stay algorithm-agnostic:
//
//   Message  POD payload written into the PcpmBins value stream (one
//            per source vertex per destination partition). The bin
//            format itself is payload-agnostic: the 32-bit destination
//            list only carries the new-message flag + destination id,
//            never the payload.
//   Value    per-vertex result type (extract() copies it out).
//   Options  kernel-specific knobs (damping, seeds, source vertex).
//   State    per-vertex attribute arrays, arena-allocated by
//            make_state() through the backend, plus run-scoped scalars
//            set by begin_run().
//
// Hot-path hooks (all static, templated on the backend's Mem so the
// simulated backend keeps its accounting seam):
//
//   scatter_ctx/gather_ctx   hoisted-cursor PODs built once per thread
//                            per phase — the generic inner loops touch
//                            only these, so each kernel inlines to the
//                            same code a hand-written loop would.
//   scatter(ctx, mem, u)     produce vertex u's Message.
//   gather(ctx, mem, d, m)   fold message m into destination d;
//                            returns whether d's value changed (drives
//                            the active-partition frontier).
//   apply/apply_tracked      per-partition epilogue after the gather
//                            drain (kHasApply kernels only; the
//                            tracked form returns this range's L1
//                            delta for tolerance-based convergence).
//
// Frontier semantics (kUsesFrontier): the engine keeps two dense
// per-partition byte maps (active / next_active). Scatter clears
// next_active[p] and skips the whole source stream of an inactive
// partition; gather skips pairs whose *source* partition is inactive
// (their inbox slice is stale) and marks the destination partition
// next-active when any of its vertices changed. The run stops when a
// round leaves no partition active. Monotone gathers (min) make the
// skipped stale slices harmless: re-applying an already-applied value
// is a no-op.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/prefetch.hpp"
#include "common/types.hpp"
#include "engines/backend.hpp"
#include "graph/csr.hpp"

namespace hipa::engine {

// ---- per-kernel option structs (one namespace, one style) -----------------

/// PageRank: damping only (iterations/tolerance live in RunOptions).
struct PrOptions {
  rank_t damping = 0.85f;
};

/// Personalized PageRank: restart mass is split uniformly over the
/// seed set instead of all vertices. An empty seed set degenerates to
/// a uniform restart vector (plain PageRank up to rounding).
struct PprOptions {
  rank_t damping = 0.85f;
  std::vector<vid_t> seeds;
};

/// BFS from `source`; rounds are levels. max_rounds is a safety cap —
/// the frontier quiescing is the real stop condition.
struct BfsOptions {
  vid_t source = 0;
  unsigned max_rounds = 100000;
};

/// WCC by min-label propagation (graph must be symmetrized for *weak*
/// connectivity — algo::wcc does that).
struct WccOptions {
  unsigned max_rounds = 100000;
};

/// Single-source shortest paths with source-determined edge weights
/// w(u) (the bin format carries one message per (source, destination
/// partition), so weights must be a function of the source vertex;
/// see DESIGN.md §3.11).
struct SsspOptions {
  vid_t source = 0;
  unsigned max_rounds = 100000;
};

/// Typed result of engine::run<K> / PcpmEngine::run<K>.
template <class K>
struct KernelResult {
  RunReport report;
  std::vector<typename K::Value> values;
};

// ---- PageRank --------------------------------------------------------------

/// The paper's kernel. The hooks below inline to exactly the
/// pre-redesign hand-written loops (same loads/stores, same order,
/// same prefetches), so ranks are bitwise identical to the old
/// PageRank-only engine.
struct PageRankKernel {
  using Message = rank_t;
  using Value = rank_t;
  using Options = PrOptions;
  static constexpr bool kUsesFrontier = false;
  static constexpr bool kHasApply = true;
  static constexpr const char* kName = "pagerank";

  struct State {
    AlignedBuffer<rank_t> rank;
    AlignedBuffer<rank_t> rank_scaled;
    AlignedBuffer<rank_t> acc;
    AlignedBuffer<rank_t> inv_deg;  ///< 1/out-degree, 0 for sinks
    rank_t base = 0.0f;
    rank_t damping = 0.85f;
    rank_t r0 = 0.0f;
  };

  template <class Backend>
  static State make_state(const graph::Graph& g, Backend& backend) {
    const vid_t n = g.num_vertices();
    State s;
    // Carved page-aligned from the arena's first-touch region — fresh,
    // never-touched pages, deliberately NOT eagerly zeroed: the first
    // write happens in init() from the pinned owner of each slice (the
    // classic first-touch placement). inv_deg is a cold-path heap
    // allocation by design (cache-line aligned, below the
    // page-alignment threshold the arena hook polices).
    s.rank = backend.template alloc_pages<rank_t>(n);
    s.rank_scaled = backend.template alloc_pages<rank_t>(n);
    s.acc = backend.template alloc_pages<rank_t>(n);
    s.inv_deg = graph::inverse_degrees<rank_t>(g.out);
    return s;
  }

  /// Vertex-indexed arrays for NUMA slice registration + the placement
  /// audit (`audited` selects the arrays the auditor names).
  template <class F>
  static void for_each_vertex_array(State& s, F&& f) {
    f("rank", s.rank.data(), sizeof(rank_t), true);
    f("rank_scaled", s.rank_scaled.data(), sizeof(rank_t), true);
    f("acc", s.acc.data(), sizeof(rank_t), true);
    f("inv_deg", s.inv_deg.data(), sizeof(rank_t), false);
  }

  static void begin_run(State& s, const Options& o, const graph::Graph& g) {
    const vid_t n = g.num_vertices();
    s.base =
        static_cast<rank_t>((1.0 - o.damping) / static_cast<double>(n));
    s.damping = o.damping;
    s.r0 = static_cast<rank_t>(1.0 / static_cast<double>(n));
  }

  static unsigned max_iterations(const Options&, const RunOptions& ro) {
    return ro.iterations;
  }

  template <class Mem>
  static void init(State& s, Mem& mem, VertexRange r) {
    mem.stream_read(s.inv_deg.data() + r.begin, r.size());
    mem.stream_write(s.rank.data() + r.begin, r.size());
    mem.stream_write(s.rank_scaled.data() + r.begin, r.size());
    mem.stream_write(s.acc.data() + r.begin, r.size());
    rank_t* __restrict rank = s.rank.data();
    rank_t* __restrict scaled = s.rank_scaled.data();
    rank_t* __restrict acc = s.acc.data();
    const rank_t* __restrict inv = s.inv_deg.data();
    const rank_t r0 = s.r0;
    for (vid_t v = r.begin; v < r.end; ++v) {
      rank[v] = r0;
      // Branchless sink handling: inv is exactly 0 for sinks.
      scaled[v] = r0 * inv[v];
      acc[v] = 0.0f;
    }
    mem.work(r.size());
  }

  struct ScatterCtx {
    const rank_t* __restrict rs;
  };
  static ScatterCtx scatter_ctx(const State& s) {
    return {s.rank_scaled.data()};
  }
  static void scatter_prefetch(const ScatterCtx& c, vid_t u) {
    prefetch_read(c.rs + u);
  }
  template <class Mem>
  static Message scatter(const ScatterCtx& c, Mem& mem, vid_t u) {
    return mem.load(c.rs + u);
  }

  struct GatherCtx {
    rank_t* __restrict acc;
  };
  static GatherCtx gather_ctx(State& s) { return {s.acc.data()}; }
  static void gather_prefetch(const GatherCtx& c, vid_t d) {
    prefetch_write(c.acc + d);
  }
  template <class Mem>
  static bool gather(const GatherCtx& c, Mem& mem, vid_t d, Message m) {
    // Random update, resident in the destination partition's cache
    // slice.
    mem.store(c.acc + d, c.acc[d] + m);
    return false;
  }

  template <class Mem>
  static void apply(State& s, Mem& mem, VertexRange r) {
    // Finish PageRank for this partition's vertices. All four arrays
    // stream; the body is branchless (sinks have inv == 0) and
    // autovectorizable.
    mem.stream_read(s.acc.data() + r.begin, r.size());
    mem.stream_read(s.inv_deg.data() + r.begin, r.size());
    mem.stream_write(s.rank.data() + r.begin, r.size());
    mem.stream_write(s.rank_scaled.data() + r.begin, r.size());
    rank_t* __restrict rank = s.rank.data();
    rank_t* __restrict scaled = s.rank_scaled.data();
    rank_t* __restrict acc = s.acc.data();
    const rank_t* __restrict inv = s.inv_deg.data();
    const rank_t base = s.base;
    const rank_t damping = s.damping;
    for (vid_t v = r.begin; v < r.end; ++v) {
      const rank_t new_rank = base + damping * acc[v];
      rank[v] = new_rank;
      scaled[v] = new_rank * inv[v];
      acc[v] = 0.0f;
    }
    mem.work(3 * r.size());
  }

  template <class Mem>
  static double apply_tracked(State& s, Mem& mem, VertexRange r) {
    mem.stream_read(s.acc.data() + r.begin, r.size());
    mem.stream_read(s.inv_deg.data() + r.begin, r.size());
    mem.stream_write(s.rank.data() + r.begin, r.size());
    mem.stream_write(s.rank_scaled.data() + r.begin, r.size());
    rank_t* __restrict rank = s.rank.data();
    rank_t* __restrict scaled = s.rank_scaled.data();
    rank_t* __restrict acc = s.acc.data();
    const rank_t* __restrict inv = s.inv_deg.data();
    const rank_t base = s.base;
    const rank_t damping = s.damping;
    double l1 = 0.0;
    for (vid_t v = r.begin; v < r.end; ++v) {
      const rank_t new_rank = base + damping * acc[v];
      l1 += std::fabs(static_cast<double>(new_rank) -
                      static_cast<double>(rank[v]));
      rank[v] = new_rank;
      scaled[v] = new_rank * inv[v];
      acc[v] = 0.0f;
    }
    mem.work(3 * r.size());
    return l1;
  }

  static void extract(const State& s, std::vector<Value>& out) {
    out.assign(s.rank.begin(), s.rank.end());
  }

  /// Pull-mode algebra for the vertex-centric engines (v-PR, Polymer):
  /// contrib is the value a vertex advertises over its out-edges, the
  /// fold is merge() starting from identity(), and apply() turns the
  /// fold result into the vertex's next value. TV is the engine's
  /// value representation (rank_t for v-PR, double for Polymer's
  /// Ligra-fidelity internals); A is the fold accumulator type.
  struct Pull {
    using Acc = double;           ///< Polymer fold/accumulator element
    using PolymerValue = double;  ///< Polymer per-vertex value type
    static constexpr bool kNeedsInv = true;
    static constexpr bool kAddCombine = true;  ///< sum (vs min) fold
    template <class TV>
    static Message contrib(TV x, TV inv, vid_t) {
      return static_cast<Message>(x * inv);
    }
    template <class A>
    static constexpr A identity() {
      return A{0};
    }
    template <class A, class M>
    static A merge(A a, M m) {
      return a + m;
    }
    template <class TV, class A>
    static TV apply(TV, A folded, TV bias, rank_t damping) {
      return bias + static_cast<TV>(damping) * static_cast<TV>(folded);
    }
    /// Fill the engine-side init values and per-vertex bias (the
    /// constant term of apply); returns the damping scalar.
    template <class TV>
    static rank_t setup(const Options& o, const graph::Graph& g,
                        std::vector<TV>& init, std::vector<TV>& bias) {
      const vid_t n = g.num_vertices();
      const auto r0 = static_cast<rank_t>(1.0 / static_cast<double>(n));
      const auto base = static_cast<rank_t>((1.0 - o.damping) /
                                            static_cast<double>(n));
      init.assign(n, static_cast<TV>(r0));
      bias.assign(n, static_cast<TV>(base));
      return o.damping;
    }
  };
};

// ---- Personalized PageRank -------------------------------------------------

/// Power iteration of r = (1-d)*restart + d*A^T(r/deg) where the
/// restart vector concentrates mass on the seed set. Shares PageRank's
/// scatter/gather; only init and apply read the per-vertex restart
/// array instead of the uniform 1/n.
struct PprKernel {
  using Message = rank_t;
  using Value = rank_t;
  using Options = PprOptions;
  static constexpr bool kUsesFrontier = false;
  static constexpr bool kHasApply = true;
  static constexpr const char* kName = "ppr";

  struct State {
    AlignedBuffer<rank_t> rank;
    AlignedBuffer<rank_t> rank_scaled;
    AlignedBuffer<rank_t> acc;
    AlignedBuffer<rank_t> inv_deg;
    AlignedBuffer<rank_t> restart;  ///< seed-restart vector, sums to 1
    rank_t damping = 0.85f;
    rank_t one_minus_d = 0.15f;
  };

  template <class Backend>
  static State make_state(const graph::Graph& g, Backend& backend) {
    const vid_t n = g.num_vertices();
    State s;
    s.rank = backend.template alloc_pages<rank_t>(n);
    s.rank_scaled = backend.template alloc_pages<rank_t>(n);
    s.acc = backend.template alloc_pages<rank_t>(n);
    s.inv_deg = graph::inverse_degrees<rank_t>(g.out);
    s.restart = backend.template alloc_pages<rank_t>(n);
    s.restart.fill_zero();
    return s;
  }

  template <class F>
  static void for_each_vertex_array(State& s, F&& f) {
    f("rank", s.rank.data(), sizeof(rank_t), true);
    f("rank_scaled", s.rank_scaled.data(), sizeof(rank_t), true);
    f("acc", s.acc.data(), sizeof(rank_t), true);
    f("inv_deg", s.inv_deg.data(), sizeof(rank_t), false);
    f("restart", s.restart.data(), sizeof(rank_t), false);
  }

  static void begin_run(State& s, const Options& o, const graph::Graph& g) {
    const vid_t n = g.num_vertices();
    s.damping = o.damping;
    s.one_minus_d = 1.0f - o.damping;
    rank_t* rst = s.restart.data();
    std::fill(rst, rst + n, 0.0f);
    if (o.seeds.empty()) {
      const auto u = static_cast<rank_t>(1.0 / static_cast<double>(n));
      std::fill(rst, rst + n, u);
      return;
    }
    const auto w = static_cast<rank_t>(
        1.0 / static_cast<double>(o.seeds.size()));
    for (vid_t v : o.seeds) {
      HIPA_CHECK(v < n, "PPR seed out of range");
      rst[v] += w;
    }
  }

  static unsigned max_iterations(const Options&, const RunOptions& ro) {
    return ro.iterations;
  }

  template <class Mem>
  static void init(State& s, Mem& mem, VertexRange r) {
    mem.stream_read(s.restart.data() + r.begin, r.size());
    mem.stream_read(s.inv_deg.data() + r.begin, r.size());
    mem.stream_write(s.rank.data() + r.begin, r.size());
    mem.stream_write(s.rank_scaled.data() + r.begin, r.size());
    mem.stream_write(s.acc.data() + r.begin, r.size());
    rank_t* __restrict rank = s.rank.data();
    rank_t* __restrict scaled = s.rank_scaled.data();
    rank_t* __restrict acc = s.acc.data();
    const rank_t* __restrict inv = s.inv_deg.data();
    const rank_t* __restrict rst = s.restart.data();
    for (vid_t v = r.begin; v < r.end; ++v) {
      rank[v] = rst[v];
      scaled[v] = rst[v] * inv[v];
      acc[v] = 0.0f;
    }
    mem.work(r.size());
  }

  using ScatterCtx = PageRankKernel::ScatterCtx;
  static ScatterCtx scatter_ctx(const State& s) {
    return {s.rank_scaled.data()};
  }
  static void scatter_prefetch(const ScatterCtx& c, vid_t u) {
    prefetch_read(c.rs + u);
  }
  template <class Mem>
  static Message scatter(const ScatterCtx& c, Mem& mem, vid_t u) {
    return mem.load(c.rs + u);
  }

  using GatherCtx = PageRankKernel::GatherCtx;
  static GatherCtx gather_ctx(State& s) { return {s.acc.data()}; }
  static void gather_prefetch(const GatherCtx& c, vid_t d) {
    prefetch_write(c.acc + d);
  }
  template <class Mem>
  static bool gather(const GatherCtx& c, Mem& mem, vid_t d, Message m) {
    mem.store(c.acc + d, c.acc[d] + m);
    return false;
  }

  template <class Mem>
  static void apply(State& s, Mem& mem, VertexRange r) {
    mem.stream_read(s.acc.data() + r.begin, r.size());
    mem.stream_read(s.inv_deg.data() + r.begin, r.size());
    mem.stream_read(s.restart.data() + r.begin, r.size());
    mem.stream_write(s.rank.data() + r.begin, r.size());
    mem.stream_write(s.rank_scaled.data() + r.begin, r.size());
    rank_t* __restrict rank = s.rank.data();
    rank_t* __restrict scaled = s.rank_scaled.data();
    rank_t* __restrict acc = s.acc.data();
    const rank_t* __restrict inv = s.inv_deg.data();
    const rank_t* __restrict rst = s.restart.data();
    const rank_t omd = s.one_minus_d;
    const rank_t damping = s.damping;
    for (vid_t v = r.begin; v < r.end; ++v) {
      const rank_t new_rank = omd * rst[v] + damping * acc[v];
      rank[v] = new_rank;
      scaled[v] = new_rank * inv[v];
      acc[v] = 0.0f;
    }
    mem.work(4 * r.size());
  }

  template <class Mem>
  static double apply_tracked(State& s, Mem& mem, VertexRange r) {
    mem.stream_read(s.acc.data() + r.begin, r.size());
    mem.stream_read(s.inv_deg.data() + r.begin, r.size());
    mem.stream_read(s.restart.data() + r.begin, r.size());
    mem.stream_write(s.rank.data() + r.begin, r.size());
    mem.stream_write(s.rank_scaled.data() + r.begin, r.size());
    rank_t* __restrict rank = s.rank.data();
    rank_t* __restrict scaled = s.rank_scaled.data();
    rank_t* __restrict acc = s.acc.data();
    const rank_t* __restrict inv = s.inv_deg.data();
    const rank_t* __restrict rst = s.restart.data();
    const rank_t omd = s.one_minus_d;
    const rank_t damping = s.damping;
    double l1 = 0.0;
    for (vid_t v = r.begin; v < r.end; ++v) {
      const rank_t new_rank = omd * rst[v] + damping * acc[v];
      l1 += std::fabs(static_cast<double>(new_rank) -
                      static_cast<double>(rank[v]));
      rank[v] = new_rank;
      scaled[v] = new_rank * inv[v];
      acc[v] = 0.0f;
    }
    mem.work(4 * r.size());
    return l1;
  }

  static void extract(const State& s, std::vector<Value>& out) {
    out.assign(s.rank.begin(), s.rank.end());
  }

  /// Pull-mode algebra: PageRank's sum/apply with the restart vector
  /// folded into the per-vertex bias ((1-d) * restart[v]).
  struct Pull {
    using Acc = double;
    using PolymerValue = double;
    static constexpr bool kNeedsInv = true;
    static constexpr bool kAddCombine = true;
    template <class TV>
    static Message contrib(TV x, TV inv, vid_t) {
      return static_cast<Message>(x * inv);
    }
    template <class A>
    static constexpr A identity() {
      return A{0};
    }
    template <class A, class M>
    static A merge(A a, M m) {
      return a + m;
    }
    template <class TV, class A>
    static TV apply(TV, A folded, TV bias, rank_t damping) {
      return bias + static_cast<TV>(damping) * static_cast<TV>(folded);
    }
    template <class TV>
    static rank_t setup(const Options& o, const graph::Graph& g,
                        std::vector<TV>& init, std::vector<TV>& bias) {
      const vid_t n = g.num_vertices();
      const rank_t omd = 1.0f - o.damping;
      std::vector<rank_t> rst(n, 0.0f);
      if (o.seeds.empty()) {
        const auto u = static_cast<rank_t>(1.0 / static_cast<double>(n));
        std::fill(rst.begin(), rst.end(), u);
      } else {
        const auto w = static_cast<rank_t>(
            1.0 / static_cast<double>(o.seeds.size()));
        for (vid_t v : o.seeds) {
          HIPA_CHECK(v < n, "PPR seed out of range");
          rst[v] += w;
        }
      }
      init.resize(n);
      bias.resize(n);
      for (vid_t v = 0; v < n; ++v) {
        init[v] = static_cast<TV>(rst[v]);
        bias[v] = static_cast<TV>(omd * rst[v]);
      }
      return o.damping;
    }
  };
};

// ---- BFS -------------------------------------------------------------------

/// Level-synchronous BFS: message = dist(u) + 1, gather = monotone
/// min. The frontier makes it work-efficient: only partitions whose
/// vertices changed last round scatter, and quiescence stops the run.
struct BfsKernel {
  using Message = std::uint32_t;
  using Value = std::uint32_t;
  using Options = BfsOptions;
  static constexpr bool kUsesFrontier = true;
  static constexpr bool kHasApply = false;
  static constexpr const char* kName = "bfs";
  static constexpr std::uint32_t kUnreached = 0xffffffffu;

  struct State {
    AlignedBuffer<std::uint32_t> dist;
    vid_t source = 0;
  };

  template <class Backend>
  static State make_state(const graph::Graph& g, Backend& backend) {
    State s;
    s.dist = backend.template alloc_pages<std::uint32_t>(g.num_vertices());
    return s;
  }

  template <class F>
  static void for_each_vertex_array(State& s, F&& f) {
    f("dist", s.dist.data(), sizeof(std::uint32_t), true);
  }

  static void begin_run(State& s, const Options& o, const graph::Graph& g) {
    HIPA_CHECK(o.source < g.num_vertices(), "BFS source out of range");
    s.source = o.source;
  }

  static unsigned max_iterations(const Options& o, const RunOptions&) {
    return o.max_rounds;
  }

  template <class Mem>
  static void init(State& s, Mem& mem, VertexRange r) {
    mem.stream_write(s.dist.data() + r.begin, r.size());
    std::uint32_t* __restrict dist = s.dist.data();
    for (vid_t v = r.begin; v < r.end; ++v) dist[v] = kUnreached;
    if (s.source >= r.begin && s.source < r.end) dist[s.source] = 0;
    mem.work(r.size());
  }

  static bool initially_active(const State& s, VertexRange r) {
    return s.source >= r.begin && s.source < r.end;
  }

  struct ScatterCtx {
    const std::uint32_t* __restrict dist;
  };
  static ScatterCtx scatter_ctx(const State& s) { return {s.dist.data()}; }
  static void scatter_prefetch(const ScatterCtx& c, vid_t u) {
    prefetch_read(c.dist + u);
  }
  template <class Mem>
  static Message scatter(const ScatterCtx& c, Mem& mem, vid_t u) {
    // Saturating +1: unreached sources advertise kUnreached, which can
    // never win a min against any real distance.
    const std::uint32_t du = mem.load(c.dist + u);
    return du == kUnreached ? kUnreached : du + 1;
  }

  struct GatherCtx {
    std::uint32_t* __restrict dist;
  };
  static GatherCtx gather_ctx(State& s) { return {s.dist.data()}; }
  static void gather_prefetch(const GatherCtx& c, vid_t d) {
    prefetch_write(c.dist + d);
  }
  template <class Mem>
  static bool gather(const GatherCtx& c, Mem& mem, vid_t d, Message m) {
    if (m < c.dist[d]) {
      mem.store(c.dist + d, m);
      return true;
    }
    return false;
  }

  static void extract(const State& s, std::vector<Value>& out) {
    out.assign(s.dist.begin(), s.dist.end());
  }

  /// Pull-mode algebra: v pulls min(dist[u] + 1) over in-neighbors u.
  struct Pull {
    using Acc = Message;
    using PolymerValue = Value;
    static constexpr bool kNeedsInv = false;
    static constexpr bool kAddCombine = false;
    template <class TV>
    static Message contrib(TV x, TV, vid_t) {
      return x == kUnreached ? kUnreached : x + 1;
    }
    template <class A>
    static constexpr A identity() {
      return kUnreached;
    }
    template <class A, class M>
    static A merge(A a, M m) {
      return m < a ? static_cast<A>(m) : a;
    }
    template <class TV, class A>
    static TV apply(TV old, A folded, TV, rank_t) {
      const auto f = static_cast<TV>(folded);
      return f < old ? f : old;
    }
    template <class TV>
    static rank_t setup(const Options& o, const graph::Graph& g,
                        std::vector<TV>& init, std::vector<TV>& bias) {
      HIPA_CHECK(o.source < g.num_vertices(), "BFS source out of range");
      init.assign(g.num_vertices(), kUnreached);
      init[o.source] = 0;
      bias.clear();
      return 0.0f;
    }
  };
};

// ---- WCC -------------------------------------------------------------------

/// Weakly-connected components by min-label propagation (labels
/// converge to the smallest vertex id of each component). The graph
/// must be symmetric (every edge in both directions) for the result to
/// be *weak* connectivity — algo::wcc symmetrizes before building the
/// engine. Every partition starts active; a partition goes quiet once
/// none of its labels changed in a round.
struct WccKernel {
  using Message = vid_t;
  using Value = vid_t;
  using Options = WccOptions;
  static constexpr bool kUsesFrontier = true;
  static constexpr bool kHasApply = false;
  static constexpr const char* kName = "wcc";

  struct State {
    AlignedBuffer<vid_t> label;
  };

  template <class Backend>
  static State make_state(const graph::Graph& g, Backend& backend) {
    State s;
    s.label = backend.template alloc_pages<vid_t>(g.num_vertices());
    return s;
  }

  template <class F>
  static void for_each_vertex_array(State& s, F&& f) {
    f("label", s.label.data(), sizeof(vid_t), true);
  }

  static void begin_run(State&, const Options&, const graph::Graph&) {}

  static unsigned max_iterations(const Options& o, const RunOptions&) {
    return o.max_rounds;
  }

  template <class Mem>
  static void init(State& s, Mem& mem, VertexRange r) {
    mem.stream_write(s.label.data() + r.begin, r.size());
    vid_t* __restrict label = s.label.data();
    for (vid_t v = r.begin; v < r.end; ++v) label[v] = v;
    mem.work(r.size());
  }

  static bool initially_active(const State&, VertexRange) { return true; }

  struct ScatterCtx {
    const vid_t* __restrict label;
  };
  static ScatterCtx scatter_ctx(const State& s) { return {s.label.data()}; }
  static void scatter_prefetch(const ScatterCtx& c, vid_t u) {
    prefetch_read(c.label + u);
  }
  template <class Mem>
  static Message scatter(const ScatterCtx& c, Mem& mem, vid_t u) {
    return mem.load(c.label + u);
  }

  struct GatherCtx {
    vid_t* __restrict label;
  };
  static GatherCtx gather_ctx(State& s) { return {s.label.data()}; }
  static void gather_prefetch(const GatherCtx& c, vid_t d) {
    prefetch_write(c.label + d);
  }
  template <class Mem>
  static bool gather(const GatherCtx& c, Mem& mem, vid_t d, Message m) {
    if (m < c.label[d]) {
      mem.store(c.label + d, m);
      return true;
    }
    return false;
  }

  static void extract(const State& s, std::vector<Value>& out) {
    out.assign(s.label.begin(), s.label.end());
  }

  /// Pull-mode algebra: v pulls the min label of its in-neighbors
  /// (equal to its out-neighbors on the symmetrized WCC input).
  struct Pull {
    using Acc = Message;
    using PolymerValue = Value;
    static constexpr bool kNeedsInv = false;
    static constexpr bool kAddCombine = false;
    template <class TV>
    static Message contrib(TV x, TV, vid_t) {
      return x;
    }
    template <class A>
    static constexpr A identity() {
      return std::numeric_limits<A>::max();
    }
    template <class A, class M>
    static A merge(A a, M m) {
      return m < a ? static_cast<A>(m) : a;
    }
    template <class TV, class A>
    static TV apply(TV old, A folded, TV, rank_t) {
      const auto f = static_cast<TV>(folded);
      return f < old ? f : old;
    }
    template <class TV>
    static rank_t setup(const Options&, const graph::Graph& g,
                        std::vector<TV>& init, std::vector<TV>& bias) {
      init.resize(g.num_vertices());
      for (vid_t v = 0; v < g.num_vertices(); ++v) init[v] = v;
      bias.clear();
      return 0.0f;
    }
  };
};

// ---- SSSP ------------------------------------------------------------------

/// Bellman-Ford-style SSSP with monotone min-gather over float
/// distances. The PCPM bin format fans ONE message per (source vertex,
/// destination partition) across that partition's destinations, so
/// edge weights must be source-determined: w(u) is a fixed function of
/// the source vertex id, applied at scatter (message = dist(u) +
/// w(u)). Min-gather is order-independent, so distances are
/// deterministic across thread counts and encodings.
struct SsspKernel {
  using Message = float;
  using Value = float;
  using Options = SsspOptions;
  static constexpr bool kUsesFrontier = true;
  static constexpr bool kHasApply = false;
  static constexpr const char* kName = "sssp";
  /// Large finite sentinel (not IEEE inf, so the saturating
  /// `dist + w` stays well-defined under any FP mode). Any message
  /// derived from an unreached source compares >= every real distance.
  static constexpr float kUnreached =
      std::numeric_limits<float>::max() * 0.25f;

  /// Deterministic source-determined edge weight in [1, 2.75].
  static float weight(vid_t u) {
    return 1.0f + static_cast<float>(u & 7u) * 0.25f;
  }

  struct State {
    AlignedBuffer<float> dist;
    vid_t source = 0;
  };

  template <class Backend>
  static State make_state(const graph::Graph& g, Backend& backend) {
    State s;
    s.dist = backend.template alloc_pages<float>(g.num_vertices());
    return s;
  }

  template <class F>
  static void for_each_vertex_array(State& s, F&& f) {
    f("dist", s.dist.data(), sizeof(float), true);
  }

  static void begin_run(State& s, const Options& o, const graph::Graph& g) {
    HIPA_CHECK(o.source < g.num_vertices(), "SSSP source out of range");
    s.source = o.source;
  }

  static unsigned max_iterations(const Options& o, const RunOptions&) {
    return o.max_rounds;
  }

  template <class Mem>
  static void init(State& s, Mem& mem, VertexRange r) {
    mem.stream_write(s.dist.data() + r.begin, r.size());
    float* __restrict dist = s.dist.data();
    for (vid_t v = r.begin; v < r.end; ++v) dist[v] = kUnreached;
    if (s.source >= r.begin && s.source < r.end) dist[s.source] = 0.0f;
    mem.work(r.size());
  }

  static bool initially_active(const State& s, VertexRange r) {
    return s.source >= r.begin && s.source < r.end;
  }

  struct ScatterCtx {
    const float* __restrict dist;
  };
  static ScatterCtx scatter_ctx(const State& s) { return {s.dist.data()}; }
  static void scatter_prefetch(const ScatterCtx& c, vid_t u) {
    prefetch_read(c.dist + u);
  }
  template <class Mem>
  static Message scatter(const ScatterCtx& c, Mem& mem, vid_t u) {
    // An unreached source yields kUnreached + w, which still loses
    // every min against a real distance (and ties kUnreached itself,
    // since the addition is absorbed at this magnitude).
    return mem.load(c.dist + u) + weight(u);
  }

  struct GatherCtx {
    float* __restrict dist;
  };
  static GatherCtx gather_ctx(State& s) { return {s.dist.data()}; }
  static void gather_prefetch(const GatherCtx& c, vid_t d) {
    prefetch_write(c.dist + d);
  }
  template <class Mem>
  static bool gather(const GatherCtx& c, Mem& mem, vid_t d, Message m) {
    if (m < c.dist[d]) {
      mem.store(c.dist + d, m);
      return true;
    }
    return false;
  }

  static void extract(const State& s, std::vector<Value>& out) {
    out.assign(s.dist.begin(), s.dist.end());
  }

  /// Pull-mode algebra: v pulls min(dist[u] + w(u)) over in-neighbors.
  struct Pull {
    using Acc = Message;
    using PolymerValue = Value;
    static constexpr bool kNeedsInv = false;
    static constexpr bool kAddCombine = false;
    template <class TV>
    static Message contrib(TV x, TV, vid_t u) {
      return x + weight(u);
    }
    template <class A>
    static constexpr A identity() {
      return kUnreached;
    }
    template <class A, class M>
    static A merge(A a, M m) {
      return m < a ? static_cast<A>(m) : a;
    }
    template <class TV, class A>
    static TV apply(TV old, A folded, TV, rank_t) {
      const auto f = static_cast<TV>(folded);
      return f < old ? f : old;
    }
    template <class TV>
    static rank_t setup(const Options& o, const graph::Graph& g,
                        std::vector<TV>& init, std::vector<TV>& bias) {
      HIPA_CHECK(o.source < g.num_vertices(), "SSSP source out of range");
      init.assign(g.num_vertices(), kUnreached);
      init[o.source] = 0.0f;
      bias.clear();
      return 0.0f;
    }
  };
};

}  // namespace hipa::engine
