// PageRank-Delta (paper §6's second extension target): PageRank
// computed by pushing rank *changes* instead of whole ranks, from a cold
// start — rank = 0 and every vertex's residual = (1 - d)/|V|.
//
// Each round, a vertex whose residual reaches `epsilon / |V|` settles it
// into its rank and spreads d * residual over its out-edges; vertices
// below the threshold stop propagating, and the computation converges
// when the active set drains. It does not start from an earlier result:
// the serving layer's incremental refresh (serve/updates) is a serial
// warm-started push of its own over the same residual rule.
// The engine applies the HiPa methodology: vertex ranges are split into
// cache-sized partitions grouped per thread (hierarchical plan), the
// team is persistent and node-bound, and attribute arrays are placed
// per node — demonstrating the paper's claim that the partitioning
// generalizes beyond plain PageRank.
#pragma once

#include <vector>

#include "engines/backend.hpp"
#include "graph/csr.hpp"
#include "partition/plan.hpp"

namespace hipa::algo {

struct DeltaOptions {
  unsigned max_iterations = 100;
  rank_t damping = 0.85f;
  /// Convergence knob: a vertex propagates while |delta| >= epsilon/|V|.
  double epsilon = 1e-2;
  unsigned threads = 4;
  unsigned num_nodes = 1;
  std::uint64_t partition_bytes = 256 * 1024;
};

struct DeltaResult {
  std::vector<rank_t> ranks;
  unsigned iterations = 0;       ///< iterations until the frontier drained
  std::uint64_t total_pushes = 0;  ///< edge propagations actually done
  engine::RunReport report;
};

/// Serial reference (same semantics, deterministic).
[[nodiscard]] DeltaResult pagerank_delta_reference(const graph::Graph& g,
                                                   const DeltaOptions& opt);

/// HiPa-style parallel PageRank-Delta on either backend.
template <class Backend>
[[nodiscard]] DeltaResult pagerank_delta(const graph::Graph& g,
                                         const DeltaOptions& opt,
                                         Backend& backend);

// ---- implementation ---------------------------------------------------------

template <class Backend>
DeltaResult pagerank_delta(const graph::Graph& g, const DeltaOptions& opt,
                           Backend& backend) {
  using Mem = typename Backend::Mem;
  const vid_t n = g.num_vertices();
  HIPA_CHECK(n > 0, "empty graph");

  // HiPa plan: cache-sized partitions grouped per thread, per node.
  part::PlanConfig cfg;
  cfg.partition_bytes = opt.partition_bytes;
  cfg.num_nodes = std::max(1u, std::min(opt.num_nodes, opt.threads));
  cfg.threads_per_node.assign(cfg.num_nodes, 0);
  for (unsigned t = 0; t < opt.threads; ++t) {
    ++cfg.threads_per_node[t % cfg.num_nodes];
  }
  const part::HierarchicalPlan plan =
      part::build_hierarchical_plan(g.out, cfg);

  // Attributes: rank, residual (pending delta), reciprocal out-degree
  // (0 for sinks — shared sink semantics from graph::inverse_degrees,
  // turning the per-push guarded divide into one multiply). Residual
  // updates push through atomics (cross-partition writes).
  AlignedBuffer<rank_t> rank(n);
  AlignedBuffer<rank_t> residual(n);
  AlignedBuffer<rank_t> inv_deg = graph::inverse_degrees<rank_t>(g.out);
  for (unsigned node = 0; node < plan.num_nodes; ++node) {
    const VertexRange vr = plan.node_vertex_range(node);
    backend.register_buffer(rank.data() + vr.begin,
                            vr.size() * sizeof(rank_t),
                            engine::DataPlacement::kNode, node);
    backend.register_buffer(residual.data() + vr.begin,
                            vr.size() * sizeof(rank_t),
                            engine::DataPlacement::kNode, node);
    backend.register_buffer(inv_deg.data() + vr.begin,
                            vr.size() * sizeof(rank_t),
                            engine::DataPlacement::kNode, node);
  }

  engine::ThreadTeamSpec spec;
  spec.num_threads = opt.threads;
  spec.persistent = true;
  spec.binding = engine::ThreadTeamSpec::Binding::kNodeBlocked;
  spec.threads_per_node = plan.threads_per_node;
  spec.threads_per_node.resize(
      std::max<std::size_t>(spec.threads_per_node.size(), opt.num_nodes), 0);

  const auto base =
      static_cast<rank_t>((1.0 - opt.damping) / static_cast<double>(n));
  const auto threshold =
      static_cast<rank_t>(opt.epsilon / static_cast<double>(n));

  DeltaResult result;
  std::vector<std::uint64_t> active_per_thread(opt.threads, 0);
  std::vector<std::uint64_t> pushes_per_thread(opt.threads, 0);

  const double t0 = backend.now_seconds();
  backend.start_team(spec);
  // Initialization: rank accumulates from zero; every vertex starts
  // with its teleport mass pending in the residual.
  backend.phase([&](unsigned t, Mem& mem) {
    const VertexRange r = plan.table.vertices_of_thread(t);
    mem.stream_write(rank.data() + r.begin, r.size());
    mem.stream_write(residual.data() + r.begin, r.size());
    for (vid_t v = r.begin; v < r.end; ++v) {
      rank[v] = 0.0f;
      residual[v] = base;
    }
    mem.work(r.size());
  });

  unsigned iter = 0;
  for (; iter < opt.max_iterations; ++iter) {
    std::fill(active_per_thread.begin(), active_per_thread.end(), 0);
    // Push phase: drain each active vertex's residual into its
    // out-neighbors' residuals (atomic: the target may belong to
    // another thread's partitions).
    backend.phase([&](unsigned t, Mem& mem) {
      const auto [pb, pe] = plan.table.partitions_of_thread(t);
      std::uint64_t active = 0;
      std::uint64_t pushes = 0;
      for (std::uint32_t p = pb; p < pe; ++p) {
        const VertexRange r = plan.parts.range(p);
        mem.stream_read(residual.data() + r.begin, r.size());
        for (vid_t v = r.begin; v < r.end; ++v) {
          const rank_t res = residual[v];
          if (res < threshold && res > -threshold) continue;
          ++active;
          residual[v] = 0.0f;
          mem.store(rank.data() + v, rank[v] + res);
          if (inv_deg[v] == 0.0f) continue;  // sink: nothing to push
          const rank_t push = opt.damping * res * inv_deg[v];
          const auto neigh = g.out.neighbors(v);
          mem.stream_read(neigh.data(), neigh.size());
          for (vid_t u : neigh) {
            mem.atomic_add(residual.data() + u, push);
          }
          pushes += neigh.size();
          mem.work(neigh.size() + 4);
        }
      }
      active_per_thread[t] = active;
      pushes_per_thread[t] = pushes;
    });
    std::uint64_t active_total = 0;
    for (unsigned t = 0; t < opt.threads; ++t) {
      active_total += active_per_thread[t];
      result.total_pushes += pushes_per_thread[t];
    }
    if (active_total == 0) break;
  }
  backend.end_team();

  result.iterations = iter;
  result.report.seconds = backend.now_seconds() - t0;
  result.report.iterations = iter;
  result.ranks.assign(rank.begin(), rank.end());
  return result;
}

}  // namespace hipa::algo
