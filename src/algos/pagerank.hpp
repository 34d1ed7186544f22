// Algorithm front door: serial reference oracles, the five paper
// methodologies and five kernels behind one runner API, and
// result-comparison helpers.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engines/backend.hpp"
#include "engines/run.hpp"
#include "graph/csr.hpp"
#include "runtime/affinity.hpp"
#include "sim/machine.hpp"

namespace hipa::algo {

/// The unified run surface (report + final ranks), re-exported so
/// facade users never need to spell the engine namespace.
using RunResult = engine::RunResult;

/// Serial textbook PageRank (paper Eq. 1), the correctness oracle for
/// every engine.
[[nodiscard]] std::vector<rank_t> pagerank_reference(const graph::Graph& g,
                                                     unsigned iterations,
                                                     rank_t damping = 0.85f);

/// Serial personalized PageRank: restart mass split uniformly over the
/// seed set (uniform over all vertices when empty — engine semantics).
[[nodiscard]] std::vector<rank_t> ppr_reference(const graph::Graph& g,
                                                unsigned iterations,
                                                rank_t damping,
                                                std::span<const vid_t> seeds);

/// Sum of |a[i] - b[i]|.
[[nodiscard]] double l1_distance(std::span<const rank_t> a,
                                 std::span<const rank_t> b);

/// Indices of the k largest ranks, descending (ties by smaller id).
[[nodiscard]] std::vector<vid_t> top_k(std::span<const rank_t> ranks,
                                       std::size_t k);

/// The five methodologies evaluated in the paper — one enum, shared
/// with the engine facade (engine::run<K> takes it via EngineParams).
using Method = engine::EngineKind;

[[nodiscard]] std::span<const Method> all_methods();
[[nodiscard]] const char* method_name(Method m);

/// Inverse of method_name (exact, case-sensitive round-trip:
/// "HiPa", "p-PR", "v-PR", "GPOP", "Polymer") plus the lowercase
/// aliases used on bench command lines ("hipa", "ppr", "vpr", "gpop",
/// "polymer"). Returns nullopt for anything else.
[[nodiscard]] std::optional<Method> method_from_name(std::string_view name);

/// The five kernels behind the run<K>() API (engines/kernels.hpp),
/// as a runtime value for CLI flags and option plumbing.
enum class Kernel { kPageRank, kPersonalized, kBfs, kWcc, kSssp };

[[nodiscard]] std::span<const Kernel> all_kernels();

/// Kernel names for bench flags and reports: "pagerank", "ppr", "bfs",
/// "wcc", "sssp" (exact round-trip through kernel_from_name).
[[nodiscard]] const char* kernel_name(Kernel k);
[[nodiscard]] std::optional<Kernel> kernel_from_name(std::string_view name);

/// Parameters common to every runner. Zeros mean "paper default for
/// this methodology on this machine".
struct MethodParams {
  unsigned threads = 0;
  std::uint64_t partition_bytes = 0;
  /// Divide default partition sizes by this (must track the machine's
  /// cache scaling; see DatasetInfo::recommended_scale).
  unsigned scale_denom = 1;
  /// The engine-level run options (iterations, damping, tolerance,
  /// telemetry, hw counters, trace path, placement audit) — ONE source
  /// of truth shared with every engine's run()/run_pagerank().
  engine::PageRankOptions pr{};
  /// Which kernel the runtime-dispatched runners execute
  /// (run_any_kernel_{sim,native}; the typed run_kernel_* templates
  /// name their kernel statically and ignore this field).
  Kernel kernel = Kernel::kPageRank;
  /// Per-kernel options for the runtime-dispatched path, one member
  /// per kernel (engine namespace owns the structs; PageRank's damping
  /// rides in `pr`).
  engine::PprOptions personalized{};
  engine::BfsOptions bfs{};
  engine::WccOptions wcc{};
  engine::SsspOptions sssp{};
};

/// Paper-default thread count of a methodology on a topology
/// (HiPa/v-PR/Polymer use all logical cores; p-PR and GPOP stay at or
/// below the physical core count — paper §4.1).
[[nodiscard]] unsigned default_threads(Method m, const sim::Topology& topo);

/// Paper-default partition size (HiPa/p-PR 256 KB, GPOP 1 MB) divided
/// by scale_denom; 0 for vertex-centric methods.
[[nodiscard]] std::uint64_t default_partition_bytes(Method m,
                                                    unsigned scale_denom);

/// Run methodology `m` on the simulated machine. Preprocessing and
/// iteration costs both land in the machine's cycle counter; the
/// returned report carries this run's stats delta. The final ranks
/// ride along in the returned RunResult. Thin wrapper over
/// run_kernel_sim<engine::PageRankKernel>.
[[nodiscard]] RunResult run_method_sim(Method m, const graph::Graph& g,
                                       sim::SimMachine& machine,
                                       const MethodParams& params = {});

/// Run methodology `m` natively (real threads, wall-clock timing).
/// Thin wrapper over run_kernel_native<engine::PageRankKernel>.
[[nodiscard]] RunResult run_method_native(Method m, const graph::Graph& g,
                                          const MethodParams& params = {});

/// Runtime-dispatched kernel runners for CLI-driven harnesses: switch
/// on params.kernel, pull that kernel's options member, and return the
/// report (values stay inside — use the typed templates below when the
/// result vector matters).
[[nodiscard]] engine::RunReport run_any_kernel_sim(
    Method m, const graph::Graph& g, sim::SimMachine& machine,
    const MethodParams& params = {});
[[nodiscard]] engine::RunReport run_any_kernel_native(
    Method m, const graph::Graph& g, const MethodParams& params = {});

/// Run kernel K through methodology `m` on the simulated machine.
template <class K>
[[nodiscard]] engine::KernelResult<K> run_kernel_sim(
    Method m, const graph::Graph& g, sim::SimMachine& machine,
    const typename K::Options& ko = {}, const MethodParams& params = {}) {
  engine::SimBackend backend(machine);
  engine::EngineParams ep;
  ep.engine = m;
  ep.threads = params.threads != 0 ? params.threads
                                   : default_threads(m, machine.topology());
  ep.partition_bytes = params.partition_bytes != 0
                           ? params.partition_bytes
                           : default_partition_bytes(m, params.scale_denom);
  ep.num_nodes = machine.topology().num_nodes;
  return engine::run<K>(g, backend, ko, params.pr, ep);
}

/// Run kernel K through methodology `m` natively.
template <class K>
[[nodiscard]] engine::KernelResult<K> run_kernel_native(
    Method m, const graph::Graph& g, const typename K::Options& ko = {},
    const MethodParams& params = {}) {
  engine::NativeBackend backend;
  engine::EngineParams ep;
  ep.engine = m;
  ep.threads =
      params.threads != 0 ? params.threads : runtime::available_cpus();
  ep.partition_bytes = params.partition_bytes;
  if (ep.partition_bytes == 0) {
    ep.partition_bytes = default_partition_bytes(m, params.scale_denom);
    if (ep.partition_bytes == 0) {
      ep.partition_bytes = 256 * 1024;  // vertex-centric: unused
    }
  }
  // Native runs on this host: treat it as one NUMA node.
  ep.num_nodes = 1;
  return engine::run<K>(g, backend, ko, params.pr, ep);
}

}  // namespace hipa::algo
