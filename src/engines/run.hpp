// Kernel-generic facade: one run<Kernel>() entry point over the five
// engine methodologies (HiPa, p-PR, GPOP partition-centric; v-PR,
// Polymer vertex-centric). Every engine exposes the same templated
// `run<K>(kernel_options, run_options)` surface; this header adds the
// one-shot form that also constructs the engine:
//
//   engine::NativeBackend backend;
//   auto r = engine::run<engine::BfsKernel>(g, backend, {.source = 7});
//   // r.values[v] == hop distance, r.report == the usual RunReport
//
// Engine selection, thread count and partition size ride in
// EngineParams. Callers that reuse one engine across runs (or across
// kernels — per-kernel state is cached inside the engine) should
// construct the engine directly; this facade rebuilds the plan and
// bins on every call. Paper-default parameter fill lives one level
// up, in algo::run_kernel_{sim,native}.
#pragma once

#include "engines/backend.hpp"
#include "engines/kernels.hpp"
#include "engines/pcpm_engine.hpp"
#include "engines/polymer_engine.hpp"
#include "engines/vpr_engine.hpp"
#include "graph/csr.hpp"

namespace hipa::engine {

/// The five methodologies evaluated in the paper (algo::Method is an
/// alias of this — one enum, shared by the facade and the runners).
enum class EngineKind { kHipa, kPpr, kVpr, kGpop, kPolymer };

/// Engine/topology selection for run<K>. Defaults are a small
/// single-node HiPa configuration suitable for examples and tests;
/// benches and the algo runners fill paper defaults instead.
struct EngineParams {
  EngineKind engine = EngineKind::kHipa;
  unsigned threads = 4;
  unsigned num_nodes = 1;
  /// Partition byte budget (partition-centric engines only).
  std::uint64_t partition_bytes = 256 * 1024;
};

/// Construct the selected engine and run one kernel on it.
template <class K, class Backend>
[[nodiscard]] KernelResult<K> run(const graph::Graph& g, Backend& backend,
                                  const typename K::Options& ko = {},
                                  const RunOptions& ro = {},
                                  const EngineParams& ep = {}) {
  switch (ep.engine) {
    case EngineKind::kHipa: {
      const auto opt =
          PcpmOptions::hipa(ep.threads, ep.num_nodes, ep.partition_bytes);
      PcpmEngine<Backend> eng(g, opt, backend);
      return eng.template run<K>(ko, ro);
    }
    case EngineKind::kPpr: {
      const auto opt =
          PcpmOptions::ppr(ep.threads, ep.num_nodes, ep.partition_bytes);
      PcpmEngine<Backend> eng(g, opt, backend);
      return eng.template run<K>(ko, ro);
    }
    case EngineKind::kGpop: {
      const auto opt =
          PcpmOptions::gpop(ep.threads, ep.num_nodes, ep.partition_bytes);
      PcpmEngine<Backend> eng(g, opt, backend);
      return eng.template run<K>(ko, ro);
    }
    case EngineKind::kVpr: {
      VprOptions opt;
      opt.num_threads = ep.threads;
      VprEngine<Backend> eng(g, opt, backend);
      return eng.template run<K>(ko, ro);
    }
    case EngineKind::kPolymer: {
      PolymerOptions opt;
      opt.num_threads = ep.threads;
      opt.num_nodes = ep.num_nodes;
      PolymerEngine<Backend> eng(g, opt, backend);
      return eng.template run<K>(ko, ro);
    }
  }
  HIPA_CHECK(false, "unknown engine kind");
  __builtin_unreachable();
}

/// Native-backend convenience: construct a NativeBackend internally.
template <class K>
[[nodiscard]] KernelResult<K> run(const graph::Graph& g,
                                  const typename K::Options& ko = {},
                                  const RunOptions& ro = {},
                                  const EngineParams& ep = {}) {
  NativeBackend backend;
  return run<K>(g, backend, ko, ro, ep);
}

}  // namespace hipa::engine
