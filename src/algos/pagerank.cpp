#include "algos/pagerank.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

namespace hipa::algo {

std::vector<rank_t> pagerank_reference(const graph::Graph& g,
                                       unsigned iterations, rank_t damping) {
  const vid_t n = g.num_vertices();
  HIPA_CHECK(n > 0, "empty graph");
  std::vector<rank_t> rank(n, static_cast<rank_t>(1.0 / n));
  std::vector<rank_t> contrib(n);
  const auto base = static_cast<rank_t>((1.0 - damping) / n);
  for (unsigned it = 0; it < iterations; ++it) {
    for (vid_t v = 0; v < n; ++v) {
      const vid_t d = g.out.degree(v);
      contrib[v] = d == 0 ? 0.0f : rank[v] / static_cast<rank_t>(d);
    }
    for (vid_t v = 0; v < n; ++v) {
      rank_t sum = 0.0f;
      for (vid_t u : g.in.neighbors(v)) sum += contrib[u];
      rank[v] = base + damping * sum;
    }
  }
  return rank;
}

std::vector<rank_t> ppr_reference(const graph::Graph& g, unsigned iterations,
                                  rank_t damping,
                                  std::span<const vid_t> seeds) {
  const vid_t n = g.num_vertices();
  HIPA_CHECK(n > 0, "empty graph");
  // Restart vector: uniform over seeds (uniform over all vertices when
  // the seed set is empty — matches PprKernel::Pull::setup and
  // PprKernel::begin_run).
  std::vector<rank_t> rst(n, 0.0f);
  if (seeds.empty()) {
    std::fill(rst.begin(), rst.end(),
              static_cast<rank_t>(1.0 / static_cast<double>(n)));
  } else {
    const auto w =
        static_cast<rank_t>(1.0 / static_cast<double>(seeds.size()));
    for (vid_t v : seeds) {
      HIPA_CHECK(v < n, "PPR seed out of range");
      rst[v] += w;
    }
  }
  const rank_t omd = 1.0f - damping;
  std::vector<rank_t> rank(rst);
  std::vector<rank_t> contrib(n);
  for (unsigned it = 0; it < iterations; ++it) {
    for (vid_t v = 0; v < n; ++v) {
      const vid_t d = g.out.degree(v);
      contrib[v] = d == 0 ? 0.0f : rank[v] / static_cast<rank_t>(d);
    }
    for (vid_t v = 0; v < n; ++v) {
      rank_t sum = 0.0f;
      for (vid_t u : g.in.neighbors(v)) sum += contrib[u];
      rank[v] = omd * rst[v] + damping * sum;
    }
  }
  return rank;
}

double l1_distance(std::span<const rank_t> a, std::span<const rank_t> b) {
  HIPA_CHECK(a.size() == b.size(), "rank vector size mismatch");
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return d;
}

std::vector<vid_t> top_k(std::span<const rank_t> ranks, std::size_t k) {
  std::vector<vid_t> ids(ranks.size());
  std::iota(ids.begin(), ids.end(), vid_t{0});
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(k),
                    ids.end(), [&](vid_t a, vid_t b) {
                      if (ranks[a] != ranks[b]) return ranks[a] > ranks[b];
                      return a < b;
                    });
  ids.resize(k);
  return ids;
}

std::span<const Method> all_methods() {
  static constexpr std::array<Method, 5> kAll = {
      Method::kHipa, Method::kPpr, Method::kVpr, Method::kGpop,
      Method::kPolymer};
  return kAll;
}

const char* method_name(Method m) {
  switch (m) {
    case Method::kHipa:
      return "HiPa";
    case Method::kPpr:
      return "p-PR";
    case Method::kVpr:
      return "v-PR";
    case Method::kGpop:
      return "GPOP";
    case Method::kPolymer:
      return "Polymer";
  }
  return "?";
}

std::optional<Method> method_from_name(std::string_view name) {
  for (Method m : all_methods()) {
    if (name == method_name(m)) return m;  // exact round-trip
  }
  // Command-line-friendly lowercase aliases (--methods=hipa,ppr).
  if (name == "hipa") return Method::kHipa;
  if (name == "ppr") return Method::kPpr;
  if (name == "vpr") return Method::kVpr;
  if (name == "gpop") return Method::kGpop;
  if (name == "polymer") return Method::kPolymer;
  return std::nullopt;
}

std::span<const Kernel> all_kernels() {
  static constexpr std::array<Kernel, 5> kAll = {
      Kernel::kPageRank, Kernel::kPersonalized, Kernel::kBfs, Kernel::kWcc,
      Kernel::kSssp};
  return kAll;
}

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kPageRank:
      return "pagerank";
    case Kernel::kPersonalized:
      return "ppr";
    case Kernel::kBfs:
      return "bfs";
    case Kernel::kWcc:
      return "wcc";
    case Kernel::kSssp:
      return "sssp";
  }
  return "?";
}

std::optional<Kernel> kernel_from_name(std::string_view name) {
  for (Kernel k : all_kernels()) {
    if (name == kernel_name(k)) return k;  // exact round-trip
  }
  if (name == "pr") return Kernel::kPageRank;  // CLI-friendly alias
  return std::nullopt;
}

unsigned default_threads(Method m, const sim::Topology& topo) {
  switch (m) {
    case Method::kHipa:
    case Method::kVpr:
    case Method::kPolymer:
      return topo.num_logical_cores();
    case Method::kPpr:
      // The paper finds p-PR peaks at 16 threads on 20 physical cores.
      return std::max(1u, topo.num_physical_cores() * 4 / 5);
    case Method::kGpop:
      return topo.num_physical_cores();
  }
  return 1;
}

std::uint64_t default_partition_bytes(Method m, unsigned scale_denom) {
  HIPA_CHECK(scale_denom >= 1);
  switch (m) {
    case Method::kHipa:
    case Method::kPpr:
      return std::max<std::uint64_t>(256 * 1024 / scale_denom, 256);
    case Method::kGpop:
      return std::max<std::uint64_t>(1024 * 1024 / scale_denom, 1024);
    case Method::kVpr:
    case Method::kPolymer:
      return 0;
  }
  return 0;
}

RunResult run_method_sim(Method m, const graph::Graph& g,
                         sim::SimMachine& machine,
                         const MethodParams& params) {
  engine::PrOptions ko;
  ko.damping = params.pr.damping;
  auto kr =
      run_kernel_sim<engine::PageRankKernel>(m, g, machine, ko, params);
  RunResult result;
  result.report = std::move(kr.report);
  result.ranks = std::move(kr.values);
  return result;
}

RunResult run_method_native(Method m, const graph::Graph& g,
                            const MethodParams& params) {
  engine::PrOptions ko;
  ko.damping = params.pr.damping;
  auto kr = run_kernel_native<engine::PageRankKernel>(m, g, ko, params);
  RunResult result;
  result.report = std::move(kr.report);
  result.ranks = std::move(kr.values);
  return result;
}

namespace {

/// Shared switch for the runtime-dispatched runners: pick the kernel's
/// option member off params and invoke the typed template.
template <class RunK>
engine::RunReport dispatch_kernel(const MethodParams& params, RunK&& run) {
  switch (params.kernel) {
    case Kernel::kPageRank: {
      engine::PrOptions ko;
      ko.damping = params.pr.damping;
      return run.template operator()<engine::PageRankKernel>(ko);
    }
    case Kernel::kPersonalized:
      return run.template operator()<engine::PprKernel>(params.personalized);
    case Kernel::kBfs:
      return run.template operator()<engine::BfsKernel>(params.bfs);
    case Kernel::kWcc:
      return run.template operator()<engine::WccKernel>(params.wcc);
    case Kernel::kSssp:
      return run.template operator()<engine::SsspKernel>(params.sssp);
  }
  HIPA_CHECK(false, "unknown kernel");
  __builtin_unreachable();
}

}  // namespace

engine::RunReport run_any_kernel_sim(Method m, const graph::Graph& g,
                                     sim::SimMachine& machine,
                                     const MethodParams& params) {
  return dispatch_kernel(
      params, [&]<class K>(const typename K::Options& ko) {
        return run_kernel_sim<K>(m, g, machine, ko, params).report;
      });
}

engine::RunReport run_any_kernel_native(Method m, const graph::Graph& g,
                                        const MethodParams& params) {
  return dispatch_kernel(params,
                         [&]<class K>(const typename K::Options& ko) {
                           return run_kernel_native<K>(m, g, ko, params)
                               .report;
                         });
}

}  // namespace hipa::algo
