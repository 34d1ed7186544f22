// The bench gate: one rule table over the bench JSON artifacts
// (hotpath, serve, dist, table3_microarch) and one walker that
// evaluates it with common/minijson. Rows tagged with the document's
// "bench" tag run on it; a `use` row runs a named sub-table on each
// node it matches. Each row names fields with an RFC 6901 pointer
// pattern whose tokens may also be `*` (every array element, printed as
// its index), `a|b` (each listed key) or `key[field]` (elements of the
// array `key` matched between baseline and current by `field`, printed
// as `key[field=value]`). Rows check the current document alone, except
// `drift` rows: they walk the baseline, and each field it has must exist
// in the current document (hard) and stay within a relative band. The
// simulator's counters, bins footprints and work counters are
// deterministic and banded hard; host wall clock has no band (it moves
// with the host, and perfbench's alternating pairs judge it). A serve
// or dist document is compared against the `serve`/`dist` object
// embedded in the hotpath baseline. Findings carry the pointer of the
// offending field; advisory findings warn and never fail the gate.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/minijson.hpp"

namespace hipa::gate {

using json::Value;

enum class Check : std::uint8_t {
  kUse,       ///< run sub-table `arg` with each match as its root
  kType,      ///< JSON type is `type`
  kRange,     ///< number within [lo, hi]
  kTrue,      ///< bool that is true
  kLength,    ///< array of exactly `lo` entries
  kNonEmpty,  ///< array with at least one entry
  kOneOf,     ///< string among the '|'-separated names in `arg`
  kLe,        ///< object where the '+'-sum of the keys left of "<=" in
              ///< `arg` is at most the key right of it, plus `lo`
  kDrift,     ///< |cur - base| / max(|base|, hi) <= lo, vs the baseline
};

struct Rule {
  const char* tag;
  const char* path;
  Check check;
  double lo = 0.0;
  double hi = 0.0;
  const char* arg = "";
  Value::Type type = Value::Type::kNull;
  /// Precondition: a sibling key of the checked field ("!key" negates;
  /// "/key" names a top-level key and gates the whole row). The row
  /// applies only where it is present and true (bool) or nonzero.
  const char* when = "";
  bool advisory = false;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr Rule is(const char* t, const char* p, Value::Type ty) {
  return {t, p, Check::kType, 0, 0, "", ty};
}
constexpr Rule range(const char* t, const char* p, double lo,
                     double hi = kInf) {
  return {t, p, Check::kRange, lo, hi};
}
constexpr Rule nonneg(const char* t, const char* p) { return range(t, p, 0); }
constexpr Rule frac(const char* t, const char* p) { return range(t, p, 0, 1); }
constexpr Rule zero(const char* t, const char* p) { return range(t, p, 0, 0); }
constexpr Rule truth(const char* t, const char* p) {
  return {t, p, Check::kTrue};
}
constexpr Rule length(const char* t, const char* p, double n) {
  return {t, p, Check::kLength, n};
}
constexpr Rule nonempty(const char* t, const char* p) {
  return {t, p, Check::kNonEmpty};
}
constexpr Rule one_of(const char* t, const char* p, const char* names) {
  return {t, p, Check::kOneOf, 0, 0, names};
}
/// `relation` is "a+b<=c" over keys of the matched object.
constexpr Rule le(const char* t, const char* p, const char* relation,
                  double slack = 0) {
  return {t, p, Check::kLe, slack, 0, relation};
}
constexpr Rule use(const char* t, const char* p, const char* table) {
  return {t, p, Check::kUse, 0, 0, table};
}
constexpr Rule drift(const char* t, const char* p, double tolerance,
                     double floor = 1e-12) {
  return {t, p, Check::kDrift, tolerance, floor};
}
constexpr Rule when(Rule r, const char* condition) {
  r.when = condition;
  return r;
}
constexpr Rule advisory(Rule r) {
  r.advisory = true;
  return r;
}

// Document tags, and the sub-tables that `use` rows mount.
constexpr const char* kHot = "hotpath";
constexpr const char* kT3 = "table3_microarch";
constexpr const char* kServe = "serve";
constexpr const char* kDist = "dist";
constexpr const char* kTel = "telemetry";    // RunTelemetry JSON block
constexpr const char* kPlace = "placement";  // placement_audit block
constexpr const char* kLat = "latency";      // QPS + percentile block

constexpr auto kStr = Value::Type::kString;
constexpr auto kBool = Value::Type::kBool;
constexpr auto kNum = Value::Type::kNumber;

// clang-format off
constexpr Rule kRules[] = {
    // ---- shared sub-tables ----------------------------------------------
    // Four phases (init, scatter, gather, io_wait) with per-phase hardware
    // counter aggregates; the `hw` block is always present and, when
    // available, self-consistent.
    is(kTel, "/enabled", kBool),
    nonneg(kTel, "/threads|iterations_recorded|total_wall_seconds|"
                 "total_barrier_seconds|total_messages_produced|"
                 "total_messages_consumed"),
    length(kTel, "/phases", 4),
    is(kTel, "/phases/*/phase", kStr),
    nonneg(kTel, "/phases/*/invocations|barrier_crossings|"
                 "participating_threads|wall_sum_seconds|wall_max_seconds|"
                 "wall_min_seconds|imbalance|barrier_sum_seconds|"
                 "barrier_max_seconds|messages_produced|messages_consumed|"
                 "bytes_produced|bytes_consumed|region_seconds|"
                 "sim_local_accesses|sim_remote_accesses|hw_cycles|"
                 "hw_instructions|hw_llc_loads|hw_llc_load_misses|"
                 "hw_node_loads|hw_node_load_misses|hw_multiplex_ratio"),
    is(kTel, "/hw/available", kBool),
    nonneg(kTel, "/hw/threads|event_mask"),
    is(kTel, "/hw/errno", kNum),
    is(kTel, "/hw/events/*", kStr),
    when(range(kTel, "/hw/threads|event_mask", 1), "available"),
    when(nonempty(kTel, "/hw/events"), "available"),

    is(kPlace, "/available|page_granular", kBool),
    is(kPlace, "/source", kStr),
    frac(kPlace, "/min_fraction"),
    when(one_of(kPlace, "/source", "move_pages|numa_maps"), "available"),
    when(nonempty(kPlace, "/buffers"), "available"),
    is(kPlace, "/buffers/*/name", kStr),
    nonneg(kPlace, "/buffers/*/intended_node|pages_total|pages_on_node|"
                   "pages_elsewhere|pages_unmapped"),
    frac(kPlace, "/buffers/*/fraction_on_node"),
    le(kPlace, "/buffers/*",
       "pages_on_node+pages_elsewhere+pages_unmapped<=pages_total", 0.5),

    nonneg(kLat, "/clients|seconds|requests|qps|p50_us|p95_us|p99_us"),
    le(kLat, "", "p50_us<=p95_us", 1e-9),
    le(kLat, "", "p95_us<=p99_us", 1e-9),

    // ---- hotpath --------------------------------------------------------
    nonneg(kHot, "/iterations"),
    nonneg(kHot, "/host/cpus|numa_nodes"),
    nonneg(kHot, "/dispatch_overhead/threads|phase_ns_per_iter|"
                 "run_loop_ns_per_iter"),
    // The paper's ordering: one run loop is cheaper than per-phase
    // dispatch; a tree barrier is no slower than a flat one.
    advisory(le(kHot, "/dispatch_overhead",
                "run_loop_ns_per_iter<=phase_ns_per_iter")),
    range(kHot, "/barrier/crossings", 1),
    nonempty(kHot, "/barrier/points"),
    nonneg(kHot, "/barrier/points/*/threads|tree_groups|"
                 "flat_ns_per_crossing|tree_ns_per_crossing"),
    // A one-leaf tree is a flat barrier with extra steps: 0 or >= 2.
    when(range(kHot, "/barrier/points/*/tree_groups", 2), "tree_groups"),
    le(kHot, "/barrier/points/*", "tree_groups<=threads"),
    nonneg(kHot, "/barrier/max_threads|flat_ns_per_crossing_max_threads|"
                 "tree_ns_per_crossing_max_threads"),
    is(kHot, "/barrier/tree_not_slower_at_max_threads", kBool),
    advisory(le(kHot, "/barrier",
                "tree_ns_per_crossing_max_threads<="
                "flat_ns_per_crossing_max_threads")),
    nonempty(kHot, "/datasets"),
    is(kHot, "/datasets/*/name", kStr),
    nonneg(kHot, "/datasets/*/vertices|edges"),
    is(kHot, "/datasets/*/methods/*/method", kStr),
    nonneg(kHot, "/datasets/*/methods/*/bins_footprint_bytes|"
                 "dst_bytes_per_edge|native_seconds|native_edges_per_sec|"
                 "sim_bytes_per_edge|sim_cycles"),
    is(kHot, "/telemetry_runs/dataset", kStr),
    nonempty(kHot, "/telemetry_runs/methods"),
    is(kHot, "/telemetry_runs/methods/*/method|trace_path", kStr),
    nonneg(kHot, "/telemetry_runs/methods/*/native_seconds"),
    use(kHot, "/telemetry_runs/methods/*/telemetry", kTel),
    truth(kHot, "/telemetry_runs/methods/*/telemetry/enabled"),
    use(kHot, "/telemetry_runs/methods/*/placement_audit", kPlace),
    nonneg(kHot, "/telemetry_overhead/reps|off_seconds|on_seconds|"
                 "ranks_l1_off_vs_on"),
    truth(kHot, "/telemetry_overhead/ranks_bitwise_identical"),
    // Kernels: run<PageRankKernel> is the facade's core, so cycles and
    // ranks agree exactly; non-frontier kernels never skip a partition.
    is(kHot, "/kernels/dataset", kStr),
    nonneg(kHot, "/kernels/iterations|threads|full_round_messages|"
                 "pagerank_sim_cycles_facade|pagerank_sim_cycles_kernel"),
    nonempty(kHot, "/kernels/entries"),
    is(kHot, "/kernels/entries/*/kernel", kStr),
    is(kHot, "/kernels/entries/*/frontier", kBool),
    range(kHot, "/kernels/entries/*/iterations", 1),
    nonneg(kHot, "/kernels/entries/*/native_seconds|ns_per_edge|"
                 "messages_per_edge"),
    frac(kHot, "/kernels/entries/*/active_skip_ratio"),
    when(zero(kHot, "/kernels/entries/*/active_skip_ratio"), "!frontier"),
    zero(kHot, "/kernels/pagerank_abstraction_drift|"
               "pagerank_ranks_l1_vs_facade"),
    truth(kHot, "/kernels/pagerank_bitwise_identical_to_facade"),
    // Out-of-core: >= 2 segments, within budget, bitwise equal to in-core.
    is(kHot, "/oocore/dataset", kStr),
    nonneg(kHot, "/oocore/iterations|threads|target_segment_bytes|"
                 "budget_bytes|peak_resident_bytes|incore_seconds|"
                 "streaming_seconds|io_wait_seconds|fetch_seconds|"
                 "read_seconds|verify_seconds"),
    range(kHot, "/oocore/segments", 2),
    le(kHot, "/oocore", "peak_resident_bytes<=budget_bytes"),
    truth(kHot, "/oocore/budget_ok|ranks_bitwise_identical"),
    frac(kHot, "/oocore/prefetch_overlap_ratio"),
    range(kHot, "/oocore/bytes_fetched", 1),

    // hotpath vs baseline: graph shape, bins footprints, sim cycles and
    // work counters are deterministic (hard).
    drift(kHot, "/datasets[name]/vertices|edges", 0.0),
    drift(kHot, "/datasets[name]/methods[method]/bins_footprint_bytes|"
                "dst_bytes_per_edge", 0.10),
    drift(kHot, "/datasets[name]/methods[method]/sim_bytes_per_edge", 0.15,
          0.01),
    drift(kHot, "/datasets[name]/methods[method]/sim_cycles", 0.15),
    when(drift(kHot, "/kernels/full_round_messages", 0.0), "/kernels"),
    // Simulated cycles carry ~1e-5 heap-address set-conflict noise.
    when(drift(kHot, "/kernels/pagerank_sim_cycles_facade|"
                     "pagerank_sim_cycles_kernel", 0.02), "/kernels"),
    when(drift(kHot, "/kernels/entries[kernel]/iterations", 0.0),
         "/kernels"),
    when(drift(kHot, "/kernels/entries[kernel]/messages_per_edge", 0.02,
               0.001), "/kernels"),
    when(drift(kHot, "/kernels/entries[kernel]/active_skip_ratio", 0.02,
               0.01), "/kernels"),
    when(drift(kHot, "/oocore/segments|iterations|target_segment_bytes|"
                     "budget_bytes|peak_resident_bytes|bytes_fetched", 0.0),
         "/oocore"),

    // ---- table3_microarch -----------------------------------------------
    nonneg(kT3, "/iterations"),
    nonneg(kT3, "/host/cpus|numa_nodes"),
    nonempty(kT3, "/datasets"),
    nonempty(kT3, "/arches"),
    is(kT3, "/arches/*/arch", kStr),
    nonneg(kT3, "/arches/*/l2_kb|norm_kb"),
    is(kT3, "/arches/*/inclusive_llc", kBool),
    is(kT3, "/arches/*/methods/*/method", kStr),
    nonempty(kT3, "/arches/*/methods/*/normalized"),
    nonneg(kT3, "/arches/*/methods/*/normalized/*/kb|value"),
    is(kT3, "/native_hw/dataset", kStr),
    nonneg(kT3, "/native_hw/iterations"),
    nonempty(kT3, "/native_hw/methods"),
    is(kT3, "/native_hw/methods/*/method", kStr),
    nonempty(kT3, "/native_hw/methods/*/sizes"),
    nonneg(kT3, "/native_hw/methods/*/sizes/*/kb|partition_bytes|"
                "native_seconds|normalized|llc_miss_pct"),
    use(kT3, "/native_hw/methods/*/sizes/*/telemetry", kTel),
    use(kT3, "/native_hw/methods/*/sizes/*/placement_audit", kPlace),

    // ---- serve ----------------------------------------------------------
    nonneg(kServe, "/host/cpus|numa_nodes"),
    is(kServe, "/host/topology_source", kStr),
    is(kServe, "/host/numa_binding_available", kBool),
    is(kServe, "/dataset/name", kStr),
    nonneg(kServe, "/dataset/scale|vertices|edges"),
    nonneg(kServe, "/store/vertices"),
    range(kServe, "/store/num_nodes", 1),
    range(kServe, "/store/slots", 2),
    length(kServe, "/mixes", 4),  // point, batch, topk, mixed
    is(kServe, "/mixes/*/mix", kStr),
    use(kServe, "/mixes/*", kLat),
    range(kServe, "/mixes/*/requests", 1),
    use(kServe, "/concurrent_refresh", kLat),
    // Readers never see a mixed or regressing epoch while republishing.
    range(kServe, "/concurrent_refresh/epochs_published", 1),
    nonneg(kServe, "/concurrent_refresh/full_refreshes|delta_refreshes|"
                   "reclaim_waits"),
    zero(kServe, "/concurrent_refresh/torn_reads"),
    length(kServe, "/metrics/scrape_cost", 3),  // 1, 8, 64 histograms
    range(kServe, "/metrics/scrape_cost/*/histograms", 1),
    nonneg(kServe, "/metrics/scrape_cost/*/ns_per_scrape|bytes"),
    nonneg(kServe, "/metrics/overhead/uninstrumented_qps|instrumented_qps|"
                   "qps_ratio|ns_per_event|events_per_request"),
    frac(kServe, "/metrics/overhead/hot_path_fraction"),
    truth(kServe, "/metrics/overhead/gate_ok"),  // < 1% hot-path budget
    nonneg(kServe, "/metrics/quantile_accuracy/samples"),
    frac(kServe, "/metrics/quantile_accuracy/tolerance|max_rel_error"),
    length(kServe, "/metrics/quantile_accuracy/quantiles", 4),
    is(kServe, "/metrics/quantile_accuracy/quantiles/*/quantile", kStr),
    nonneg(kServe, "/metrics/quantile_accuracy/quantiles/*/exact_ns|"
                   "estimated_ns"),
    frac(kServe, "/metrics/quantile_accuracy/quantiles/*/rel_error"),
    truth(kServe, "/metrics/quantile_accuracy/within_tolerance"),
    truth(kServe, "/publish_identity/ranks_bitwise_identical"),
    nonneg(kServe, "/publish_identity/epoch|iterations"),

    drift(kServe, "/dataset/vertices|edges", 0.0),
    drift(kServe, "/store/slots", 0.0),
    advisory(drift(kServe, "/store/num_nodes", 0.0, 1.0)),
    drift(kServe, "/metrics/scrape_cost/*/histograms", 0.0),
    advisory(drift(kServe, "/metrics/overhead/qps_ratio", 0.25, 0.1)),

    // ---- dist -----------------------------------------------------------
    nonneg(kDist, "/host/cpus|numa_nodes"),
    is(kDist, "/host/topology_source", kStr),
    is(kDist, "/dataset/name", kStr),
    range(kDist, "/dataset/vertices|edges", 1),
    range(kDist, "/shard_defaults/iterations|topk_k", 1),
    length(kDist, "/configs", 3),
    nonneg(kDist, "/configs/*/shards|mean_us"),
    range(kDist, "/configs/0/shards", 1, 1),
    range(kDist, "/configs/1/shards", 2, 2),
    range(kDist, "/configs/2/shards", 4, 4),
    use(kDist, "/configs/*", kLat),
    range(kDist, "/configs/*/requests", 1),
    // A 4-shard fleet answers memcmp-identically to one process, and a
    // SIGKILLed shard costs zero wrong answers.
    range(kDist, "/identity/shards", 2),
    range(kDist, "/identity/queries", 1),
    nonneg(kDist, "/identity/epoch"),
    truth(kDist, "/identity/memcmp_identical"),
    nonneg(kDist, "/failover/shards|killed_shard|failover_seconds|errors|"
                  "stale_merges|timeouts"),
    range(kDist, "/failover/answered", 1),
    zero(kDist, "/failover/wrong_answers"),

    drift(kDist, "/dataset/vertices|edges", 0.0),
    drift(kDist, "/shard_defaults/topk_k", 0.0),
};
// clang-format on

constexpr std::size_t kNoRule = static_cast<std::size_t>(-1);

struct Finding {
  std::size_t rule;  ///< index into kRules, or kNoRule
  std::string pointer;
  std::string what;
  bool hard;
};

/// One field a row looked at (kept so tests can corrupt exactly it).
struct Hit {
  std::size_t rule;
  std::string pointer;  ///< where a violation would be reported
  const Value* node;    ///< checked value (object for kLe / kUse)
  const Value* parent;  ///< its enclosing object or array
  const Value* base;    ///< baseline value (kDrift only)
  bool met;             ///< precondition held
};

struct Report {
  std::vector<Finding> findings;
  std::vector<Hit> hits;

  [[nodiscard]] int count(bool hard) const {
    int n = 0;
    for (const Finding& f : findings) n += f.hard == hard ? 1 : 0;
    return n;
  }
  /// Drops exact repeats: every row under a missing object reports it.
  void add(std::size_t rule, std::string pointer, std::string what,
           bool hard) {
    for (const Finding& f : findings) {
      if (f.pointer == pointer && f.what == what) return;
    }
    findings.push_back({rule, std::move(pointer), std::move(what), hard});
  }
};

namespace detail {

constexpr const char* kGone = "present in baseline but missing in current";

inline std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Splits `s` at the first `sep`: returns the head, leaves the tail.
inline std::string_view take(std::string_view* s, char sep) {
  const std::size_t i = s->find(sep);
  const std::string_view head = s->substr(0, i);
  *s = i == std::string_view::npos ? std::string_view() : s->substr(i + 1);
  return head;
}

/// Object member, or array element for a decimal index token.
inline const Value* child(const Value* v, std::string_view key) {
  if (v == nullptr || !v->is(Value::Type::kArray)) {
    return v == nullptr ? nullptr : v->find(std::string(key));
  }
  std::size_t i = 0;
  const char* last = key.data() + key.size();
  const auto [end, ec] = std::from_chars(key.data(), last, i);
  return ec == std::errc() && end == last && i < v->array.size()
             ? v->array[i].get()
             : nullptr;
}

/// Numbers, and bools as 0/1 (preconditions name bool keys).
inline bool scalar(const Value* v, double* out) {
  if (v == nullptr) return false;
  if (v->is(Value::Type::kBool)) *out = v->boolean ? 1.0 : 0.0;
  else if (v->is(Value::Type::kNumber)) *out = v->number;
  else return false;
  return true;
}

inline std::string key_text(const Value* v) {
  if (v != nullptr && v->is(Value::Type::kString)) return v->str;
  if (v != nullptr && v->is(Value::Type::kNumber)) return fmt(v->number);
  return {};
}

class Walker {
 public:
  Walker(Report* report, std::size_t rule)
      : rep_(report), idx_(rule), r_(kRules[rule]),
        by_base_(r_.check == Check::kDrift) {}

  /// Walks `path` from (cur, base); `ptr` is the pointer of `cur`.
  void go(const Value* cur, const Value* base, const Value* parent,
          std::string_view path, const std::string& ptr) {
    if (path.empty()) return leaf(cur, base, parent, ptr);
    const std::size_t end = path.find('/', 1);
    std::string_view seg = path.substr(1, end - 1);
    path = end == std::string_view::npos ? "" : path.substr(end);
    const Value* scope = by_base_ ? base : cur;
    if (seg == "*") {
      if (!by_base_ && !cur->is(Value::Type::kArray)) {
        return fail(ptr, "is not an array");
      }
      if (scope == nullptr || !scope->is(Value::Type::kArray)) return;
      for (std::size_t i = 0; i < scope->array.size(); ++i) {
        const std::string k = std::to_string(i);
        go(child(cur, k), child(base, k), cur, path, ptr + "/" + k);
      }
      return;
    }
    std::string_view sel;
    if (const std::size_t open = seg.find('[');
        open != std::string_view::npos) {
      sel = seg.substr(open + 1, seg.size() - open - 2);
      seg = seg.substr(0, open);
    }
    while (!seg.empty()) {
      const std::string_view key = take(&seg, '|');
      const std::string kp = ptr + "/" + std::string(key);
      if (!by_base_ && !cur->is(Value::Type::kObject) &&
          !cur->is(Value::Type::kArray)) {
        return fail(ptr, "is not an object");
      }
      const Value* c = child(cur, key);
      const Value* b = child(base, key);
      if (by_base_ ? b == nullptr : c == nullptr) {
        if (!by_base_) fail(kp, "missing");
        continue;
      }
      if (sel.empty()) {
        go(c, b, cur, path, kp);
      } else if (b != nullptr && b->is(Value::Type::kArray)) {
        keyed(c, b, sel, path, kp);
      }
    }
  }

 private:
  /// Baseline array elements matched to current ones by `field`.
  void keyed(const Value* cur, const Value* base, std::string_view field,
             std::string_view path, const std::string& ptr) {
    const std::string f(field);
    for (const json::ValuePtr& be : base->array) {
      const std::string k = key_text(be->find(f));
      if (k.empty()) continue;
      const Value* ce = nullptr;
      if (cur != nullptr && cur->is(Value::Type::kArray)) {
        for (const json::ValuePtr& e : cur->array) {
          if (key_text(e->find(f)) == k) ce = e.get();
        }
      }
      const std::string ep = ptr + "[" + f + "=" + k + "]";
      if (ce == nullptr) rep_->add(idx_, ep, kGone, true);
      else go(ce, be.get(), cur, path, ep);
    }
  }

  void fail(const std::string& ptr, const std::string& what) {
    rep_->add(idx_, ptr.empty() ? std::string("/") : ptr, what, !r_.advisory);
  }

  bool expect(const Value* v, Value::Type t, const std::string& ptr) {
    if (v->is(t)) return true;
    fail(ptr, std::string("expected ") + json::type_name(t) + ", got " +
                  json::type_name(v->type));
    return false;
  }

  void leaf(const Value* v, const Value* base, const Value* parent,
            const std::string& ptr) {
    std::string_view cond = r_.when;
    const bool neg = !cond.empty() && cond[0] == '!';
    if (neg) cond.remove_prefix(1);
    bool met = true;  // "/key" conditions were settled before the walk
    if (!cond.empty() && cond[0] != '/') {
      double x = 0.0;
      met = scalar(child(parent, cond), &x) && (x != 0.0) != neg;
    }
    std::string at = ptr;
    std::string_view rel = r_.arg;
    if (r_.check == Check::kLe) {
      at.append("/").append(rel.substr(0, rel.find_first_of("+<")));
    }
    rep_->hits.push_back({idx_, at, v, parent, base, met});
    if (!met) return;
    switch (r_.check) {
      case Check::kUse:
        for (std::size_t i = 0; i < std::size(kRules); ++i) {
          if (std::string_view(kRules[i].tag) == r_.arg) {
            Walker(rep_, i).go(v, nullptr, parent, kRules[i].path, ptr);
          }
        }
        return;
      case Check::kType:
        expect(v, r_.type, ptr);
        return;
      case Check::kRange:
        if (expect(v, Value::Type::kNumber, ptr) &&
            !(v->number >= r_.lo && v->number <= r_.hi)) {
          fail(ptr, "is " + fmt(v->number) + ", must be in [" + fmt(r_.lo) +
                        ", " + fmt(r_.hi) + "]");
        }
        return;
      case Check::kTrue:
        if (expect(v, Value::Type::kBool, ptr) && !v->boolean) {
          fail(ptr, "must be true");
        }
        return;
      case Check::kLength:
        if (expect(v, Value::Type::kArray, ptr) &&
            static_cast<double>(v->array.size()) != r_.lo) {
          fail(ptr, "has " + std::to_string(v->array.size()) +
                        " entries, must have " + fmt(r_.lo));
        }
        return;
      case Check::kNonEmpty:
        if (expect(v, Value::Type::kArray, ptr) && v->array.empty()) {
          fail(ptr, "is empty");
        }
        return;
      case Check::kOneOf: {
        if (!expect(v, Value::Type::kString, ptr)) return;
        std::string_view names = r_.arg;
        while (!names.empty()) {
          if (take(&names, '|') == v->str) return;
        }
        fail(ptr, "is '" + v->str + "', must be one of " + r_.arg);
        return;
      }
      case Check::kLe: {
        std::string_view lhs = take(&rel, '<');
        rel.remove_prefix(1);  // the '=' of "<="
        double sum = 0.0;
        double x = 0.0;
        while (!lhs.empty()) {
          if (!scalar(child(v, take(&lhs, '+')), &x)) return;
          sum += x;
        }
        double rhs = 0.0;
        if (!scalar(child(v, rel), &rhs)) return;
        if (sum > rhs + r_.lo) {
          fail(at, fmt(sum) + " exceeds " + std::string(rel) + " (" +
                       fmt(rhs) + ")");
        }
        return;
      }
      case Check::kDrift: {
        double b = 0.0;
        double c = 0.0;
        if (!scalar(base, &b)) return;
        if (!scalar(v, &c)) return rep_->add(idx_, ptr, kGone, true);
        const double denom = std::fmax(std::fabs(b), r_.hi);
        const double d = denom > 0.0 ? std::fabs(c - b) / denom : 0.0;
        if (d > r_.lo) {
          fail(ptr, "drifted " + fmt(d * 100.0) + "% (baseline " + fmt(b) +
                        ", current " + fmt(c) + ", band ±" +
                        fmt(r_.lo * 100.0) + "%)");
        }
        return;
      }
    }
  }

  Report* rep_;
  std::size_t idx_;
  const Rule& r_;
  bool by_base_;
};

}  // namespace detail

/// Evaluates every row tagged with `cur`'s "bench" tag. `baseline` is
/// optional: without it the drift rows are skipped.
inline Report evaluate(const Value& cur, const Value* baseline = nullptr) {
  Report rep;
  const Value* tag = cur.find("bench");
  if (tag == nullptr || !tag->is(Value::Type::kString)) {
    rep.add(kNoRule, "/bench", "missing or not a string", true);
    return rep;
  }
  const Value* base = nullptr;
  if (baseline != nullptr) {
    const Value* bt = baseline->find("bench");
    base = bt != nullptr && bt->is(Value::Type::kString) && bt->str == tag->str
               ? baseline
               : baseline->find(tag->str);
    if (base == nullptr) {
      rep.add(kNoRule, "/bench",
              "baseline has no '" + tag->str + "' section", true);
    }
  }
  bool known = false;
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    const Rule& r = kRules[i];
    if (tag->str != r.tag) continue;
    known = true;
    if (r.check == Check::kDrift && base == nullptr) continue;
    if (r.when[0] == '/' && cur.find(r.when + 1) == nullptr) continue;
    detail::Walker(&rep, i).go(&cur, base, nullptr, r.path, "");
  }
  if (!known) {
    rep.add(kNoRule, "/bench", "unknown bench tag '" + tag->str + "'", true);
  }
  return rep;
}

}  // namespace hipa::gate
