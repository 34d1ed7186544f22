// Schema validator for the machine-readable bench artifacts
// (BENCH_hotpath*.json, BENCH_table3*.json). Runs inside the
// `perf-smoke` ctest fixture chain: the bench writes the JSON, this
// binary re-parses it with the shared minimal reader
// (common/minijson.hpp) and enforces the contract CI relies on —
// required fields present, counters non-negative, the four-phase
// telemetry arrays complete (init/scatter/gather/io_wait, including
// the per-phase hardware counter aggregates and the `hw` availability
// block), the `placement_audit` object well-formed, the `oocore`
// section within budget, and the zero-overhead-off invariant (`ranks
// bitwise-identical` across telemetry modes, destination encodings,
// and in-core vs streaming execution) actually asserted by the
// producer.
//
// Violations are reported as RFC 6901 JSON pointers into the offending
// document (`/datasets/0/methods/1/auto/native_seconds`), so a CI
// failure names the exact field rather than a boolean verdict.
//
//   bench_schema_check <file.json> [more.json ...]
//
// The top-level "bench" tag selects the schema: "hotpath",
// "table3_microarch", "serve" (BENCH_serve.json: QPS/latency mixes,
// the concurrent-refresh section with its zero-torn-reads invariant,
// the metrics-plane section with its overhead and quantile-accuracy
// gates, and the publish-identity bit), or "dist" (BENCH_dist.json:
// router QPS at 1/2/4 shard processes, the merge-vs-single-process
// memcmp-identity gate, and the zero-wrong-answer failover section).
#include <cstdio>
#include <string>

#include "common/minijson.hpp"

namespace {

using hipa::json::Value;
using hipa::json::ValuePtr;

int g_errors = 0;

void err(const std::string& pointer, const std::string& what) {
  std::fprintf(stderr, "schema: %s: %s\n",
               pointer.empty() ? "/" : pointer.c_str(), what.c_str());
  ++g_errors;
}

/// pointer + "/" + token (RFC 6901; our keys never contain '/' or '~'
/// so no escaping is needed).
std::string at(const std::string& pointer, const std::string& token) {
  return pointer + "/" + token;
}
std::string at(const std::string& pointer, std::size_t index) {
  return pointer + "/" + std::to_string(index);
}

const Value* require(const Value& obj, const std::string& path,
                     const char* key, Value::Type type) {
  if (obj.type != Value::Type::kObject) {
    err(path, "is not an object");
    return nullptr;
  }
  const Value* v = obj.find(key);
  if (v == nullptr) {
    err(at(path, key), "missing");
    return nullptr;
  }
  if (v->type != type) {
    err(at(path, key), std::string("expected ") + type_name(type) +
                           ", got " + type_name(v->type));
    return nullptr;
  }
  return v;
}

/// Required numeric field that must be >= 0 (all bench counters and
/// timings are non-negative by construction).
double require_nonneg(const Value& obj, const std::string& path,
                      const char* key) {
  const Value* v = require(obj, path, key, Value::Type::kNumber);
  if (v == nullptr) return 0.0;
  if (v->number < 0.0) {
    err(at(path, key), "is negative (" + std::to_string(v->number) + ")");
  }
  return v->number;
}

/// Required numeric field constrained to [0, 1].
double require_fraction(const Value& obj, const std::string& path,
                        const char* key) {
  const double v = require_nonneg(obj, path, key);
  if (v > 1.0) {
    err(at(path, key), "exceeds 1 (" + std::to_string(v) + ")");
  }
  return v;
}

// ---- shared sub-schemas ----------------------------------------------------

void check_telemetry(const Value& t, const std::string& path) {
  require(t, path, "enabled", Value::Type::kBool);
  require_nonneg(t, path, "threads");
  const Value* phases = require(t, path, "phases", Value::Type::kArray);
  if (phases != nullptr) {
    if (phases->array.size() != 4) {
      err(at(path, "phases"),
          "must have exactly 4 entries (init, scatter, gather, io_wait)");
    }
    static const char* kNumeric[] = {
        "invocations",       "barrier_crossings",  "participating_threads",
        "wall_sum_seconds",  "wall_max_seconds",   "wall_min_seconds",
        "imbalance",         "barrier_sum_seconds", "barrier_max_seconds",
        "messages_produced", "messages_consumed",  "bytes_produced",
        "bytes_consumed",    "region_seconds",     "sim_local_accesses",
        "sim_remote_accesses",
        // Per-phase hardware counter aggregates (zero when the PMU is
        // inaccessible, but the keys must exist).
        "hw_cycles",         "hw_instructions",    "hw_llc_loads",
        "hw_llc_load_misses", "hw_node_loads",     "hw_node_load_misses",
        "hw_multiplex_ratio"};
    for (std::size_t i = 0; i < phases->array.size(); ++i) {
      const Value& ph = *phases->array[i];
      const std::string pp = at(at(path, "phases"), i);
      require(ph, pp, "phase", Value::Type::kString);
      for (const char* key : kNumeric) require_nonneg(ph, pp, key);
    }
  }
  require_nonneg(t, path, "iterations_recorded");
  require_nonneg(t, path, "total_wall_seconds");
  require_nonneg(t, path, "total_barrier_seconds");
  require_nonneg(t, path, "total_messages_produced");
  require_nonneg(t, path, "total_messages_consumed");

  // Hardware-counter availability block. `available` may legitimately
  // be false (perf_event_paranoid, containers, non-Linux) — the
  // contract is that the block is always present and self-consistent.
  const Value* hw = require(t, path, "hw", Value::Type::kObject);
  if (hw != nullptr) {
    const std::string hp = at(path, "hw");
    const Value* avail = require(*hw, hp, "available", Value::Type::kBool);
    const double threads = require_nonneg(*hw, hp, "threads");
    const double mask = require_nonneg(*hw, hp, "event_mask");
    require(*hw, hp, "errno", Value::Type::kNumber);
    const Value* events = require(*hw, hp, "events", Value::Type::kArray);
    if (events != nullptr) {
      for (std::size_t i = 0; i < events->array.size(); ++i) {
        if (!events->array[i]->is(Value::Type::kString)) {
          err(at(at(hp, "events"), i), "expected string");
        }
      }
    }
    if (avail != nullptr && avail->boolean) {
      if (threads <= 0.0) {
        err(at(hp, "threads"), "available=true but no thread groups open");
      }
      if (mask <= 0.0) {
        err(at(hp, "event_mask"), "available=true but event mask empty");
      }
      if (events != nullptr && events->array.empty()) {
        err(at(hp, "events"), "available=true but event list empty");
      }
    }
  }
}

void check_placement_audit(const Value& parent, const std::string& path) {
  const Value* pa =
      require(parent, path, "placement_audit", Value::Type::kObject);
  if (pa == nullptr) return;
  const std::string pp = at(path, "placement_audit");
  const Value* avail = require(*pa, pp, "available", Value::Type::kBool);
  const Value* source = require(*pa, pp, "source", Value::Type::kString);
  require(*pa, pp, "page_granular", Value::Type::kBool);
  require_fraction(*pa, pp, "min_fraction");
  const Value* buffers = require(*pa, pp, "buffers", Value::Type::kArray);
  if (avail != nullptr && avail->boolean) {
    if (source != nullptr && source->str != "move_pages" &&
        source->str != "numa_maps") {
      err(at(pp, "source"),
          "available=true but source is '" + source->str + "'");
    }
    if (buffers != nullptr && buffers->array.empty()) {
      err(at(pp, "buffers"), "available=true but no buffers audited");
    }
  }
  if (buffers == nullptr) return;
  for (std::size_t i = 0; i < buffers->array.size(); ++i) {
    const Value& b = *buffers->array[i];
    const std::string bp = at(at(pp, "buffers"), i);
    require(b, bp, "name", Value::Type::kString);
    require_nonneg(b, bp, "intended_node");
    const double total = require_nonneg(b, bp, "pages_total");
    const double on = require_nonneg(b, bp, "pages_on_node");
    const double elsewhere = require_nonneg(b, bp, "pages_elsewhere");
    const double unmapped = require_nonneg(b, bp, "pages_unmapped");
    require_fraction(b, bp, "fraction_on_node");
    if (on + elsewhere + unmapped > total + 0.5) {
      err(bp, "page counts exceed pages_total");
    }
  }
}

// ---- hotpath schema --------------------------------------------------------

void check_encoding_run(const Value& r, const std::string& path) {
  require(r, path, "compact", Value::Type::kBool);
  require_nonneg(r, path, "bins_footprint_bytes");
  require_nonneg(r, path, "dst_bytes_per_edge");
  require_nonneg(r, path, "native_seconds");
  require_nonneg(r, path, "native_edges_per_sec");
  require_nonneg(r, path, "sim_bytes_per_edge");
  require_nonneg(r, path, "sim_cycles");
}

void check_hotpath(const Value& root) {
  const std::string top;
  require_nonneg(root, top, "iterations");
  const Value* host = require(root, top, "host", Value::Type::kObject);
  if (host != nullptr) {
    require_nonneg(*host, at(top, "host"), "cpus");
    require_nonneg(*host, at(top, "host"), "numa_nodes");
  }

  const Value* ov =
      require(root, top, "dispatch_overhead", Value::Type::kObject);
  if (ov != nullptr) {
    const std::string p = at(top, "dispatch_overhead");
    require_nonneg(*ov, p, "threads");
    require_nonneg(*ov, p, "phase_ns_per_iter");
    require_nonneg(*ov, p, "run_loop_ns_per_iter");
  }

  // Barrier micro-section: flat vs tree ns/crossing at >= 1 team sizes
  // plus the flattened all-CPUs summary the regression bands key on.
  const Value* bar = require(root, top, "barrier", Value::Type::kObject);
  if (bar != nullptr) {
    const std::string bp = at(top, "barrier");
    const double crossings = require_nonneg(*bar, bp, "crossings");
    if (crossings < 1.0) err(at(bp, "crossings"), "must be >= 1");
    const Value* points = require(*bar, bp, "points", Value::Type::kArray);
    if (points != nullptr) {
      if (points->array.empty()) err(at(bp, "points"), "is empty");
      for (std::size_t i = 0; i < points->array.size(); ++i) {
        const Value& p = *points->array[i];
        const std::string pp = at(at(bp, "points"), i);
        const double threads = require_nonneg(p, pp, "threads");
        const double groups = require_nonneg(p, pp, "tree_groups");
        require_nonneg(p, pp, "flat_ns_per_crossing");
        require_nonneg(p, pp, "tree_ns_per_crossing");
        // A tree with one leaf would be a flat barrier with extra
        // steps; the backend either uses >= 2 groups or falls back (0).
        if (groups == 1.0) err(at(pp, "tree_groups"), "must be 0 or >= 2");
        if (groups > threads) {
          err(at(pp, "tree_groups"), "exceeds thread count");
        }
      }
    }
    require_nonneg(*bar, bp, "max_threads");
    require_nonneg(*bar, bp, "flat_ns_per_crossing_max_threads");
    require_nonneg(*bar, bp, "tree_ns_per_crossing_max_threads");
    require(*bar, bp, "tree_not_slower_at_max_threads", Value::Type::kBool);
  }

  const Value* datasets = require(root, top, "datasets", Value::Type::kArray);
  if (datasets != nullptr) {
    if (datasets->array.empty()) err(at(top, "datasets"), "is empty");
    for (std::size_t di = 0; di < datasets->array.size(); ++di) {
      const Value& d = *datasets->array[di];
      const std::string dp = at(at(top, "datasets"), di);
      require(d, dp, "name", Value::Type::kString);
      require_nonneg(d, dp, "vertices");
      require_nonneg(d, dp, "edges");
      const Value* methods = require(d, dp, "methods", Value::Type::kArray);
      if (methods == nullptr) continue;
      for (std::size_t mi = 0; mi < methods->array.size(); ++mi) {
        const Value& m = *methods->array[mi];
        const std::string mp = at(at(dp, "methods"), mi);
        require(m, mp, "method", Value::Type::kString);
        const Value* a = require(m, mp, "auto", Value::Type::kObject);
        const Value* w = require(m, mp, "wide", Value::Type::kObject);
        if (a != nullptr) check_encoding_run(*a, at(mp, "auto"));
        if (w != nullptr) check_encoding_run(*w, at(mp, "wide"));
        // Compact and wide encodings must agree bitwise.
        const Value* l1 =
            require(m, mp, "ranks_l1_vs_wide", Value::Type::kNumber);
        if (l1 != nullptr && l1->number != 0.0) {
          err(at(mp, "ranks_l1_vs_wide"),
              "must be 0 (got " + std::to_string(l1->number) + ")");
        }
      }
    }
  }

  const Value* tel = require(root, top, "telemetry_runs", Value::Type::kObject);
  if (tel != nullptr) {
    const std::string tp = at(top, "telemetry_runs");
    require(*tel, tp, "dataset", Value::Type::kString);
    const Value* methods = require(*tel, tp, "methods", Value::Type::kArray);
    if (methods != nullptr) {
      if (methods->array.empty()) err(at(tp, "methods"), "is empty");
      for (std::size_t mi = 0; mi < methods->array.size(); ++mi) {
        const Value& m = *methods->array[mi];
        const std::string mp = at(at(tp, "methods"), mi);
        require(m, mp, "method", Value::Type::kString);
        require_nonneg(m, mp, "native_seconds");
        require(m, mp, "trace_path", Value::Type::kString);
        const Value* t = require(m, mp, "telemetry", Value::Type::kObject);
        if (t != nullptr) {
          check_telemetry(*t, at(mp, "telemetry"));
          const Value* enabled = t->find("enabled");
          if (enabled != nullptr && !enabled->boolean) {
            err(at(at(mp, "telemetry"), "enabled"),
                "must be true for kOn runs");
          }
        }
        check_placement_audit(m, mp);
      }
    }
  }

  // Kernel section: per-kernel hot-path cost through run<K>() plus the
  // facade-vs-kernel abstraction-drift gate (must be exactly zero).
  const Value* ker = require(root, top, "kernels", Value::Type::kObject);
  if (ker != nullptr) {
    const std::string kp = at(top, "kernels");
    require(*ker, kp, "dataset", Value::Type::kString);
    require_nonneg(*ker, kp, "iterations");
    require_nonneg(*ker, kp, "threads");
    require_nonneg(*ker, kp, "full_round_messages");
    const Value* entries = require(*ker, kp, "entries", Value::Type::kArray);
    if (entries != nullptr) {
      if (entries->array.empty()) err(at(kp, "entries"), "is empty");
      for (std::size_t i = 0; i < entries->array.size(); ++i) {
        const Value& e = *entries->array[i];
        const std::string ep = at(at(kp, "entries"), i);
        require(e, ep, "kernel", Value::Type::kString);
        const Value* frontier =
            require(e, ep, "frontier", Value::Type::kBool);
        const double rounds = require_nonneg(e, ep, "iterations");
        if (rounds < 1.0) err(at(ep, "iterations"), "must be >= 1");
        require_nonneg(e, ep, "native_seconds");
        require_nonneg(e, ep, "ns_per_edge");
        require_nonneg(e, ep, "messages_per_edge");
        const double skip = require_fraction(e, ep, "active_skip_ratio");
        // Non-frontier kernels scatter every partition every round: a
        // nonzero skip ratio there means the accounting broke.
        if (frontier != nullptr && !frontier->boolean && skip != 0.0) {
          err(at(ep, "active_skip_ratio"),
              "must be 0 for non-frontier kernels (got " +
                  std::to_string(skip) + ")");
        }
      }
    }
    require_nonneg(*ker, kp, "pagerank_sim_cycles_facade");
    require_nonneg(*ker, kp, "pagerank_sim_cycles_kernel");
    const Value* drift =
        require(*ker, kp, "pagerank_abstraction_drift", Value::Type::kNumber);
    if (drift != nullptr && drift->number != 0.0) {
      err(at(kp, "pagerank_abstraction_drift"),
          "must be 0 (got " + std::to_string(drift->number) + ")");
    }
    const Value* l1 = require(*ker, kp, "pagerank_ranks_l1_vs_facade",
                              Value::Type::kNumber);
    if (l1 != nullptr && l1->number != 0.0) {
      err(at(kp, "pagerank_ranks_l1_vs_facade"),
          "must be 0 (got " + std::to_string(l1->number) + ")");
    }
    const Value* ident = require(*ker, kp,
                                 "pagerank_bitwise_identical_to_facade",
                                 Value::Type::kBool);
    if (ident != nullptr && !ident->boolean) {
      err(at(kp, "pagerank_bitwise_identical_to_facade"),
          "must be true — run<PageRankKernel> drifted from the facade");
    }
  }

  const Value* toh =
      require(root, top, "telemetry_overhead", Value::Type::kObject);
  if (toh != nullptr) {
    const std::string p = at(top, "telemetry_overhead");
    require_nonneg(*toh, p, "reps");
    require_nonneg(*toh, p, "off_seconds");
    require_nonneg(*toh, p, "on_seconds");
    require_nonneg(*toh, p, "ranks_l1_off_vs_on");
    const Value* ident =
        require(*toh, p, "ranks_bitwise_identical", Value::Type::kBool);
    if (ident != nullptr && !ident->boolean) {
      err(at(p, "ranks_bitwise_identical"),
          "must be true — telemetry perturbed the ranks");
    }
  }

  // Out-of-core section: streaming through bounded staging slots must
  // stay within its budget and agree bitwise with the in-core run of
  // the identical kernel.
  const Value* oo = require(root, top, "oocore", Value::Type::kObject);
  if (oo != nullptr) {
    const std::string p = at(top, "oocore");
    require(*oo, p, "dataset", Value::Type::kString);
    require_nonneg(*oo, p, "iterations");
    require_nonneg(*oo, p, "threads");
    const double segments = require_nonneg(*oo, p, "segments");
    if (segments < 2.0) {
      err(at(p, "segments"),
          "must be >= 2 — a single segment never exercises streaming");
    }
    require_nonneg(*oo, p, "target_segment_bytes");
    const double budget = require_nonneg(*oo, p, "budget_bytes");
    const double peak = require_nonneg(*oo, p, "peak_resident_bytes");
    if (peak > budget) {
      err(at(p, "peak_resident_bytes"),
          "exceeds budget_bytes (" + std::to_string(peak) + " > " +
              std::to_string(budget) + ")");
    }
    const Value* budget_ok = require(*oo, p, "budget_ok", Value::Type::kBool);
    if (budget_ok != nullptr && !budget_ok->boolean) {
      err(at(p, "budget_ok"),
          "must be true — streaming run exceeded its resident budget");
    }
    require_nonneg(*oo, p, "incore_seconds");
    require_nonneg(*oo, p, "streaming_seconds");
    require_nonneg(*oo, p, "io_wait_seconds");
    require_nonneg(*oo, p, "fetch_seconds");
    // fetch split into its graph/io sub-phases (advisory, not banded).
    require_nonneg(*oo, p, "read_seconds");
    require_nonneg(*oo, p, "verify_seconds");
    require_fraction(*oo, p, "prefetch_overlap_ratio");
    const double fetched = require_nonneg(*oo, p, "bytes_fetched");
    if (fetched < 1.0) {
      err(at(p, "bytes_fetched"), "streaming run fetched no bytes");
    }
    const Value* ident =
        require(*oo, p, "ranks_bitwise_identical", Value::Type::kBool);
    if (ident != nullptr && !ident->boolean) {
      err(at(p, "ranks_bitwise_identical"),
          "must be true — streaming diverged from the in-core run");
    }
  }
}

// ---- table3 schema ---------------------------------------------------------

void check_table3(const Value& root) {
  const std::string top;
  require_nonneg(root, top, "iterations");
  const Value* host = require(root, top, "host", Value::Type::kObject);
  if (host != nullptr) {
    require_nonneg(*host, at(top, "host"), "cpus");
    require_nonneg(*host, at(top, "host"), "numa_nodes");
  }
  const Value* datasets = require(root, top, "datasets", Value::Type::kArray);
  if (datasets != nullptr && datasets->array.empty()) {
    err(at(top, "datasets"), "is empty");
  }

  const Value* arches = require(root, top, "arches", Value::Type::kArray);
  if (arches != nullptr) {
    if (arches->array.empty()) err(at(top, "arches"), "is empty");
    for (std::size_t ai = 0; ai < arches->array.size(); ++ai) {
      const Value& a = *arches->array[ai];
      const std::string ap = at(at(top, "arches"), ai);
      require(a, ap, "arch", Value::Type::kString);
      require_nonneg(a, ap, "l2_kb");
      require(a, ap, "inclusive_llc", Value::Type::kBool);
      require_nonneg(a, ap, "norm_kb");
      const Value* methods = require(a, ap, "methods", Value::Type::kArray);
      if (methods == nullptr) continue;
      for (std::size_t mi = 0; mi < methods->array.size(); ++mi) {
        const Value& m = *methods->array[mi];
        const std::string mp = at(at(ap, "methods"), mi);
        require(m, mp, "method", Value::Type::kString);
        const Value* norm =
            require(m, mp, "normalized", Value::Type::kArray);
        if (norm == nullptr) continue;
        if (norm->array.empty()) err(at(mp, "normalized"), "is empty");
        for (std::size_t si = 0; si < norm->array.size(); ++si) {
          const Value& s = *norm->array[si];
          const std::string sp = at(at(mp, "normalized"), si);
          require_nonneg(s, sp, "kb");
          require_nonneg(s, sp, "value");
        }
      }
    }
  }

  const Value* nh = require(root, top, "native_hw", Value::Type::kObject);
  if (nh != nullptr) {
    const std::string np = at(top, "native_hw");
    require(*nh, np, "dataset", Value::Type::kString);
    require_nonneg(*nh, np, "iterations");
    const Value* methods = require(*nh, np, "methods", Value::Type::kArray);
    if (methods != nullptr) {
      if (methods->array.empty()) err(at(np, "methods"), "is empty");
      for (std::size_t mi = 0; mi < methods->array.size(); ++mi) {
        const Value& m = *methods->array[mi];
        const std::string mp = at(at(np, "methods"), mi);
        require(m, mp, "method", Value::Type::kString);
        const Value* sizes = require(m, mp, "sizes", Value::Type::kArray);
        if (sizes == nullptr) continue;
        if (sizes->array.empty()) err(at(mp, "sizes"), "is empty");
        for (std::size_t si = 0; si < sizes->array.size(); ++si) {
          const Value& s = *sizes->array[si];
          const std::string sp = at(at(mp, "sizes"), si);
          require_nonneg(s, sp, "kb");
          require_nonneg(s, sp, "partition_bytes");
          require_nonneg(s, sp, "native_seconds");
          require_nonneg(s, sp, "normalized");
          require_nonneg(s, sp, "llc_miss_pct");
          const Value* t = require(s, sp, "telemetry", Value::Type::kObject);
          if (t != nullptr) check_telemetry(*t, at(sp, "telemetry"));
          check_placement_audit(s, sp);
        }
      }
    }
  }
}

// ---- serve schema ----------------------------------------------------------

/// One QPS/latency block (read-only mix or the concurrent-refresh
/// section): counts non-negative and the percentile ladder ordered.
void check_latency_block(const Value& m, const std::string& path) {
  require_nonneg(m, path, "clients");
  require_nonneg(m, path, "seconds");
  require_nonneg(m, path, "requests");
  require_nonneg(m, path, "qps");
  const double p50 = require_nonneg(m, path, "p50_us");
  const double p95 = require_nonneg(m, path, "p95_us");
  const double p99 = require_nonneg(m, path, "p99_us");
  if (p50 > p95 + 1e-9 || p95 > p99 + 1e-9) {
    err(path, "latency percentiles not monotone (p50 <= p95 <= p99)");
  }
}

void check_serve(const Value& root) {
  const std::string top;
  const Value* host = require(root, top, "host", Value::Type::kObject);
  if (host != nullptr) {
    const std::string hp = at(top, "host");
    require_nonneg(*host, hp, "cpus");
    require_nonneg(*host, hp, "numa_nodes");
    require(*host, hp, "topology_source", Value::Type::kString);
    require(*host, hp, "numa_binding_available", Value::Type::kBool);
  }

  const Value* ds = require(root, top, "dataset", Value::Type::kObject);
  if (ds != nullptr) {
    const std::string dp = at(top, "dataset");
    require(*ds, dp, "name", Value::Type::kString);
    require_nonneg(*ds, dp, "scale");
    require_nonneg(*ds, dp, "vertices");
    require_nonneg(*ds, dp, "edges");
  }

  const Value* store = require(root, top, "store", Value::Type::kObject);
  if (store != nullptr) {
    const std::string sp = at(top, "store");
    const double nodes = require_nonneg(*store, sp, "num_nodes");
    const double slots = require_nonneg(*store, sp, "slots");
    require_nonneg(*store, sp, "vertices");
    if (nodes < 1.0) err(at(sp, "num_nodes"), "must be >= 1");
    // Fewer than 3 slots cannot overlap readers + in-flight publish.
    if (slots < 2.0) err(at(sp, "slots"), "must be >= 2");
  }

  const Value* mixes = require(root, top, "mixes", Value::Type::kArray);
  if (mixes != nullptr) {
    if (mixes->array.size() != 4) {
      err(at(top, "mixes"),
          "must have exactly 4 entries (point, batch, topk, mixed)");
    }
    for (std::size_t i = 0; i < mixes->array.size(); ++i) {
      const Value& m = *mixes->array[i];
      const std::string mp = at(at(top, "mixes"), i);
      require(m, mp, "mix", Value::Type::kString);
      check_latency_block(m, mp);
      const Value* requests = m.find("requests");
      if (requests != nullptr && requests->number < 1.0) {
        err(at(mp, "requests"), "mix served no requests at all");
      }
    }
  }

  const Value* cr =
      require(root, top, "concurrent_refresh", Value::Type::kObject);
  if (cr != nullptr) {
    const std::string cp = at(top, "concurrent_refresh");
    check_latency_block(*cr, cp);
    const double epochs = require_nonneg(*cr, cp, "epochs_published");
    require_nonneg(*cr, cp, "full_refreshes");
    require_nonneg(*cr, cp, "delta_refreshes");
    require_nonneg(*cr, cp, "reclaim_waits");
    if (epochs < 1.0) {
      err(at(cp, "epochs_published"),
          "no snapshot was republished during the concurrent window");
    }
    const Value* torn = require(*cr, cp, "torn_reads", Value::Type::kNumber);
    if (torn != nullptr && torn->number != 0.0) {
      err(at(cp, "torn_reads"),
          "must be 0 — readers observed mixed/regressing epochs (" +
              std::to_string(torn->number) + ")");
    }
  }

  const Value* metrics = require(root, top, "metrics", Value::Type::kObject);
  if (metrics != nullptr) {
    const std::string mp = at(top, "metrics");
    const Value* sc =
        require(*metrics, mp, "scrape_cost", Value::Type::kArray);
    if (sc != nullptr) {
      if (sc->array.size() != 3) {
        err(at(mp, "scrape_cost"),
            "must have exactly 3 entries (1, 8, 64 histograms)");
      }
      for (std::size_t i = 0; i < sc->array.size(); ++i) {
        const Value& row = *sc->array[i];
        const std::string rp = at(at(mp, "scrape_cost"), i);
        const double hists = require_nonneg(row, rp, "histograms");
        if (hists < 1.0) err(at(rp, "histograms"), "must be >= 1");
        require_nonneg(row, rp, "ns_per_scrape");
        require_nonneg(row, rp, "bytes");
      }
    }

    const Value* oh = require(*metrics, mp, "overhead", Value::Type::kObject);
    if (oh != nullptr) {
      const std::string op = at(mp, "overhead");
      require_nonneg(*oh, op, "uninstrumented_qps");
      require_nonneg(*oh, op, "instrumented_qps");
      require_nonneg(*oh, op, "qps_ratio");
      require_nonneg(*oh, op, "ns_per_event");
      require_nonneg(*oh, op, "events_per_request");
      require_fraction(*oh, op, "hot_path_fraction");
      const Value* gate = require(*oh, op, "gate_ok", Value::Type::kBool);
      if (gate != nullptr && !gate->boolean) {
        err(at(op, "gate_ok"),
            "must be true — instrumentation exceeded the <1% hot-path "
            "budget or QPS collapsed");
      }
    }

    const Value* qa =
        require(*metrics, mp, "quantile_accuracy", Value::Type::kObject);
    if (qa != nullptr) {
      const std::string qp = at(mp, "quantile_accuracy");
      require_nonneg(*qa, qp, "samples");
      require_fraction(*qa, qp, "tolerance");
      const Value* qs = require(*qa, qp, "quantiles", Value::Type::kArray);
      if (qs != nullptr) {
        if (qs->array.size() != 4) {
          err(at(qp, "quantiles"),
              "must have exactly 4 entries (p50, p95, p99, p999)");
        }
        for (std::size_t i = 0; i < qs->array.size(); ++i) {
          const Value& row = *qs->array[i];
          const std::string rp = at(at(qp, "quantiles"), i);
          require(row, rp, "quantile", Value::Type::kString);
          require_nonneg(row, rp, "exact_ns");
          require_nonneg(row, rp, "estimated_ns");
          require_fraction(row, rp, "rel_error");
        }
      }
      require_fraction(*qa, qp, "max_rel_error");
      const Value* within =
          require(*qa, qp, "within_tolerance", Value::Type::kBool);
      if (within != nullptr && !within->boolean) {
        err(at(qp, "within_tolerance"),
            "must be true — a histogram quantile estimate missed the "
            "exact value by more than one bucket width");
      }
    }
  }

  const Value* pi =
      require(root, top, "publish_identity", Value::Type::kObject);
  if (pi != nullptr) {
    const std::string pp = at(top, "publish_identity");
    const Value* ident =
        require(*pi, pp, "ranks_bitwise_identical", Value::Type::kBool);
    if (ident != nullptr && !ident->boolean) {
      err(at(pp, "ranks_bitwise_identical"),
          "must be true — published snapshot diverged from a standalone "
          "engine run");
    }
    require_nonneg(*pi, pp, "epoch");
    require_nonneg(*pi, pp, "iterations");
  }
}

// ---- dist schema -----------------------------------------------------------

void check_dist(const Value& root) {
  const std::string top;
  const Value* host = require(root, top, "host", Value::Type::kObject);
  if (host != nullptr) {
    const std::string hp = at(top, "host");
    require_nonneg(*host, hp, "cpus");
    require_nonneg(*host, hp, "numa_nodes");
    require(*host, hp, "topology_source", Value::Type::kString);
  }

  const Value* ds = require(root, top, "dataset", Value::Type::kObject);
  if (ds != nullptr) {
    const std::string dp = at(top, "dataset");
    require(*ds, dp, "name", Value::Type::kString);
    const double v = require_nonneg(*ds, dp, "vertices");
    const double e = require_nonneg(*ds, dp, "edges");
    if (v < 1.0) err(at(dp, "vertices"), "must be >= 1");
    if (e < 1.0) err(at(dp, "edges"), "must be >= 1");
  }

  const Value* sd = require(root, top, "shard_defaults", Value::Type::kObject);
  if (sd != nullptr) {
    const std::string sp = at(top, "shard_defaults");
    const double iters = require_nonneg(*sd, sp, "iterations");
    const double k = require_nonneg(*sd, sp, "topk_k");
    if (iters < 1.0) err(at(sp, "iterations"), "must be >= 1");
    if (k < 1.0) err(at(sp, "topk_k"), "must be >= 1");
  }

  // Scaling sweep: router throughput at 1, 2, and 4 real shard
  // processes. Shard counts must appear in that order so the regress
  // bands can key on the index.
  const Value* configs = require(root, top, "configs", Value::Type::kArray);
  if (configs != nullptr) {
    if (configs->array.size() != 3) {
      err(at(top, "configs"),
          "must have exactly 3 entries (1, 2, 4 shards)");
    }
    static const double kShardCounts[] = {1.0, 2.0, 4.0};
    for (std::size_t i = 0; i < configs->array.size(); ++i) {
      const Value& c = *configs->array[i];
      const std::string cp = at(at(top, "configs"), i);
      const double shards = require_nonneg(c, cp, "shards");
      if (i < 3 && shards != kShardCounts[i]) {
        err(at(cp, "shards"),
            "expected " + std::to_string((int)kShardCounts[i]) + " at index " +
                std::to_string(i) + " (got " + std::to_string((int)shards) +
                ")");
      }
      check_latency_block(c, cp);
      require_nonneg(c, cp, "mean_us");
      const Value* requests = c.find("requests");
      if (requests != nullptr && requests->number < 1.0) {
        err(at(cp, "requests"), "config served no requests at all");
      }
    }
  }

  // The scatter/merge correctness gate: a 4-shard fleet behind the
  // router must answer bitwise-identically to one single-process
  // RankService over the same snapshot.
  const Value* id = require(root, top, "identity", Value::Type::kObject);
  if (id != nullptr) {
    const std::string ip = at(top, "identity");
    const double shards = require_nonneg(*id, ip, "shards");
    if (shards < 2.0) {
      err(at(ip, "shards"),
          "must be >= 2 — one shard never exercises the merge");
    }
    const double queries = require_nonneg(*id, ip, "queries");
    if (queries < 1.0) err(at(ip, "queries"), "no identity queries ran");
    require_nonneg(*id, ip, "epoch");
    const Value* ident =
        require(*id, ip, "memcmp_identical", Value::Type::kBool);
    if (ident != nullptr && !ident->boolean) {
      err(at(ip, "memcmp_identical"),
          "must be true — sharded answers diverged from the "
          "single-process service");
    }
  }

  // Failover section: one shard is SIGKILLed mid-load; every answer
  // the router does return must still be bitwise-correct, and the
  // fleet must recover (failover_seconds measured, not sentinel).
  const Value* fo = require(root, top, "failover", Value::Type::kObject);
  if (fo != nullptr) {
    const std::string fp = at(top, "failover");
    require_nonneg(*fo, fp, "shards");
    require_nonneg(*fo, fp, "killed_shard");
    const Value* fs =
        require(*fo, fp, "failover_seconds", Value::Type::kNumber);
    if (fs != nullptr && fs->number < 0.0) {
      err(at(fp, "failover_seconds"),
          "is negative — the router never recovered from the kill");
    }
    const double answered = require_nonneg(*fo, fp, "answered");
    if (answered < 1.0) {
      err(at(fp, "answered"), "no queries answered during failover window");
    }
    require_nonneg(*fo, fp, "errors");
    require_nonneg(*fo, fp, "stale_merges");
    require_nonneg(*fo, fp, "timeouts");
    const Value* wrong =
        require(*fo, fp, "wrong_answers", Value::Type::kNumber);
    if (wrong != nullptr && wrong->number != 0.0) {
      err(at(fp, "wrong_answers"),
          "must be 0 — a merged answer diverged from the reference while "
          "a shard was down (" + std::to_string(wrong->number) + ")");
    }
  }
}

// ---- driver ----------------------------------------------------------------

int check_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::string perr;
  const ValuePtr rootp = hipa::json::parse(std::move(text), &perr);
  if (rootp == nullptr) {
    std::fprintf(stderr, "%s: %s\n", path, perr.c_str());
    return 1;
  }
  const Value& root = *rootp;

  const int before = g_errors;
  const Value* bench = require(root, "", "bench", Value::Type::kString);
  if (bench != nullptr) {
    if (bench->str == "hotpath") {
      check_hotpath(root);
    } else if (bench->str == "table3_microarch") {
      check_table3(root);
    } else if (bench->str == "serve") {
      check_serve(root);
    } else if (bench->str == "dist") {
      check_dist(root);
    } else {
      err("/bench", "unknown bench tag '" + bench->str + "'");
    }
  }

  const int file_errors = g_errors - before;
  if (file_errors > 0) {
    std::fprintf(stderr, "%d schema violation(s) in %s\n", file_errors,
                 path);
    return 1;
  }
  std::printf("schema OK: %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <BENCH_*.json> [more.json ...]\n",
                 argv[0]);
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    const int r = check_file(argv[i]);
    if (r > rc) rc = r;
  }
  return rc;
}
