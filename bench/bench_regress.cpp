// Perf-regression gate over the hot-path bench JSON: compares the
// metrics of a fresh BENCH_hotpath run against the committed
// BENCH_baseline.json with per-metric tolerance bands, and fails CI
// when a *deterministic* metric drifts.
//
// Two classes of metric, on purpose:
//
//  * Simulator metrics (sim_cycles, sim_bytes_per_edge), encoding
//    metrics (dst_bytes_per_edge, bins_footprint_bytes) and invariant
//    booleans (compact selection, bitwise-identical ranks) are
//    machine-independent — the simulator is deterministic and the
//    encodings depend only on the graph. These get tight bands and are
//    HARD failures: if sim_cycles moved 20%, the code changed the hot
//    path's memory behaviour.
//
//  * Native wall-clock metrics (native_seconds, edges/sec, dispatch
//    overhead) depend on the CI host and its noisy neighbours. These
//    are reported as warnings only — the committed baseline was
//    measured on some other machine.
//
// Violations are reported with RFC 6901 JSON pointers, same style as
// bench_schema_check.
//
//   bench_regress <current.json> <baseline.json>
//
// Runs as the third stage of the `perf-smoke` ctest fixture chains
// (bench_hotpath --smoke -> bench_schema_check -> bench_regress, and
// the same shape for bench_serve and bench_dist). A current document
// tagged "serve" is gated against the `serve` bands object embedded in
// BENCH_baseline.json: torn reads and publish identity are hard
// invariants, QPS/latency advisory. A "dist" document is gated the
// same way against the `dist` bands: merge identity and
// zero-wrong-answer failover are hard, router QPS/latency and the
// failover duration advisory.
#include <cmath>
#include <cstdio>
#include <string>

#include "common/minijson.hpp"

namespace {

using hipa::json::Value;
using hipa::json::ValuePtr;

int g_errors = 0;
int g_warnings = 0;

void fail(const std::string& pointer, const std::string& what) {
  std::fprintf(stderr, "regress FAIL %s: %s\n", pointer.c_str(),
               what.c_str());
  ++g_errors;
}

void warn(const std::string& pointer, const std::string& what) {
  std::fprintf(stderr, "regress warn %s: %s\n", pointer.c_str(),
               what.c_str());
  ++g_warnings;
}

std::string at(const std::string& pointer, const std::string& token) {
  return pointer + "/" + token;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

const Value* get(const Value* obj, const char* key) {
  if (obj == nullptr || obj->type != Value::Type::kObject) return nullptr;
  return obj->find(key);
}

bool get_number(const Value* obj, const char* key, double* out) {
  const Value* v = get(obj, key);
  if (v == nullptr || v->type != Value::Type::kNumber) return false;
  *out = v->number;
  return true;
}

/// Relative drift |cur - base| / max(|base|, floor). The floor keeps
/// near-zero baselines (e.g. 0.0 bytes saved) from amplifying noise.
double rel_drift(double cur, double base, double floor_abs) {
  const double denom = std::fmax(std::fabs(base), floor_abs);
  return denom > 0.0 ? std::fabs(cur - base) / denom : 0.0;
}

/// Compare one numeric metric under a relative tolerance band.
/// hard=true -> failure; hard=false -> warning only.
void compare_metric(const Value* cur, const Value* base,
                    const std::string& path, const char* key,
                    double tolerance, bool hard,
                    double floor_abs = 1e-12) {
  double c = 0.0;
  double b = 0.0;
  if (!get_number(base, key, &b)) return;  // baseline lacks it: nothing to gate
  if (!get_number(cur, key, &c)) {
    fail(at(path, key), "metric present in baseline but missing in current");
    return;
  }
  const double drift = rel_drift(c, b, floor_abs);
  if (drift <= tolerance) return;
  const std::string msg = "drifted " + fmt(drift * 100.0) + "% (baseline " +
                          fmt(b) + ", current " + fmt(c) + ", band ±" +
                          fmt(tolerance * 100.0) + "%)";
  if (hard) {
    fail(at(path, key), msg);
  } else {
    warn(at(path, key), msg);
  }
}

void compare_encoding_run(const Value* cur, const Value* base,
                          const std::string& path) {
  if (cur == nullptr) {
    fail(path, "encoding run missing in current");
    return;
  }
  // Deterministic: the encoding choice and footprint depend only on
  // the graph and partition plan.
  const Value* cc = get(cur, "compact");
  const Value* bc = get(base, "compact");
  if (cc != nullptr && bc != nullptr && cc->boolean != bc->boolean) {
    fail(at(path, "compact"),
         std::string("encoding flipped (baseline ") +
             (bc->boolean ? "compact" : "wide") + ", current " +
             (cc->boolean ? "compact" : "wide") + ")");
  }
  compare_metric(cur, base, path, "bins_footprint_bytes", 0.10, true);
  compare_metric(cur, base, path, "dst_bytes_per_edge", 0.10, true);
  compare_metric(cur, base, path, "sim_bytes_per_edge", 0.15, true, 0.01);
  compare_metric(cur, base, path, "sim_cycles", 0.15, true);
  // Host-dependent: advisory only.
  compare_metric(cur, base, path, "native_seconds", 3.0, false, 1e-6);
  compare_metric(cur, base, path, "native_edges_per_sec", 3.0, false, 1.0);
}

const Value* find_dataset(const Value* root, const std::string& name) {
  const Value* ds = get(root, "datasets");
  if (ds == nullptr || ds->type != Value::Type::kArray) return nullptr;
  for (const ValuePtr& d : ds->array) {
    const Value* n = get(d.get(), "name");
    if (n != nullptr && n->str == name) return d.get();
  }
  return nullptr;
}

const Value* find_method(const Value* dataset, const std::string& name) {
  const Value* ms = get(dataset, "methods");
  if (ms == nullptr || ms->type != Value::Type::kArray) return nullptr;
  for (const ValuePtr& m : ms->array) {
    const Value* n = get(m.get(), "method");
    if (n != nullptr && n->str == name) return m.get();
  }
  return nullptr;
}

const Value* find_mix(const Value* root, const std::string& name) {
  const Value* ms = get(root, "mixes");
  if (ms == nullptr || ms->type != Value::Type::kArray) return nullptr;
  for (const ValuePtr& m : ms->array) {
    const Value* n = get(m.get(), "mix");
    if (n != nullptr && n->str == name) return m.get();
  }
  return nullptr;
}

/// Serve-mode gate. `base` is the "serve" bands object embedded in
/// BENCH_baseline.json (the baseline artifact itself is the hotpath
/// run; serve rides along as a sub-document so one committed file
/// gates the whole perf-smoke chain).
///
/// Hard invariants are correctness claims about the CURRENT run —
/// zero torn reads across concurrent republishes and bitwise identity
/// of the published snapshot — and hold regardless of the baseline.
/// QPS and latency percentiles are host-dependent: advisory bands.
void regress_serve(const Value* cur, const Value* base) {
  {  // publish protocol correctness (hard, baseline-independent)
    const Value* cr = get(cur, "concurrent_refresh");
    double torn = -1.0;
    if (!get_number(cr, "torn_reads", &torn) || torn != 0.0) {
      fail("/concurrent_refresh/torn_reads",
           "must be 0 — readers observed mixed or regressing epochs");
    }
    double epochs = 0.0;
    if (!get_number(cr, "epochs_published", &epochs) || epochs < 1.0) {
      fail("/concurrent_refresh/epochs_published",
           "no republish happened during the concurrent window — the "
           "scenario did not exercise publish-while-serving");
    }
    const Value* pi = get(cur, "publish_identity");
    const Value* ident = get(pi, "ranks_bitwise_identical");
    if (ident == nullptr || ident->type != Value::Type::kBool ||
        !ident->boolean) {
      fail("/publish_identity/ranks_bitwise_identical",
           "must be true — published ranks diverged from a standalone "
           "engine run");
    }
  }

  if (base == nullptr) {
    fail("/serve", "baseline has no serve bands (extend "
                   "BENCH_baseline.json)");
    return;
  }

  // Graph shape is generated deterministically from the dataset name.
  compare_metric(get(cur, "dataset"), get(base, "dataset"), "/dataset",
                 "vertices", 0.0, true);
  compare_metric(get(cur, "dataset"), get(base, "dataset"), "/dataset",
                 "edges", 0.0, true);
  // Slot count is an options default (deterministic); node count
  // follows the host topology (advisory).
  compare_metric(get(cur, "store"), get(base, "store"), "/store", "slots",
                 0.0, true);
  compare_metric(get(cur, "store"), get(base, "store"), "/store",
                 "num_nodes", 0.0, false, 1.0);

  const Value* bmixes = get(base, "mixes");
  if (bmixes != nullptr && bmixes->type == Value::Type::kArray) {
    for (const ValuePtr& bm : bmixes->array) {
      const Value* name = get(bm.get(), "mix");
      if (name == nullptr) continue;
      const std::string mpath = "/mixes[mix=" + name->str + "]";
      const Value* cm = find_mix(cur, name->str);
      if (cm == nullptr) {
        fail(mpath, "mix present in baseline but missing in current");
        continue;
      }
      double requests = 0.0;
      if (get_number(cm, "requests", &requests) && requests < 1.0) {
        fail(at(mpath, "requests"), "mix served zero requests");
      }
      // Throughput/latency: committed on some other machine — warn only.
      compare_metric(cm, bm.get(), mpath, "qps", 5.0, false, 1.0);
      compare_metric(cm, bm.get(), mpath, "p50_us", 10.0, false, 1.0);
      compare_metric(cm, bm.get(), mpath, "p99_us", 10.0, false, 1.0);
    }
  }
  compare_metric(get(cur, "concurrent_refresh"),
                 get(base, "concurrent_refresh"), "/concurrent_refresh",
                 "qps", 5.0, false, 1.0);
  compare_metric(get(cur, "concurrent_refresh"),
                 get(base, "concurrent_refresh"), "/concurrent_refresh",
                 "p99_us", 10.0, false, 1.0);

  // Metrics plane. The producer already enforces the deterministic
  // gates (quantile accuracy within one bucket width, hot-path
  // fraction < 1%); re-assert them here as hard baseline-independent
  // invariants, then band the host-dependent costs as advisories.
  const Value* cm = get(cur, "metrics");
  {
    const Value* qa = get(cm, "quantile_accuracy");
    const Value* within = get(qa, "within_tolerance");
    if (within == nullptr || within->type != Value::Type::kBool ||
        !within->boolean) {
      fail("/metrics/quantile_accuracy/within_tolerance",
           "must be true — a histogram quantile estimate missed the "
           "exact value by more than one bucket width");
    }
    const Value* oh = get(cm, "overhead");
    const Value* gate = get(oh, "gate_ok");
    if (gate == nullptr || gate->type != Value::Type::kBool ||
        !gate->boolean) {
      fail("/metrics/overhead/gate_ok",
           "must be true — instrumentation exceeded the <1% hot-path "
           "budget or QPS collapsed");
    }
  }
  const Value* bm = get(base, "metrics");
  if (bm != nullptr) {
    // Scrape cost and per-event cost: absolute nanoseconds measured on
    // whatever machine committed the baseline — advisory bands only.
    const Value* bsc = get(bm, "scrape_cost");
    const Value* csc = get(cm, "scrape_cost");
    if (bsc != nullptr && bsc->type == Value::Type::kArray &&
        csc != nullptr && csc->type == Value::Type::kArray) {
      for (std::size_t i = 0;
           i < bsc->array.size() && i < csc->array.size(); ++i) {
        const std::string sp = "/metrics/scrape_cost/" + std::to_string(i);
        compare_metric(csc->array[i].get(), bsc->array[i].get(), sp,
                       "histograms", 0.0, true);
        compare_metric(csc->array[i].get(), bsc->array[i].get(), sp,
                       "ns_per_scrape", 3.0, false, 100.0);
      }
    }
    compare_metric(get(cm, "overhead"), get(bm, "overhead"),
                   "/metrics/overhead", "ns_per_event", 3.0, false, 1.0);
    compare_metric(get(cm, "overhead"), get(bm, "overhead"),
                   "/metrics/overhead", "qps_ratio", 0.25, false, 0.1);
  }
}

const Value* find_config(const Value* root, double shards) {
  const Value* cs = get(root, "configs");
  if (cs == nullptr || cs->type != Value::Type::kArray) return nullptr;
  for (const ValuePtr& c : cs->array) {
    double s = 0.0;
    if (get_number(c.get(), "shards", &s) && s == shards) return c.get();
  }
  return nullptr;
}

/// Dist-mode gate. `base` is the "dist" bands object embedded in
/// BENCH_baseline.json (same embedding scheme as "serve").
///
/// Hard invariants are correctness claims about the CURRENT run and
/// hold regardless of the baseline: the 4-shard router must answer
/// memcmp-identically to a single-process RankService, and SIGKILLing
/// a shard mid-load must produce zero wrong answers with a measured
/// (non-sentinel) failover time. Router QPS, latency percentiles, and
/// the failover duration itself are host-dependent: advisory bands.
void regress_dist(const Value* cur, const Value* base) {
  {  // scatter/merge correctness (hard, baseline-independent)
    const Value* id = get(cur, "identity");
    const Value* ident = get(id, "memcmp_identical");
    if (ident == nullptr || ident->type != Value::Type::kBool ||
        !ident->boolean) {
      fail("/identity/memcmp_identical",
           "must be true — sharded answers diverged from the "
           "single-process service");
    }
    const Value* fo = get(cur, "failover");
    double wrong = -1.0;
    if (!get_number(fo, "wrong_answers", &wrong) || wrong != 0.0) {
      fail("/failover/wrong_answers",
           "must be 0 — a merged answer was wrong while a shard was down");
    }
    double fs = -1.0;
    if (!get_number(fo, "failover_seconds", &fs) || fs < 0.0) {
      fail("/failover/failover_seconds",
           "must be >= 0 — the router never recovered from the kill");
    }
    double answered = 0.0;
    if (!get_number(fo, "answered", &answered) || answered < 1.0) {
      fail("/failover/answered",
           "no queries were answered during the failover window — the "
           "scenario did not exercise serving-through-failure");
    }
  }

  if (base == nullptr) {
    fail("/dist", "baseline has no dist bands (extend BENCH_baseline.json)");
    return;
  }

  // Graph shape is generated deterministically from the seed.
  compare_metric(get(cur, "dataset"), get(base, "dataset"), "/dataset",
                 "vertices", 0.0, true);
  compare_metric(get(cur, "dataset"), get(base, "dataset"), "/dataset",
                 "edges", 0.0, true);
  compare_metric(get(cur, "shard_defaults"), get(base, "shard_defaults"),
                 "/shard_defaults", "topk_k", 0.0, true);

  const Value* bconfigs = get(base, "configs");
  if (bconfigs != nullptr && bconfigs->type == Value::Type::kArray) {
    for (const ValuePtr& bc : bconfigs->array) {
      double shards = 0.0;
      if (!get_number(bc.get(), "shards", &shards)) continue;
      const std::string cpath =
          "/configs[shards=" + std::to_string((int)shards) + "]";
      const Value* cc = find_config(cur, shards);
      if (cc == nullptr) {
        fail(cpath, "shard count present in baseline but missing in current");
        continue;
      }
      double requests = 0.0;
      if (get_number(cc, "requests", &requests) && requests < 1.0) {
        fail(at(cpath, "requests"), "config served zero requests");
      }
      // Throughput through real sockets + process scheduling: the
      // noisiest numbers in the suite — wide advisory bands only.
      compare_metric(cc, bc.get(), cpath, "qps", 5.0, false, 1.0);
      compare_metric(cc, bc.get(), cpath, "p50_us", 10.0, false, 1.0);
      compare_metric(cc, bc.get(), cpath, "p99_us", 10.0, false, 1.0);
    }
  }

  // Failover duration: dominated by health-poll cadence and kernel
  // socket teardown latency — advisory, with a generous floor so a
  // sub-millisecond baseline doesn't amplify scheduler noise.
  compare_metric(get(cur, "failover"), get(base, "failover"), "/failover",
                 "failover_seconds", 10.0, false, 0.05);
}

ValuePtr load(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return nullptr;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string perr;
  ValuePtr v = hipa::json::parse(std::move(text), &perr);
  if (v == nullptr) std::fprintf(stderr, "%s: %s\n", path, perr.c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <current.json> <baseline.json>\n",
                 argv[0]);
    return 2;
  }
  const ValuePtr curp = load(argv[1]);
  const ValuePtr basep = load(argv[2]);
  if (curp == nullptr || basep == nullptr) return 2;
  const Value* cur = curp.get();
  const Value* base = basep.get();

  {  // Same artifact kind? Serve currents may instead match the
     // baseline's embedded "serve" bands object.
    const Value* cb = get(cur, "bench");
    const Value* bb = get(base, "bench");
    if (cb != nullptr && cb->str == "serve") {
      const Value* sbase = (bb != nullptr && bb->str == "serve")
                               ? base
                               : get(base, "serve");
      regress_serve(cur, sbase);
      if (g_errors > 0) {
        std::fprintf(stderr,
                     "%d hard regression(s), %d warning(s) vs baseline %s\n",
                     g_errors, g_warnings, argv[2]);
        return 1;
      }
      std::printf("regress OK: %s vs %s (%d warning(s))\n", argv[1],
                  argv[2], g_warnings);
      return 0;
    }
    if (cb != nullptr && cb->str == "dist") {
      const Value* dbase = (bb != nullptr && bb->str == "dist")
                               ? base
                               : get(base, "dist");
      regress_dist(cur, dbase);
      if (g_errors > 0) {
        std::fprintf(stderr,
                     "%d hard regression(s), %d warning(s) vs baseline %s\n",
                     g_errors, g_warnings, argv[2]);
        return 1;
      }
      std::printf("regress OK: %s vs %s (%d warning(s))\n", argv[1],
                  argv[2], g_warnings);
      return 0;
    }
    if (cb == nullptr || bb == nullptr || cb->str != bb->str) {
      fail("/bench", "bench tag mismatch between current and baseline");
    }
  }

  // Invariant booleans: these must HOLD in current regardless of the
  // baseline (they are correctness claims, not measurements).
  {
    const Value* toh = get(cur, "telemetry_overhead");
    const Value* ident = get(toh, "ranks_bitwise_identical");
    if (ident != nullptr &&
        (ident->type != Value::Type::kBool || !ident->boolean)) {
      fail("/telemetry_overhead/ranks_bitwise_identical", "must be true");
    }
  }

  // Dataset x method x encoding grid: every cell in the baseline must
  // still exist and stay inside its band.
  const Value* bds = get(base, "datasets");
  if (bds != nullptr && bds->type == Value::Type::kArray) {
    for (const ValuePtr& bd : bds->array) {
      const Value* name = get(bd.get(), "name");
      if (name == nullptr) continue;
      const std::string dpath = "/datasets[name=" + name->str + "]";
      const Value* cd = find_dataset(cur, name->str);
      if (cd == nullptr) {
        fail(dpath, "dataset present in baseline but missing in current");
        continue;
      }
      // Graph shape is generated deterministically from the name/scale.
      compare_metric(cd, bd.get(), dpath, "vertices", 0.0, true);
      compare_metric(cd, bd.get(), dpath, "edges", 0.0, true);
      const Value* bms = get(bd.get(), "methods");
      if (bms == nullptr || bms->type != Value::Type::kArray) continue;
      for (const ValuePtr& bm : bms->array) {
        const Value* mname = get(bm.get(), "method");
        if (mname == nullptr) continue;
        const std::string mpath = dpath + "/methods[method=" + mname->str +
                                  "]";
        const Value* cm = find_method(cd, mname->str);
        if (cm == nullptr) {
          fail(mpath, "method present in baseline but missing in current");
          continue;
        }
        compare_encoding_run(get(cm, "auto"), get(bm.get(), "auto"),
                             mpath + "/auto");
        compare_encoding_run(get(cm, "wide"), get(bm.get(), "wide"),
                             mpath + "/wide");
        // The compression ratio is a pure data-structure property.
        compare_metric(cm, bm.get(), mpath, "bins_compression_ratio", 0.10,
                       true);
        double l1 = 1.0;
        if (get_number(cm, "ranks_l1_vs_wide", &l1) && l1 != 0.0) {
          fail(at(mpath, "ranks_l1_vs_wide"), "must be 0");
        }
      }
    }
  }

  // Barrier micro-section: crossing latencies are host-dependent
  // (advisory bands); the structural checks live in the schema gate.
  // Like the dispatch ordering below, a tree barrier that costs more
  // than the flat one at the full team size undercuts the design's
  // point, so warn loudly.
  {
    const Value* cb = get(cur, "barrier");
    double flat = 0.0;
    double tree = 0.0;
    if (get_number(cb, "flat_ns_per_crossing_max_threads", &flat) &&
        get_number(cb, "tree_ns_per_crossing_max_threads", &tree) &&
        tree > flat) {
      warn("/barrier", "tree barrier (" + fmt(tree) +
                           " ns/crossing) slower than flat (" + fmt(flat) +
                           " ns) at max threads on this host");
    }
    const Value* bb = get(base, "barrier");
    compare_metric(cb, bb, "/barrier", "flat_ns_per_crossing_max_threads",
                   5.0, false, 1.0);
    compare_metric(cb, bb, "/barrier", "tree_ns_per_crossing_max_threads",
                   5.0, false, 1.0);
  }

  // Kernel section: the abstraction-drift gate is a correctness claim
  // about the CURRENT run (hard, baseline-independent) — the facade
  // and run<PageRankKernel> are the same core, so simulated cycles
  // and ranks must agree exactly. Per-kernel message volume, round
  // counts and skip ratios are deterministic functions of graph +
  // partition plan: tight hard bands. ns/edge is host wall clock:
  // advisory.
  {
    const Value* ck = get(cur, "kernels");
    if (ck != nullptr) {
      double drift = -1.0;
      if (!get_number(ck, "pagerank_abstraction_drift", &drift) ||
          drift != 0.0) {
        fail("/kernels/pagerank_abstraction_drift", "must be 0");
      }
      double l1 = -1.0;
      if (!get_number(ck, "pagerank_ranks_l1_vs_facade", &l1) ||
          l1 != 0.0) {
        fail("/kernels/pagerank_ranks_l1_vs_facade", "must be 0");
      }
      const Value* ident = get(ck, "pagerank_bitwise_identical_to_facade");
      if (ident == nullptr || ident->type != Value::Type::kBool ||
          !ident->boolean) {
        fail("/kernels/pagerank_bitwise_identical_to_facade",
             "must be true");
      }
      const Value* bk = get(base, "kernels");
      compare_metric(ck, bk, "/kernels", "full_round_messages", 0.0, true);
      // Simulated cycles carry heap-address set-conflict noise
      // (~1e-5 relative); anything past 2% is a real model change.
      compare_metric(ck, bk, "/kernels", "pagerank_sim_cycles_facade",
                     0.02, true);
      compare_metric(ck, bk, "/kernels", "pagerank_sim_cycles_kernel",
                     0.02, true);
      const Value* bentries = get(bk, "entries");
      const Value* centries = get(ck, "entries");
      if (bentries != nullptr && bentries->type == Value::Type::kArray) {
        for (const ValuePtr& be : bentries->array) {
          const Value* name = get(be.get(), "kernel");
          if (name == nullptr) continue;
          const std::string ep = "/kernels/entries[kernel=" + name->str +
                                 "]";
          const Value* ce = nullptr;
          if (centries != nullptr &&
              centries->type == Value::Type::kArray) {
            for (const ValuePtr& c : centries->array) {
              const Value* n = get(c.get(), "kernel");
              if (n != nullptr && n->str == name->str) {
                ce = c.get();
                break;
              }
            }
          }
          if (ce == nullptr) {
            fail(ep, "kernel present in baseline but missing in current");
            continue;
          }
          compare_metric(ce, be.get(), ep, "iterations", 0.0, true);
          compare_metric(ce, be.get(), ep, "messages_per_edge", 0.02, true,
                         0.001);
          compare_metric(ce, be.get(), ep, "active_skip_ratio", 0.02, true,
                         0.01);
          compare_metric(ce, be.get(), ep, "ns_per_edge", 3.0, false, 0.1);
        }
      }
    }
  }

  // Out-of-core streaming: bitwise identity with the in-core run and
  // staying inside the resident budget are correctness claims about
  // the CURRENT run (hard, baseline-independent). The segmentation
  // plan, budget arithmetic, and per-iteration byte traffic depend
  // only on the graph and the configured target segment size, so they
  // get exact bands. Wall clock and the achieved prefetch overlap are
  // host/IO dependent: advisory.
  {
    const Value* coo = get(cur, "oocore");
    if (coo != nullptr) {
      const Value* ident = get(coo, "ranks_bitwise_identical");
      if (ident == nullptr || ident->type != Value::Type::kBool ||
          !ident->boolean) {
        fail("/oocore/ranks_bitwise_identical",
             "must be true — streaming ranks diverged from the in-core "
             "run");
      }
      const Value* bok = get(coo, "budget_ok");
      if (bok == nullptr || bok->type != Value::Type::kBool ||
          !bok->boolean) {
        fail("/oocore/budget_ok",
             "must be true — peak resident bytes exceeded the "
             "configured budget");
      }
      double peak = 0.0;
      double budget = 0.0;
      if (get_number(coo, "peak_resident_bytes", &peak) &&
          get_number(coo, "budget_bytes", &budget) && peak > budget) {
        fail("/oocore/peak_resident_bytes",
             "exceeds budget_bytes (" + fmt(peak) + " > " + fmt(budget) +
                 ")");
      }
      const Value* boo = get(base, "oocore");
      // Deterministic plan/traffic properties of graph + target size.
      compare_metric(coo, boo, "/oocore", "segments", 0.0, true);
      compare_metric(coo, boo, "/oocore", "iterations", 0.0, true);
      compare_metric(coo, boo, "/oocore", "target_segment_bytes", 0.0,
                     true);
      compare_metric(coo, boo, "/oocore", "budget_bytes", 0.0, true);
      compare_metric(coo, boo, "/oocore", "peak_resident_bytes", 0.0,
                     true);
      compare_metric(coo, boo, "/oocore", "bytes_fetched", 0.0, true);
      // Host/IO dependent: advisory only.
      compare_metric(coo, boo, "/oocore", "incore_seconds", 3.0, false,
                     1e-6);
      compare_metric(coo, boo, "/oocore", "streaming_seconds", 3.0, false,
                     1e-6);
      compare_metric(coo, boo, "/oocore", "prefetch_overlap_ratio", 10.0,
                     false, 0.05);
    }
  }

  // Dispatch overhead: host-dependent, advisory. The *ordering*
  // (run_loop cheaper than per-phase dispatch) is the paper's claim
  // and is machine-independent enough to warn loudly about.
  {
    const Value* cov = get(cur, "dispatch_overhead");
    double phase_ns = 0.0;
    double loop_ns = 0.0;
    if (get_number(cov, "phase_ns_per_iter", &phase_ns) &&
        get_number(cov, "run_loop_ns_per_iter", &loop_ns) &&
        loop_ns > phase_ns) {
      warn("/dispatch_overhead",
           "run_loop (" + fmt(loop_ns) + " ns) slower than per-phase "
           "dispatch (" + fmt(phase_ns) + " ns) on this host");
    }
    compare_metric(cov, get(base, "dispatch_overhead"), "/dispatch_overhead",
                   "phase_ns_per_iter", 5.0, false, 1.0);
    compare_metric(cov, get(base, "dispatch_overhead"), "/dispatch_overhead",
                   "run_loop_ns_per_iter", 5.0, false, 1.0);
  }

  if (g_errors > 0) {
    std::fprintf(stderr,
                 "%d hard regression(s), %d warning(s) vs baseline %s\n",
                 g_errors, g_warnings, argv[2]);
    return 1;
  }
  std::printf("regress OK: %s vs %s (%d warning(s))\n", argv[1], argv[2],
              g_warnings);
  return 0;
}
