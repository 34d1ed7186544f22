// Shared plumbing for the paper-reproduction bench binaries: flag
// parsing, dataset/machine construction at matched scale, table
// formatting.
//
// Every binary prints (a) the substitution banner — scale factors and
// what they mean — and (b) rows shaped like the paper's table/figure so
// EXPERIMENTS.md can be filled by direct comparison.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "algos/pagerank.hpp"
#include "common/cli.hpp"
#include "graph/datasets.hpp"
#include "runtime/numa_audit.hpp"
#include "runtime/telemetry.hpp"
#include "sim/machine.hpp"

namespace hipa::bench {

/// Common CLI flags: --iters=N, --quick (tiny sizes for smoke runs),
/// --smoke (quick + one dataset + short iterations; CI-friendly),
/// --dataset=name (restrict to one paper dataset), --methods=a,b
/// (restrict the methodology set; names per algo::method_from_name,
/// e.g. "hipa,ppr,GPOP"), --kernel=a,b (restrict the kernel set; names
/// per algo::kernel_from_name: pagerank ppr bfs wcc sssp), --out=path
/// (JSON output path for benches that emit machine-readable results),
/// --trace-out=path (Chrome/Perfetto trace_events timeline of the
/// instrumented native run; open with ui.perfetto.dev), --help.
///
/// Parsing fails closed: an unrecognized argument or an unknown
/// dataset name exits 2 with a message naming it, so a typo never
/// silently starts the full multi-minute bench.
///
/// The flag grammar itself (prefix matching, list splitting, strict
/// integers) lives in common/cli.hpp, shared with the offline tools;
/// this struct only binds it to the bench vocabulary.
struct Flags {
  unsigned iterations = 0;  ///< 0 = per-bench default
  bool quick = false;
  bool smoke = false;  ///< implies quick; benches also trim datasets
  std::string dataset;
  std::vector<algo::Method> methods;  ///< empty = bench default set
  std::vector<algo::Kernel> kernels;  ///< empty = bench default set
  std::string out;        ///< JSON output path ("" = bench default)
  std::string trace_out;  ///< Chrome trace path ("" = no trace)

  static Flags parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (const char* iters_arg = cli::flag_value(a, "--iters=")) {
        f.iterations =
            static_cast<unsigned>(cli::parse_u64("--iters", iters_arg));
      } else if (cli::flag_is(a, "--quick")) {
        // Smoke mode: 8x extra shrink. Degenerate caches distort shapes;
        // use default scales for reproduction-quality numbers.
        f.quick = true;
      } else if (cli::flag_is(a, "--smoke")) {
        f.smoke = true;
        f.quick = true;
      } else if (const char* dataset_arg =
                     cli::flag_value(a, "--dataset=")) {
        f.dataset = parse_dataset(dataset_arg);
      } else if (const char* methods_arg =
                     cli::flag_value(a, "--methods=")) {
        f.methods = parse_methods(methods_arg);
      } else if (const char* kernels_arg =
                     cli::flag_value(a, "--kernel=")) {
        f.kernels = parse_kernels(kernels_arg);
      } else if (const char* out_arg = cli::flag_value(a, "--out=")) {
        f.out = out_arg;
      } else if (const char* trace_arg =
                     cli::flag_value(a, "--trace-out=")) {
        f.trace_out = trace_arg;
      } else if (cli::flag_is(a, "--help")) {
        std::printf(
            "flags: --iters=N  --quick  --smoke  --dataset=<name>  "
            "--methods=a,b  --kernel=a,b  --out=<path>  "
            "--trace-out=<path>\n"
            "datasets: %s\n"
            "methods:  hipa ppr vpr gpop polymer (or the paper names)\n"
            "kernels:  pagerank ppr bfs wcc sssp\n",
            dataset_vocab().c_str());
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown argument '%s' (try --help)\n", a);
        std::exit(2);
      }
    }
    return f;
  }

  /// Space-separated paper dataset names, in Table 1 order.
  static std::string dataset_vocab() {
    std::string vocab;
    for (const auto& info : graph::paper_datasets()) {
      if (!vocab.empty()) vocab += ' ';
      vocab += info.name;
    }
    return vocab;
  }

  /// A --dataset= value checked against graph::paper_datasets();
  /// unknown names abort, same policy as parse_methods.
  static std::string parse_dataset(const char* name) {
    for (const auto& info : graph::paper_datasets()) {
      if (info.name == name) return info.name;
    }
    std::fprintf(stderr, "unknown dataset '%s' (try %s)\n", name,
                 dataset_vocab().c_str());
    std::exit(2);
  }

  /// Comma-separated method list -> Methods via algo::method_from_name.
  /// Unknown names abort with a message listing the vocabulary — a
  /// silently dropped methodology would corrupt a reproduction run.
  static std::vector<algo::Method> parse_methods(const char* list) {
    return cli::parse_name_list<algo::Method>(
        list, [](const std::string& s) { return algo::method_from_name(s); },
        "method", "hipa ppr vpr gpop polymer");
  }

  /// Comma-separated kernel list -> algo::Kernel via
  /// algo::kernel_from_name; unknown names abort, same policy as
  /// parse_methods.
  static std::vector<algo::Kernel> parse_kernels(const char* list) {
    return cli::parse_name_list<algo::Kernel>(
        list, [](const std::string& s) { return algo::kernel_from_name(s); },
        "kernel", "pagerank ppr bfs wcc sssp");
  }

  /// The bench's method set: the --methods= filter if given (order
  /// preserved), otherwise `defaults`.
  [[nodiscard]] std::vector<algo::Method> methods_or(
      std::initializer_list<algo::Method> defaults) const {
    if (!methods.empty()) return methods;
    return std::vector<algo::Method>(defaults);
  }

  /// The bench's kernel set: the --kernel= filter if given, otherwise
  /// `defaults`.
  [[nodiscard]] std::vector<algo::Kernel> kernels_or(
      std::initializer_list<algo::Kernel> defaults) const {
    if (!kernels.empty()) return kernels;
    return std::vector<algo::Kernel>(defaults);
  }
};

/// One dataset instantiated at its matched scale, with the simulated
/// machine shrunk by the same factor.
struct ScaledDataset {
  std::string name;
  unsigned scale = 1;
  graph::Graph graph;
};

/// Load one dataset at its recommended (or quick) scale.
inline ScaledDataset load_scaled(const std::string& name, bool quick) {
  ScaledDataset d;
  d.name = name;
  d.scale = graph::recommended_scale(name) * (quick ? 8 : 1);
  d.graph = graph::make_dataset(name, d.scale);
  return d;
}

/// All six paper datasets (or the one named by flags).
inline std::vector<ScaledDataset> load_datasets(const Flags& flags) {
  std::vector<ScaledDataset> out;
  for (const auto& info : graph::paper_datasets()) {
    if (!flags.dataset.empty() && flags.dataset != info.name) continue;
    out.push_back(load_scaled(info.name, flags.quick));
  }
  return out;
}

/// Fresh simulated Skylake testbed scaled to match a dataset.
inline sim::SimMachine make_machine(unsigned scale,
                                    std::uint64_t seed = 1) {
  return sim::SimMachine(sim::Topology::skylake_2s().scaled(scale), {},
                         seed);
}

inline void print_banner(const char* experiment, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s  (reproduces %s)\n", experiment, paper_ref);
  std::printf("substitution: simulated 2-socket Skylake (2x10 cores x2 SMT);\n");
  std::printf("datasets are synthetic stand-ins scaled 1/N with caches and\n");
  std::printf("partition sizes scaled by the same N (printed per row).\n");
  std::printf("shapes (orderings, ratios, crossovers) are the reproduction\n");
  std::printf("target, not absolute seconds. See DESIGN.md / EXPERIMENTS.md.\n");
  std::printf("================================================================\n");
}

/// MApE per iteration — the paper's Fig. 5 metric.
inline double mape_per_iter(const engine::RunReport& r, eid_t edges) {
  return r.iterations == 0
             ? 0.0
             : r.stats.mape(edges) / static_cast<double>(r.iterations);
}

/// Minimal streaming JSON emitter — no third-party deps, writes
/// directly to a FILE*. Comma placement is tracked with a per-level
/// "first element" stack; keys set a one-shot flag so the following
/// value attaches without a separator. Only the shapes the benches
/// need (objects, arrays, strings, numbers, bools); strings are
/// escaped for quotes, backslashes and control characters.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) {}

  void begin_object() { sep(); std::fputc('{', f_); push(); }
  void end_object() { pop(); std::fputc('}', f_); }
  void begin_array() { sep(); std::fputc('[', f_); push(); }
  void end_array() { pop(); std::fputc(']', f_); }

  void key(const char* k) {
    sep();
    write_string(k);
    std::fputc(':', f_);
    after_key_ = true;
  }

  void value(const char* s) { sep(); write_string(s); }
  void value(const std::string& s) { value(s.c_str()); }
  void value(bool b) { sep(); std::fputs(b ? "true" : "false", f_); }
  void value(double v) { sep(); std::fprintf(f_, "%.9g", v); }
  void value(std::uint64_t v) {
    sep();
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(v));
  }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void value(int v) { sep(); std::fprintf(f_, "%d", v); }

  template <class T>
  void kv(const char* k, T v) {
    key(k);
    value(v);
  }

 private:
  void push() { first_.push_back(true); }
  void pop() {
    if (!first_.empty()) first_.pop_back();
  }
  void sep() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) std::fputc(',', f_);
      first_.back() = false;
    }
  }
  void write_string(const char* s) {
    std::fputc('"', f_);
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\') {
        std::fputc('\\', f_);
        std::fputc(c, f_);
      } else if (c < 0x20) {
        std::fprintf(f_, "\\u%04x", c);
      } else {
        std::fputc(c, f_);
      }
    }
    std::fputc('"', f_);
  }

  std::FILE* f_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// ---------------------------------------------------------------------------
// Shared telemetry JSON schema
// ---------------------------------------------------------------------------
//
// Every bench that serializes run telemetry goes through this one
// writer so BENCH_*.json files share a single schema:
//
//   "telemetry": {
//     "enabled": true, "threads": N,
//     "phases": [ { "phase": "init"|"scatter"|"gather"|"io_wait",
//                   "invocations": .., "barrier_crossings": ..,
//                   "wall_sum_seconds": .., "wall_max_seconds": ..,
//                   "wall_min_seconds": .., "imbalance": ..,
//                   "barrier_sum_seconds": .., "barrier_max_seconds": ..,
//                   "messages_produced": .., "messages_consumed": ..,
//                   "bytes_produced": .., "bytes_consumed": ..,
//                   "region_seconds": .., "sim_local_accesses": ..,
//                   "sim_remote_accesses": .. }, x4 ],
//     "iterations_recorded": I,
//     "total_wall_seconds": .., "total_barrier_seconds": ..,
//     "total_messages_produced": .., "total_messages_consumed": ..,
//     "hw": { "available": bool, "threads": N, "event_mask": M,
//             "errno": E, "events": ["cycles", ...] }
//   }
//
// Each phase entry additionally carries the per-phase hardware counter
// aggregates (hw_cycles, hw_instructions, hw_llc_loads,
// hw_llc_load_misses, hw_node_loads, hw_node_load_misses,
// hw_multiplex_ratio) — all zero when hw.available is false, scaled
// for multiplexing consult hw_multiplex_ratio.

/// Emit `telemetry` (or a custom key) as one object in the shared
/// schema above. Call with the writer positioned inside an object.
inline void emit_telemetry(JsonWriter& jw, const runtime::RunTelemetry& t,
                           const char* key = "telemetry") {
  jw.key(key);
  jw.begin_object();
  jw.kv("enabled", t.enabled);
  jw.kv("threads", t.threads);
  jw.key("phases");
  jw.begin_array();
  for (unsigned pi = 0; pi < runtime::kNumPhases; ++pi) {
    const auto ph = static_cast<runtime::Phase>(pi);
    const runtime::PhaseAggregate& a = t[ph];
    jw.begin_object();
    jw.kv("phase", std::string(runtime::phase_name(ph)));
    jw.kv("invocations", a.invocations);
    jw.kv("barrier_crossings", a.barrier_crossings);
    jw.kv("participating_threads", a.participating_threads);
    jw.kv("wall_sum_seconds", a.wall_sum_seconds);
    jw.kv("wall_max_seconds", a.wall_max_seconds);
    jw.kv("wall_min_seconds", a.wall_min_seconds);
    jw.kv("imbalance", a.imbalance());
    jw.kv("barrier_sum_seconds", a.barrier_sum_seconds);
    jw.kv("barrier_max_seconds", a.barrier_max_seconds);
    jw.kv("messages_produced", a.messages_produced);
    jw.kv("messages_consumed", a.messages_consumed);
    jw.kv("bytes_produced", a.bytes_produced);
    jw.kv("bytes_consumed", a.bytes_consumed);
    jw.kv("region_seconds", a.region_seconds);
    jw.kv("sim_local_accesses", a.sim_local_accesses);
    jw.kv("sim_remote_accesses", a.sim_remote_accesses);
    jw.kv("hw_cycles", a.hw.cycles);
    jw.kv("hw_instructions", a.hw.instructions);
    jw.kv("hw_llc_loads", a.hw.llc_loads);
    jw.kv("hw_llc_load_misses", a.hw.llc_load_misses);
    jw.kv("hw_node_loads", a.hw.node_loads);
    jw.kv("hw_node_load_misses", a.hw.node_load_misses);
    jw.kv("hw_multiplex_ratio", a.hw.multiplex_ratio());
    jw.end_object();
  }
  jw.end_array();
  jw.kv("iterations_recorded",
        static_cast<std::uint64_t>(t.iteration_seconds.size()));
  jw.kv("total_wall_seconds", t.total_wall_seconds());
  jw.kv("total_barrier_seconds", t.total_barrier_seconds());
  jw.kv("total_messages_produced", t.total_messages_produced());
  jw.kv("total_messages_consumed", t.total_messages_consumed());
  jw.key("hw");
  jw.begin_object();
  jw.kv("available", t.hw_available);
  jw.kv("threads", t.hw_threads);
  jw.kv("event_mask", static_cast<std::uint64_t>(t.hw_event_mask));
  jw.kv("errno", t.hw_errno);
  jw.key("events");
  jw.begin_array();
  for (unsigned e = 0; e < runtime::kNumHwEvents; ++e) {
    if ((t.hw_event_mask & (1u << e)) != 0) {
      jw.value(runtime::hw_event_name(e));
    }
  }
  jw.end_array();
  jw.end_object();
  jw.end_object();
}

/// Emit a RunReport's NUMA placement audit (or a custom key) as one
/// object. Call with the writer positioned inside an object. Emitted
/// even when unavailable (available=false, empty buffers) so the
/// schema checker can assert the key's presence unconditionally.
inline void emit_placement_audit(JsonWriter& jw,
                                 const numa::PlacementAudit& a,
                                 const char* key = "placement_audit") {
  jw.key(key);
  jw.begin_object();
  jw.kv("available", a.available);
  jw.kv("source", a.source);
  jw.kv("page_granular", a.page_granular);
  jw.kv("min_fraction", a.min_fraction());
  jw.key("buffers");
  jw.begin_array();
  for (const numa::BufferAudit& b : a.buffers) {
    jw.begin_object();
    jw.kv("name", b.name);
    jw.kv("intended_node", b.intended_node);
    jw.kv("pages_total", b.pages_total);
    jw.kv("pages_on_node", b.pages_on_node);
    jw.kv("pages_elsewhere", b.pages_elsewhere);
    jw.kv("pages_unmapped", b.pages_unmapped);
    jw.kv("fraction_on_node", b.fraction_on_node());
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
}

}  // namespace hipa::bench
