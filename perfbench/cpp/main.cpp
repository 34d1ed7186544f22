// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload <pr_incore|pr_stream|serve_rw|routed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--fault <none|ref-bit|answer>] [--out-dir <dir>]
//             [--serve-rates <lo>,<hi>] [--routed-rates <lo>,<hi>]
//
// serve_rw needs --serve-rates and routed --routed-rates: the fixed
// offered rates live only in BENCHMARK.json's command.
//
// Prints a human-readable summary, then, as its last stdout line, one
// JSON object: workload, seed, correctness tally, generator parameters
// and every metric it measured with its unit. perfbench/run.py builds
// this binary, adds the host fingerprint and turns that line into the
// benchmark's result line. Exit code 1 when any answer was wrong.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"

namespace {

using perfbench::Config;
using perfbench::Fault;
using perfbench::Rates;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Rates parse_rates(const std::string& v) {
  Rates r;
  if (std::sscanf(v.c_str(), "%lf,%lf", &r.lo, &r.hi) != 2 || r.lo <= 0 ||
      r.hi <= r.lo) {
    usage("bad rates '" + v + "' (want <lo>,<hi> with 0 < lo < hi)");
  }
  return r;
}

using Named = std::vector<std::pair<const char*, const char*>>;  // name, unit

Named operator+(Named a, const Named& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Per-layer metrics by the layer part a workload may leave untouched.
const Named kStreamIo = {{"graph.segment_open_s", "s"},
                         {"graph.segment_read_gbps", "GB/s"},
                         {"engines.io_wait_s", "s"},
                         {"engines.fetch_s", "s"},
                         {"engines.overlap", "ratio"}};
const Named kPartitionPcp = {{"partition.plan_s", "s"},
                             {"partition.edge_imbalance", "ratio"},
                             {"pcp.bins_s", "s"},
                             {"pcp.msgs_per_edge", "ratio"},
                             {"pcp.bin_mb", "MiB"}};
const Named kServeService = {{"serve.call_us_p50", "us"},
                             {"serve.call_us_p99", "us"},
                             {"serve.refresh_delta_ms", "ms"},
                             {"serve.refresh_full_s", "s"},
                             {"serve.refresh_visible_ms_p50", "ms"},
                             {"serve.stats_call_ms", "ms"}};
const Named kServeLoad = {{"serve.queue_wait_us_p99", "us"},
                          {"serve.batch_size", "count"},
                          {"serve.rss_growth_mb", "MiB"}};
const Named kShard = {{"shard.router_call_us_p50", "us"},
                      {"shard.router_call_us_p99", "us"},
                      {"shard.direct_rtt_us", "us"},
                      {"shard.envelopes_per_request", "ratio"},
                      {"shard.fanout", "ratio"}};
const Named kGenWrites = {{"gen.p50_us_writes", "us"},
                          {"gen.p99_us_writes", "us"}};
const Named kGenReads = {{"gen.lag_us_p99", "us"},
                         {"gen.p50_us_lo", "us"},
                         {"gen.p99_us_lo", "us"},
                         {"gen.p50_us_hi", "us"},
                         {"gen.p90_us_hi", "us"},
                         {"gen.p99_us_hi", "us"},
                         {"gen.topk_p99_us_hi", "us"},
                         {"gen.capacity_per_s", "1/s"},
                         {"gen.max_qps", "1/s"}};

/// The per-layer metrics each workload's layers never touch. A traced
/// run reports exactly these as 0, so any other per-layer metric that
/// a traced run leaves out is a defect the self-test catches.
const std::map<std::string, Named> kUntouched = {
    {"pr_incore", kStreamIo + kServeService + kServeLoad + kShard +
                      kGenWrites + kGenReads},
    {"pr_stream", kPartitionPcp + kServeService + kServeLoad + kShard +
                      kGenWrites + kGenReads},
    {"serve_rw", kStreamIo + kShard},
    {"routed", kPartitionPcp + kServeService + kGenWrites},
};

void zero_untouched(const std::string& workload, Result& r) {
  for (const auto& [name, unit] : kUntouched.at(workload)) {
    HIPA_CHECK(r.metrics.count(name) == 0,
               "" << workload << " measured " << name
                  << ", listed as untouched");
    r.set(name, 0.0, unit);
  }
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o.push_back(c);
  }
  return o;
}

void emit(const Config& cfg, const Result& r) {
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"workload\":\"" + cfg.workload +
                     "\",\"seed\":" + std::to_string(cfg.seed) +
                     ",\"trace\":" + (cfg.trace ? "1" : "0") +
                     ",\"tiny\":" + (cfg.tiny ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) +
                     ",\"params\":{";
  bool comma = false;
  for (const auto& [k, v] : r.params) {
    line += std::string(comma ? "," : "") + "\"" + json_escape(k) + "\":\"" +
            json_escape(v) + "\"";
    comma = true;
  }
  line += "},\"metrics\":{";
  comma = false;
  for (const auto& [name, m] : r.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.9g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += std::string(comma ? "," : "") + "\"" + name +
            "\":{\"value\":" + num + ",\"unit\":\"" + m.unit + "\"}";
    comma = true;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--shard-child") == 0) {
    return perfbench::shard_child_main(argc, argv);
  }
  Config cfg;
  cfg.self_exe = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (a == "--trace") {
      cfg.trace = value() == "1";
    } else if (a == "--tiny") {
      cfg.tiny = true;
    } else if (a == "--out-dir") {
      cfg.out_dir = value();
    } else if (a == "--serve-rates") {
      cfg.serve_rates = parse_rates(value());
    } else if (a == "--routed-rates") {
      cfg.routed_rates = parse_rates(value());
    } else if (a == "--fault") {
      const std::string f = value();
      if (f == "none") {
        cfg.fault = Fault::kNone;
      } else if (f == "ref-bit") {
        cfg.fault = Fault::kRefBit;
      } else if (f == "answer") {
        cfg.fault = Fault::kAnswer;
      } else {
        usage("unknown fault '" + f + "'");
      }
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  if (cfg.seconds <= 0) usage("--seconds must be positive");
  if (cfg.workload == "serve_rw" && cfg.serve_rates.hi <= 0) {
    usage("serve_rw needs --serve-rates <lo>,<hi>");
  }
  if (cfg.workload == "routed" && cfg.routed_rates.hi <= 0) {
    usage("routed needs --routed-rates <lo>,<hi>");
  }
  ::mkdir(cfg.out_dir.c_str(), 0755);
  if (cfg.trace) perfbench::Tracer::get().enable();

  Result r;
  try {
    if (cfg.workload == "pr_incore") {
      perfbench::run_pr(cfg, false, r);
    } else if (cfg.workload == "pr_stream") {
      perfbench::run_pr(cfg, true, r);
    } else if (cfg.workload == "serve_rw") {
      perfbench::run_serve_rw(cfg, r);
    } else if (cfg.workload == "routed") {
      perfbench::run_routed(cfg, r);
    } else {
      usage("unknown workload '" + cfg.workload + "'");
    }
    if (cfg.trace) zero_untouched(cfg.workload, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  if (cfg.trace) {
    perfbench::Tracer& t = perfbench::Tracer::get();
    const std::string stem =
        cfg.out_dir + "/" + cfg.workload + "-" + std::to_string(cfg.seed);
    t.write_chrome_trace(stem + ".trace.json");
    const std::string table = t.layer_table();
    if (std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
      std::fputs(table.c_str(), f);
      std::fclose(f);
    }
    std::printf("%s", table.c_str());
    if (t.dropped() > 0) {
      std::printf("(%llu spans dropped past the per-thread cap)\n",
                  static_cast<unsigned long long>(t.dropped()));
    }
  }
  emit(cfg, r);
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
