// Metrics-plane tests: log-linear bucket math, lock-free sharded
// counters/histograms under concurrent hammering (exact totals),
// quantile correctness on known distributions, snapshot consistency
// under racing writers, Prometheus/JSON exposition golden formats, the
// HTTP scrape endpoint on an ephemeral port, the engine-run fold
// bridge, and the registry-off path's byte-identical behavior. The
// concurrency suites carry the tsan label.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/minijson.hpp"
#include "engines/metrics_bridge.hpp"
#include "runtime/metrics.hpp"
#include "serve/metrics_export.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"

namespace hipa::runtime::metrics {
namespace {

// ---------------------------------------------------------------------------
// Bucket scheme
// ---------------------------------------------------------------------------

TEST(MetricsBuckets, SmallValuesExact) {
  for (std::uint64_t v = 0; v < kSubBuckets; ++v) {
    EXPECT_EQ(bucket_of(v), v);
    EXPECT_EQ(bucket_lower(static_cast<unsigned>(v)), v);
    EXPECT_EQ(bucket_width(static_cast<unsigned>(v)), 1u);
  }
}

TEST(MetricsBuckets, LowerBoundsRoundTrip) {
  for (unsigned b = 0; b < kNumBuckets; ++b) {
    const std::uint64_t lo = bucket_lower(b);
    EXPECT_EQ(bucket_of(lo), b) << "lower bound of bucket " << b;
    // The last value of the bucket still maps into it.
    EXPECT_EQ(bucket_of(lo + bucket_width(b) - 1), b);
  }
}

TEST(MetricsBuckets, MonotoneAndContiguous) {
  for (unsigned b = 0; b + 1 < kNumBuckets; ++b) {
    EXPECT_EQ(bucket_lower(b) + bucket_width(b), bucket_lower(b + 1));
  }
}

TEST(MetricsBuckets, RelativeWidthBounded) {
  for (unsigned b = kSubBuckets; b < kNumBuckets; ++b) {
    const double rel = static_cast<double>(bucket_width(b)) /
                       static_cast<double>(bucket_lower(b));
    EXPECT_LE(rel, 1.0 / kSubBuckets + 1e-12) << "bucket " << b;
  }
}

TEST(MetricsBuckets, OverflowClampsToLastBucket) {
  EXPECT_EQ(bucket_of(std::uint64_t{1} << kMaxExp), kNumBuckets - 1);
  EXPECT_EQ(bucket_of(~std::uint64_t{0}), kNumBuckets - 1);
}

// ---------------------------------------------------------------------------
// Counters / gauges / registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterExactTotalsUnderConcurrency) {
  MetricsRegistry reg;
  const Counter c = reg.counter("test_events_total", "events");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("test_events_total"), nullptr);
  EXPECT_EQ(snap.find_counter("test_events_total")->value,
            kThreads * kPerThread);
}

TEST(MetricsRegistryTest, RegistrationDedupes) {
  MetricsRegistry reg;
  const Counter a = reg.counter("dup_total", "x", {"class", "point"});
  const Counter b = reg.counter("dup_total", "x", {"class", "point"});
  const Counter other = reg.counter("dup_total", "x", {"class", "batch"});
  a.inc(3);
  b.inc(4);
  other.inc(10);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find_counter("dup_total", "point")->value, 7u);
  EXPECT_EQ(snap.find_counter("dup_total", "batch")->value, 10u);
  EXPECT_EQ(reg.num_metrics(), 2u);
}

TEST(MetricsRegistryTest, NameMayNotStraddleKinds) {
  MetricsRegistry reg;
  (void)reg.counter("taken", "x");
  EXPECT_THROW((void)reg.gauge("taken", "x"), hipa::Error);
  EXPECT_THROW((void)reg.histogram("taken", "x"), hipa::Error);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  const Gauge g = reg.gauge("depth", "queue depth");
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-40);
  EXPECT_EQ(reg.snapshot().find_gauge("depth")->value, 2);
}

TEST(MetricsRegistryTest, NullHandlesAreNoOps) {
  const Counter c;
  const Gauge g;
  const Histogram h;
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(g.enabled());
  EXPECT_FALSE(h.enabled());
  c.inc();
  g.set(7);
  h.record(123);  // must not crash; nothing recorded anywhere
  EXPECT_EQ(g.value(), 0);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST(MetricsHistogram, ExactCountAndSumUnderConcurrency) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("lat_ns", "latency");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(t + 1);  // thread t records value t+1
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot ms = reg.snapshot();
  const HistogramSnapshot* snap = ms.find_histogram("lat_ns");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, kThreads * kPerThread);
  std::uint64_t expect_sum = 0;
  for (unsigned t = 0; t < kThreads; ++t) expect_sum += (t + 1) * kPerThread;
  EXPECT_DOUBLE_EQ(snap->sum, static_cast<double>(expect_sum));
}

TEST(MetricsHistogram, QuantilesOnKnownDistribution) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("uniform", "u");
  // Uniform 1..10000: exact nearest-rank percentiles are 5000 / 9500 /
  // 9900 / 9990; the log-linear estimate must land within one bucket
  // (relative error <= 1/kSubBuckets, plus half-bucket midpointing).
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  const MetricsSnapshot ms = reg.snapshot();
  const HistogramSnapshot* s = ms.find_histogram("uniform");
  ASSERT_NE(s, nullptr);
  const double tol = 1.0 / kSubBuckets;
  EXPECT_NEAR(s->p50, 5000.0, 5000.0 * tol);
  EXPECT_NEAR(s->p95, 9500.0, 9500.0 * tol);
  EXPECT_NEAR(s->p99, 9900.0, 9900.0 * tol);
  EXPECT_NEAR(s->p999, 9990.0, 9990.0 * tol);
  EXPECT_GE(s->max, 10000.0);
}

TEST(MetricsHistogram, SmallExactValuesGiveExactQuantiles) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("tiny", "t");
  for (int i = 0; i < 90; ++i) h.record(3);
  for (int i = 0; i < 10; ++i) h.record(9);
  const MetricsSnapshot ms = reg.snapshot();
  const HistogramSnapshot* s = ms.find_histogram("tiny");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->p50, 3.0);
  EXPECT_DOUBLE_EQ(s->p99, 9.0);
  EXPECT_DOUBLE_EQ(s->max, 9.0);
}

TEST(MetricsHistogram, SnapshotConsistentUnderConcurrentWriters) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("busy", "b");
  const Counter c = reg.counter("busy_total", "b");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      std::uint64_t v = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        h.record(v % 1000 + 1);
        c.inc();
        ++v;
      }
    });
  }
  // Counters and histogram counts are monotone per shard, so every
  // snapshot taken mid-hammer must be internally sane and
  // non-decreasing vs the previous one.
  std::uint64_t last_count = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = reg.snapshot();
    const HistogramSnapshot* s = snap.find_histogram("busy");
    ASSERT_NE(s, nullptr);
    EXPECT_GE(s->count, last_count);
    last_count = s->count;
    if (s->count > 0) {
      EXPECT_GE(s->p50, 1.0);
      EXPECT_LE(s->p50, s->max);
      EXPECT_LE(s->p95, s->max);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  const MetricsSnapshot fin = reg.snapshot();
  EXPECT_EQ(fin.find_histogram("busy")->count,
            fin.find_counter("busy_total")->value);
}

}  // namespace
}  // namespace hipa::runtime::metrics

namespace hipa::serve {
namespace {

namespace m = runtime::metrics;

// ---------------------------------------------------------------------------
// Exposition formats
// ---------------------------------------------------------------------------

TEST(MetricsExport, PrometheusGoldenFormat) {
  m::MetricsRegistry reg;
  reg.counter("hipa_queries_total", "Queries answered by class",
              {"class", "point"})
      .inc(5);
  reg.gauge("hipa_snapshot_epoch", "Epoch of the live snapshot").set(3);
  const m::Histogram h = reg.histogram(
      "hipa_query_latency_seconds", "Per-request latency by class",
      {"class", "point"}, 1e-9);
  for (int i = 0; i < 100; ++i) h.record(1000);  // 1us, exact bucket lower

  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# HELP hipa_queries_total Queries answered by class\n"
                      "# TYPE hipa_queries_total counter\n"
                      "hipa_queries_total{class=\"point\"} 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE hipa_snapshot_epoch gauge\n"
                      "hipa_snapshot_epoch 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hipa_query_latency_seconds summary\n"),
            std::string::npos);
  // 1000 ns scaled to seconds; quantile of a one-bucket distribution
  // is the (midpointed) bucket value, within one bucket width of 1us.
  EXPECT_NE(
      text.find("hipa_query_latency_seconds{class=\"point\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(text.find("hipa_query_latency_seconds_count{class=\"point\"} 100"),
            std::string::npos);
  EXPECT_NE(text.find("hipa_query_latency_seconds_sum{class=\"point\"} "
                      "0.0001"),
            std::string::npos);
  // Families appear exactly once.
  EXPECT_EQ(text.find("# TYPE hipa_queries_total counter"),
            text.rfind("# TYPE hipa_queries_total counter"));
}

TEST(MetricsExport, PrometheusGroupsInterleavedFamilies) {
  m::MetricsRegistry reg;
  reg.counter("a_total", "a", {"k", "1"}).inc();
  reg.counter("b_total", "b").inc();
  reg.counter("a_total", "a", {"k", "2"}).inc();
  const std::string text = to_prometheus(reg.snapshot());
  // Both a_total samples follow one HELP/TYPE header.
  const std::size_t header = text.find("# TYPE a_total counter\n");
  ASSERT_NE(header, std::string::npos);
  const std::size_t s1 = text.find("a_total{k=\"1\"} 1");
  const std::size_t s2 = text.find("a_total{k=\"2\"} 1");
  const std::size_t other = text.find("# TYPE b_total counter\n");
  ASSERT_NE(s1, std::string::npos);
  ASSERT_NE(s2, std::string::npos);
  EXPECT_TRUE((s1 < other && s2 < other) || (s1 > other && s2 > other))
      << text;
}

TEST(MetricsExport, JsonParsesAndMatches) {
  m::MetricsRegistry reg;
  reg.counter("c_total", "c").inc(7);
  reg.gauge("g", "g").set(-3);
  const m::Histogram h = reg.histogram("h_ns", "h");
  h.record(5);
  h.record(5);

  json::Parser parser(to_json(reg.snapshot()));
  const json::ValuePtr root = parser.parse();
  ASSERT_TRUE(root->is(json::Value::Type::kObject));
  const json::Value* counters = root->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->array.size(), 1u);
  EXPECT_EQ(counters->array[0]->find("name")->str, "c_total");
  EXPECT_DOUBLE_EQ(counters->array[0]->find("value")->number, 7.0);
  EXPECT_DOUBLE_EQ(root->find("gauges")->array[0]->find("value")->number,
                   -3.0);
  const json::Value* hist = root->find("histograms")->array[0].get();
  EXPECT_DOUBLE_EQ(hist->find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(hist->find("p50")->number, 5.0);
}

// ---------------------------------------------------------------------------
// HTTP endpoint
// ---------------------------------------------------------------------------

std::string http_request(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
      0);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_GT(::send(fd, req.data(), req.size(), MSG_NOSIGNAL), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttp, ScrapeSmokeOnEphemeralPort) {
  m::MetricsRegistry reg;
  reg.counter("smoke_total", "s").inc(9);
  MetricsHttpServer server(reg, /*port=*/0);
  ASSERT_GT(server.port(), 0);
  ASSERT_TRUE(server.running());

  const std::string prom = http_request(server.port(), "/metrics");
  EXPECT_NE(prom.find("200 OK"), std::string::npos);
  EXPECT_NE(prom.find("smoke_total 9"), std::string::npos);

  const std::string json_resp = http_request(server.port(), "/metrics.json");
  EXPECT_NE(json_resp.find("application/json"), std::string::npos);
  EXPECT_NE(json_resp.find("\"smoke_total\""), std::string::npos);

  const std::string missing = http_request(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_EQ(server.scrapes(), 2u);
  server.stop();
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// Engine-run fold bridge
// ---------------------------------------------------------------------------

TEST(MetricsBridge, FoldsRunReportTotals) {
  m::MetricsRegistry reg;
  engine::RunReport report;
  report.seconds = 2.0;
  report.iterations = 20;
  report.telemetry.enabled = true;
  report.telemetry[runtime::Phase::kScatter].wall_sum_seconds = 1.5;
  report.telemetry[runtime::Phase::kScatter].messages_produced = 1234;
  report.telemetry.refresh_totals();

  engine::fold_run_metrics(reg, report);
  engine::fold_run_metrics(reg, report);  // lifetime counters accumulate

  const m::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find_counter("hipa_engine_runs_total")->value, 2u);
  EXPECT_EQ(snap.find_counter("hipa_engine_iterations_total")->value, 40u);
  EXPECT_EQ(snap.find_counter("hipa_engine_run_ns_total")->value,
            4000000000u);
  EXPECT_EQ(snap.find_counter("hipa_engine_messages_produced_total")->value,
            2468u);
  EXPECT_EQ(snap.find_counter("hipa_engine_phase_ns_total", "scatter")->value,
            3000000000u);

  engine::OocoreStats oocore;
  oocore.io_wait_seconds = 0.25;
  oocore.bytes_fetched = 4096;
  engine::fold_run_metrics(reg, report, &oocore);
  const m::MetricsSnapshot snap2 = reg.snapshot();
  EXPECT_EQ(snap2.find_counter("hipa_engine_io_wait_ns_total")->value,
            250000000u);
  EXPECT_EQ(snap2.find_counter("hipa_engine_io_bytes_fetched_total")->value,
            4096u);
}

// ---------------------------------------------------------------------------
// Registry-off path: byte-identical serving behavior
// ---------------------------------------------------------------------------

TEST(MetricsOffPath, ServeResultsByteIdentical) {
  const vid_t n = 4096;
  std::vector<rank_t> ranks(n);
  for (vid_t v = 0; v < n; ++v) {
    ranks[v] = static_cast<rank_t>((v * 2654435761u) % 10007u);
  }

  m::MetricsRegistry reg;  // private, so global state stays untouched
  StoreOptions on_opt{
      .num_nodes = 2, .node_ranges = {}, .metrics = true, .registry = &reg};
  StoreOptions off_opt{.num_nodes = 2, .node_ranges = {}, .metrics = false};
  SnapshotStore store_on(n, on_opt);
  SnapshotStore store_off(n, off_opt);
  store_on.publish(std::span<const rank_t>(ranks));
  store_off.publish(std::span<const rank_t>(ranks));

  ServiceOptions svc_on{.pin_workers = false, .metrics = true,
                        .registry = &reg};
  ServiceOptions svc_off{.pin_workers = false, .metrics = false};
  RankService on(store_on, svc_on);
  RankService off(store_off, svc_off);

  std::vector<Query> queries;
  queries.push_back(Query::point(17));
  queries.push_back(Query::batch({1, 100, 4000}));
  queries.push_back(Query::top_k(8));
  queries.push_back(Query::top_k(5, VertexRange{100, 3000}));

  const std::vector<QueryResult> a = on.execute_batch(queries);
  const std::vector<QueryResult> b = off.execute_batch(queries);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ranks.size(), b[i].ranks.size());
    EXPECT_EQ(std::memcmp(a[i].ranks.data(), b[i].ranks.data(),
                          a[i].ranks.size() * sizeof(rank_t)),
              0);
    ASSERT_EQ(a[i].topk.size(), b[i].topk.size());
    for (std::size_t j = 0; j < a[i].topk.size(); ++j) {
      EXPECT_EQ(a[i].topk[j].vertex, b[i].topk[j].vertex);
      EXPECT_EQ(a[i].topk[j].rank, b[i].topk[j].rank);
    }
  }

  // The instrumented side recorded; the off side's registry (none)
  // obviously didn't — and the off service exposes no endpoint.
  const m::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find_counter("hipa_queries_total", "point")->value, 1u);
  EXPECT_EQ(snap.find_counter("hipa_queries_total", "topk")->value, 2u);
  EXPECT_EQ(off.metrics_http_port(), -1);
}

TEST(MetricsOffPath, ServiceExposesEndpointWhenConfigured) {
  const vid_t n = 1024;
  std::vector<rank_t> ranks(n, 1.0f);
  m::MetricsRegistry reg;
  StoreOptions sopt{
      .num_nodes = 1, .node_ranges = {}, .metrics = true, .registry = &reg};
  SnapshotStore store(n, sopt);
  store.publish(std::span<const rank_t>(ranks));
  ServiceOptions opt{.pin_workers = false, .metrics = true, .registry = &reg,
                     .metrics_port = 0};
  RankService service(store, opt);
  ASSERT_GT(service.metrics_http_port(), 0);
  (void)service.execute(Query::point(3));
  const std::string scrape =
      http_request(service.metrics_http_port(), "/metrics");
  EXPECT_NE(scrape.find("hipa_queries_total{class=\"point\"} 1"),
            std::string::npos)
      << scrape;
  EXPECT_NE(scrape.find("hipa_query_latency_seconds{class=\"point\","
                        "quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("hipa_snapshot_publishes_total 1"),
            std::string::npos);
}

}  // namespace
}  // namespace hipa::serve
