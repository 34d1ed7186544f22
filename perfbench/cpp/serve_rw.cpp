// serve_rw: a RankService over a SnapshotStore, read by an open-loop
// request mix while one writer pushes edge-update bursts through the
// UpdateQueue and publishes them with UpdateRefresher::refresh_now().
//
// Window: reads at the light rate beside the writer, which pushes a
// fixed number of bursts back to back; then, reads only, the light and
// heavy fixed-rate phases and the read path's capacity. Most bursts take
// the delta path (<= small_batch_max updates); every kFullEvery-th is
// large enough to force a full run.
//
// Checking: right after each refresh_now() the writer copies the new
// epoch's ranks from SnapshotStore::current() and computes that epoch's
// global top-k itself. Every answer is compared bitwise against the copy
// of the epoch it carries. A batch whose answers carry different epochs,
// or a sender that sees an epoch older than one it already saw, fails.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/updates.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

using namespace hipa;

constexpr double kLimitUs = 1000.0;  // p99 limit for max_qps
constexpr unsigned kSenders = 2;
constexpr unsigned kBatchCap = 64;
constexpr std::uint64_t kSmallBatchMax = 64;
constexpr unsigned kFullEvery = 3;  // every 3rd burst is a full run
constexpr unsigned kBursts = 2 * kFullEvery;
constexpr std::size_t kMaxEpochs = 1 << 12;

/// The benchmark's own copy of one published epoch.
struct EpochCopy {
  std::vector<rank_t> ranks;
  std::vector<serve::TopKEntry> top;  // own top-kTopK over all vertices
};

struct Service {
  serve::SnapshotStore store;
  serve::UpdateQueue queue;
  serve::UpdateRefresher refresher;
  serve::RankService service;

  Service(vid_t n, const std::vector<Edge>& edges)
      : store(n, store_options()),
        refresher(n, edges, store, queue, refresh_options()),
        service(store, service_options()) {}
  static serve::ServiceOptions service_options() {
    serve::ServiceOptions o;
    o.pin_workers = false;
    return o;
  }

  static serve::StoreOptions store_options() {
    serve::StoreOptions o;
    o.num_nodes = 1;
    return o;
  }
  static serve::RefreshOptions refresh_options() {
    serve::RefreshOptions o;
    o.small_batch_max = kSmallBatchMax;
    o.full.threads = 1;  // one writer core; the readers keep the rest
    return o;
  }
};

}  // namespace

void run_serve_rw(const Config& cfg, Result& out) {
  graph::RmatParams rp;
  rp.scale = cfg.tiny ? 12 : 18;
  rp.edge_factor = cfg.tiny ? 8 : 16;
  rp.seed = cfg.seed;
  const vid_t n = vid_t{1} << rp.scale;
  const Mix mix;
  out.param("generator", "rmat");
  out.param("rmat.scale", rp.scale);
  out.param("rmat.edge_factor", rp.edge_factor);
  out.param("mix", "point 70 / batch(16) 20 / global top-10 8 / range top-10 2");
  out.param("rate_lo", cfg.serve_rates.lo);
  out.param("rate_hi", cfg.serve_rates.hi);
  out.param("senders", kSenders);
  out.param("limit_us", kLimitUs);

  std::vector<Edge> edges;
  {
    ScopedSpan span("gen.rmat");
    edges = graph::generate_rmat(rp);
  }
  out.param("edges", double(edges.size()));

  // Set-up: refresher (CSR build), store, service and initial publish.
  std::vector<double> setup_s;
  std::unique_ptr<Service> svc;
  for (unsigned rep = 0; rep < (cfg.tiny ? 2u : 3u); ++rep) {
    svc.reset();
    ScopedSpan span("setup");
    const std::int64_t t0 = now_ns();
    svc = std::make_unique<Service>(n, edges);
    timed("serve.publish_initial", [&] { svc->refresher.publish_initial(); });
    setup_s.push_back(1e-9 * double(now_ns() - t0));
  }
  out.set("setup_s", median(setup_s), "s");

  // ---- epoch copies --------------------------------------------------
  std::vector<std::atomic<const EpochCopy*>> copies(kMaxEpochs);
  std::vector<std::unique_ptr<EpochCopy>> owned;  // writer side
  std::vector<std::atomic<std::int64_t>> first_seen(kMaxEpochs);
  for (auto& f : first_seen) f.store(INT64_MAX);
  auto copy_current = [&](bool flip) {
    serve::SnapshotRef ref = svc->store.current();
    auto c = std::make_unique<EpochCopy>();
    c->ranks.assign(ref->ranks().begin(), ref->ranks().end());
    if (flip) {
      // Self-test: one bit of the reference ranks, on the top vertex.
      const serve::TopKEntry top = own_top_k(c->ranks, {0, n}, 1)[0];
      std::uint32_t bits;
      std::memcpy(&bits, &c->ranks[top.vertex], sizeof bits);
      bits ^= 1u;
      std::memcpy(&c->ranks[top.vertex], &bits, sizeof bits);
    }
    c->top = own_top_k(c->ranks, {0, n}, kTopK);
    const std::uint64_t e = ref->epoch();
    HIPA_CHECK(e < kMaxEpochs, "epoch " << e << " past the copy table");
    copies[e].store(c.get(), std::memory_order_release);
    owned.push_back(std::move(c));
  };
  copy_current(cfg.fault == Fault::kRefBit);

  // ---- readers --------------------------------------------------------
  struct Deferred {
    serve::Query q;
    serve::QueryResult r;
  };
  struct SenderState {
    std::vector<serve::Query> qs;
    std::uint64_t last_epoch = 0;
    std::vector<Deferred> deferred;  // epoch copy not yet stored
    std::uint64_t checked = 0, wrong = 0;
  };
  std::vector<SenderState> senders(kSenders);
  std::atomic<bool> corrupt_once{cfg.fault == Fault::kAnswer};
  std::uint64_t phase_seed = 0;  // set before each phase
  const BatchCall call = [&](unsigned sid, std::uint64_t first,
                             unsigned count, Outcome* outc) {
    SenderState& s = senders[sid];
    {
      OwnCpu own;
      s.qs.clear();
      for (unsigned i = 0; i < count; ++i) {
        s.qs.push_back(make_query(mix, phase_seed, first + i, n));
      }
    }
    std::vector<serve::QueryResult> rs;
    {
      ScopedSpan span("serve.execute_batch");
      rs = svc->service.execute_batch(s.qs);
    }
    OwnCpu own;
    const std::int64_t done = now_ns();
    const std::uint64_t epoch = rs.empty() ? 0 : rs[0].epoch;
    bool batch_ok = rs.size() == count && epoch >= s.last_epoch;
    for (const serve::QueryResult& r : rs) batch_ok &= r.epoch == epoch;
    s.last_epoch = std::max(s.last_epoch, epoch);
    if (epoch < kMaxEpochs) {
      std::int64_t seen = first_seen[epoch].load(std::memory_order_relaxed);
      while (done < seen && !first_seen[epoch].compare_exchange_weak(seen, done)) {
      }
    }
    const EpochCopy* c =
        epoch < kMaxEpochs ? copies[epoch].load(std::memory_order_acquire)
                           : nullptr;
    for (unsigned i = 0; i < count; ++i) {
      outc[i].topk = s.qs[i].kind == serve::QueryKind::kTopK &&
                     s.qs[i].topk.global();
      if (!batch_ok || i >= rs.size()) continue;
      if (rs[i].ranks.size() == 1 && corrupt_once.exchange(false)) {
        rs[i].ranks[0] = std::nextafter(rs[i].ranks[0], 1.0f);
      }
      if (c == nullptr) {
        s.deferred.push_back({s.qs[i], rs[i]});
        outc[i].ok = true;  // judged after the window
        continue;
      }
      outc[i].ok = answer_matches(s.qs[i], rs[i], c->ranks, c->top);
    }
    for (unsigned i = 0; i < count; ++i) {
      ++s.checked;
      if (!outc[i].ok) ++s.wrong;
    }
  };

  // ---- writer ---------------------------------------------------------
  struct Burst {
    std::int64_t pushed_ns = 0;
    std::uint64_t epoch = 0;
    bool full = false;
    double refresh_s = 0.0;
  };
  std::vector<Burst> bursts;
  std::atomic<bool> writer_done{false};
  // Bursts go back to back: a refresh rebuilds the whole CSR, so it
  // takes longer than any useful cadence, and a busy writer is the
  // steadiest load to read beside. A fixed count keeps the updates a
  // pure function of the seed.
  auto writer = [&] {
    for (std::uint64_t b = 0; b < kBursts; ++b) {
      const std::uint64_t h = stream_seed(cfg.seed, 0x10000 + b);
      const bool full = b % kFullEvery == kFullEvery - 1;
      const std::uint64_t size =
          full ? 4 * kSmallBatchMax : 1 + h % kSmallBatchMax;
      Burst burst;
      burst.full = full;
      burst.pushed_ns = now_ns();
      for (std::uint64_t j = 0; j < size; ++j) {
        const std::uint64_t r = mix64(h + j);
        if (r % 10 == 0) {  // one in ten removes an original edge
          svc->queue.push_remove(edges[mix64(r) % edges.size()]);
        } else {
          svc->queue.push_add(Edge{static_cast<vid_t>(r % n),
                                   static_cast<vid_t>((r >> 32) % n)});
        }
      }
      serve::RefreshReport rep;
      burst.refresh_s = timed("serve.refresh_now",
                              [&] { rep = svc->refresher.refresh_now(); });
      HIPA_CHECK(rep.full_run == full, "burst took the unexpected path");
      burst.epoch = rep.epoch;
      copy_current(false);
      bursts.push_back(burst);
    }
    writer_done.store(true);
  };

  // ---- window -----------------------------------------------------------
  // Reads under writes at the light rate; then, with the writer stopped,
  // the light and heavy rates and the read path's capacity (full batches
  // back to back). A refresh stalls readers for milliseconds at a time,
  // so the end-to-end latencies come from the read-only phases and the
  // cost of writes shows in gen.*_writes. A traced run also searches the
  // highest rate that meets the p99 limit.
  const double S = cfg.seconds;
  const double expected_max = cfg.serve_rates.hi / 0.6;
  const unsigned steps = cfg.tiny ? 3 : 8;
  const double search_s = 0.35 * S;
  const double saturate_s = 0.3 * S;
  OpenLoop loop(
      max_phase_requests(cfg.serve_rates, 0.1 * S, 0.2 * S,
                         std::max(saturate_s, 2 * search_s / steps)),
      kSenders, kBatchCap);
  auto phase = [&](double rate, double secs, std::uint64_t salt) {
    phase_seed = stream_seed(cfg.seed, salt);
    return loop.run(rate, secs, phase_seed, kLimitUs, call);
  };
  std::optional<PhaseStats> untraced_lo, traced_lo;
  if (cfg.trace) {
    // The light phase without writes, with spans off and on: the
    // difference is the tracing cost.
    Tracer::get().pause(true);
    untraced_lo = phase(cfg.serve_rates.lo, 0.1 * S, 0x10);
    Tracer::get().pause(false);
    traced_lo = phase(cfg.serve_rates.lo, 0.1 * S, 0x10);
  }
  const std::uint64_t rss_start = rss_bytes();
  RssSampler rss;
  std::thread writer_thread(writer);
  // Light-rate reads in short phases until the last burst is published.
  std::vector<PhaseStats> write_parts;
  do {
    write_parts.push_back(phase(cfg.serve_rates.lo, 0.05 * S,
                                0x1000 + write_parts.size()));
  } while (!writer_done.load());
  writer_thread.join();
  const PhaseStats writes = merge(write_parts);
  const Rounds rw = interleaved_rounds(loop, cfg.serve_rates, 0.1 * S,
                                      0.2 * S, saturate_s * expected_max,
                                      cfg.tiny ? 2 : 4, cfg.seed, phase_seed,
                                      kLimitUs, call, {});
  const PhaseStats& hi = rw.hi;
  phase_seed = stream_seed(cfg.seed, 0x50);
  std::vector<PhaseStats> tried;
  double max_qps = 0.0;
  if (cfg.trace) {
    max_qps = search_max_rate(loop, expected_max, kLimitUs, steps,
                              search_s / steps, phase_seed, call, &tried);
  }
  const std::uint64_t rss_end = rss_bytes();
  const std::uint64_t rss_peak = rss.stop();
  serve::RankService::Stats stats;
  const double stats_s =
      timed("serve.stats", [&] { stats = svc->service.stats(); });

  // Answers whose epoch copy was not stored yet when they arrived.
  for (SenderState& s : senders) {
    for (const Deferred& d : s.deferred) {
      const EpochCopy* c = copies[d.r.epoch].load();
      const bool ok =
          c != nullptr && answer_matches(d.q, d.r, c->ranks, c->top);
      if (!ok) ++s.wrong;
    }
    out.attempted += s.checked;
    out.failed += s.wrong;
  }

  // Freshness: push of a burst to the first answer carrying its epoch.
  std::vector<double> visible_ms, delta_ms, full_s;
  for (const Burst& b : bursts) {
    (b.full ? full_s : delta_ms)
        .push_back(b.full ? b.refresh_s : 1e3 * b.refresh_s);
    const std::int64_t seen = first_seen[b.epoch].load();
    if (seen != INT64_MAX) {
      visible_ms.push_back(1e-6 * double(seen - b.pushed_ns));
    }
  }

  report_reads(out, rw, tried, max_qps, kLimitUs);
  out.set("peak_rss_mb", mib(rss_peak), "MiB");
  out.set("gen.p50_us_writes", writes.p50_us, "us");
  out.set("gen.p99_us_writes", writes.p99_us, "us");
  out.set("gen.lag_us_p99",
          std::max({writes.lag_p99_us, rw.lo.lag_p99_us, rw.hi.lag_p99_us}),
          "us");
  out.set("serve.call_us_p50", hi.call_p50_us, "us");
  out.set("serve.call_us_p99", hi.call_p99_us, "us");
  out.set("serve.refresh_delta_ms", median(delta_ms), "ms");
  out.set("serve.refresh_full_s", median(full_s), "s");
  // The service's PageRank republish: mean refresh_now() wall time per
  // burst of the fixed delta/full mix, so both paths move it.
  out.set("pr_run_s",
          (double(kFullEvery - 1) * 1e-3 * median(delta_ms) + median(full_s)) /
              kFullEvery,
          "s");
  out.set("serve.refresh_visible_ms_p50", median(visible_ms), "ms");
  out.set("serve.stats_call_ms", 1e3 * stats_s, "ms");
  out.set("serve.rss_growth_mb",
          mib(rss_end) - mib(rss_start), "MiB");
  if (untraced_lo) {
    out.set("trace.overhead_ms",
            1e-3 * (traced_lo->p50_us - untraced_lo->p50_us),
            "ms");
  }
  out.param("bursts", double(bursts.size()));
  out.param("requests_served", double(stats.requests));
  if (cfg.trace) {
    // The layers a full refresh runs, probed on this workload's graph
    // with the refresher's build options and thread count.
    std::optional<graph::Graph> g;
    out.set("graph.build_s", timed("graph.build_graph", [&] {
              g = graph::build_graph(n, edges,
                                     Service::refresh_options().build);
            }), "s");
    probe_partition_and_bins(*g, 1, out);
    probe_incore_engine(*g, 1, out);
  }
}

}  // namespace perfbench
