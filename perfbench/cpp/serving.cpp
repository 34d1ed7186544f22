#include "serving.hpp"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<bool> g_own_cpu_on{false};
std::atomic<std::uint64_t> g_own_cpu_ns{0};

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double own_cpu_seconds() { return 1e-9 * double(g_own_cpu_ns.load()); }

}  // namespace

OwnCpu::OwnCpu() {
  if (g_own_cpu_on.load(std::memory_order_relaxed)) {
    start_ = thread_cpu_seconds();
  }
}

OwnCpu::~OwnCpu() {
  if (start_ < 0.0) return;
  g_own_cpu_ns.fetch_add(
      static_cast<std::uint64_t>(1e9 * (thread_cpu_seconds() - start_)));
}

using hipa::rank_t;
using hipa::vid_t;
using hipa::VertexRange;
using hipa::serve::Query;
using hipa::serve::QueryKind;
using hipa::serve::QueryResult;
using hipa::serve::TopKEntry;

Query make_query(const Mix& mix, std::uint64_t seed, std::uint64_t i,
                 vid_t n) {
  const std::uint64_t h = mix64(seed ^ mix64(i));
  const unsigned pick = static_cast<unsigned>(h % 100);
  if (pick < mix.point) return Query::point(static_cast<vid_t>(mix64(h) % n));
  if (pick < mix.point + mix.batch) {
    std::vector<vid_t> vs(kBatchSize);
    for (unsigned j = 0; j < kBatchSize; ++j) {
      vs[j] = static_cast<vid_t>(mix64(h + j + 1) % n);
    }
    return Query::batch(std::move(vs));
  }
  if (pick < mix.point + mix.batch + mix.global_topk) {
    return Query::top_k(kTopK);
  }
  const vid_t span = std::max<vid_t>(1, n / 64);
  const vid_t begin = static_cast<vid_t>(mix64(h + 99) % (n - span + 1));
  return Query::top_k(kTopK, VertexRange{begin, begin + span});
}

std::vector<TopKEntry> own_top_k(std::span<const rank_t> ranks,
                                 VertexRange range, unsigned k) {
  std::vector<TopKEntry> all;
  all.reserve(range.size());
  for (vid_t v = range.begin; v < range.end; ++v) all.push_back({v, ranks[v]});
  const auto stronger = [](const TopKEntry& a, const TopKEntry& b) {
    return a.rank != b.rank ? a.rank > b.rank : a.vertex < b.vertex;
  };
  const std::size_t take = std::min<std::size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(), stronger);
  all.resize(take);
  return all;
}

bool answer_matches(const Query& q, const QueryResult& r,
                    std::span<const rank_t> ranks,
                    std::span<const TopKEntry> global_top) {
  switch (q.kind) {
    case QueryKind::kPoint:
      return r.ranks.size() == 1 &&
             same_bits<rank_t>(r.ranks, ranks.subspan(q.vertex, 1));
    case QueryKind::kBatch: {
      if (r.ranks.size() != q.vertices.size()) return false;
      for (std::size_t j = 0; j < q.vertices.size(); ++j) {
        if (!same_bits<rank_t>(std::span(r.ranks).subspan(j, 1),
                               ranks.subspan(q.vertices[j], 1))) {
          return false;
        }
      }
      return true;
    }
    case QueryKind::kTopK:
      if (q.topk.global()) {
        return same_bits<TopKEntry>(
            r.topk, global_top.first(std::min<std::size_t>(
                        q.topk.k, global_top.size())));
      }
      return same_bits<TopKEntry>(r.topk,
                                  own_top_k(ranks, q.topk.range, q.topk.k));
  }
  return false;
}

std::size_t max_phase_requests(Rates rates, double lo_seconds,
                               double hi_seconds, double busy_seconds) {
  const double most = std::max({rates.lo * lo_seconds, rates.hi * hi_seconds,
                                rates.hi / 0.6 * busy_seconds});
  return static_cast<std::size_t>(most * 1.2) + 1024;
}

Rounds interleaved_rounds(OpenLoop& loop, Rates rates, double lo_seconds,
                          double hi_seconds, double capacity_requests,
                          unsigned rounds, std::uint64_t seed,
                          std::uint64_t& phase_seed, double limit_us,
                          const BatchCall& call,
                          const std::vector<pid_t>& children) {
  std::vector<PhaseStats> lo, hi;
  std::vector<double> capacity, cpu_us;
  for (unsigned r = 0; r < rounds; ++r) {
    phase_seed = stream_seed(seed, 0x100 + r);
    lo.push_back(loop.run(rates.lo, lo_seconds / rounds, phase_seed,
                          limit_us, call));
    phase_seed = stream_seed(seed, 0x200 + r);
    hi.push_back(loop.run(rates.hi, hi_seconds / rounds, phase_seed,
                          limit_us, call));
    phase_seed = stream_seed(seed, 0x300 + r);
    const std::uint64_t count = std::uint64_t(capacity_requests / rounds);
    g_own_cpu_on.store(true);
    const double cpu0 = cpu_seconds(children) - own_cpu_seconds();
    capacity.push_back(loop.saturated_rate(count, phase_seed, call));
    const double cpu1 = cpu_seconds(children) - own_cpu_seconds();
    g_own_cpu_on.store(false);
    cpu_us.push_back(1e6 * (cpu1 - cpu0) / double(count));
  }
  return {merge(lo), merge(hi), median(std::move(capacity)),
          median(std::move(cpu_us))};
}

void report_reads(Result& out, const Rounds& rw,
                  const std::vector<PhaseStats>& tried, double max_qps,
                  double limit_us) {
  const PhaseStats& lo = rw.lo;
  const PhaseStats& hi = rw.hi;
  out.set("cpu_us_per_op", rw.cpu_us_per_request, "us");
  out.set("gen.p50_us_lo", lo.p50_us, "us");
  out.set("gen.p99_us_lo", lo.p99_us, "us");
  out.set("gen.p50_us_hi", hi.p50_us, "us");
  out.set("gen.p90_us_hi", hi.p90_us, "us");
  out.set("gen.p99_us_hi", hi.p99_us, "us");
  out.set("gen.topk_p99_us_hi", hi.topk_p99_us, "us");
  out.set("gen.capacity_per_s", rw.capacity, "1/s");
  out.set("gen.lag_us_p99", std::max(lo.lag_p99_us, hi.lag_p99_us), "us");
  out.set("serve.queue_wait_us_p99", hi.queue_wait_p99_us, "us");
  out.set("serve.batch_size", hi.batch_mean, "count");
  char line[256];
  if (!tried.empty()) {
    out.set("gen.max_qps", max_qps, "1/s");
    for (const PhaseStats& st : tried) {
      std::snprintf(line, sizeof line,
                    "  step %9.0f/s: p99 %9.1f us, failed %llu%s -> %s",
                    st.offered_rate, st.p99_us,
                    static_cast<unsigned long long>(st.failed),
                    st.backlog_growing ? ", backlog growing" : "",
                    st.meets(limit_us) ? "meets" : "misses");
      out.notes.push_back(line);
    }
  }
  std::snprintf(line, sizeof line,
                "lo %.0f/s p50 %.1f us p99 %.1f us | hi %.0f/s p50 %.1f us "
                "p99 %.1f us | capacity %.0f/s | max_qps %.0f",
                lo.offered_rate, lo.p50_us, lo.p99_us, hi.offered_rate,
                hi.p50_us, hi.p99_us, rw.capacity, max_qps);
  out.notes.push_back(line);
}

double search_max_rate(OpenLoop& loop, double guess, double limit_us,
                       unsigned steps, double step_seconds,
                       std::uint64_t seed, const BatchCall& call,
                       std::vector<PhaseStats>* tried) {
  // Never offer more than the sample arrays can hold in one step.
  const double ceiling = double(loop.capacity()) / (1.1 * step_seconds);
  double pass = 0.0, fail = 0.0, rate = std::min(guess, ceiling);
  for (unsigned s = 0; s < steps; ++s) {
    const PhaseStats st =
        loop.run(rate, step_seconds, stream_seed(seed, s), limit_us, call);
    tried->push_back(st);
    if (st.meets(limit_us)) {
      pass = std::max(pass, rate);
      if (rate >= ceiling) break;
    } else {
      fail = fail == 0.0 ? rate : std::min(fail, rate);
    }
    if (fail == 0.0) {
      rate = std::min(rate * 1.5, ceiling);
    } else if (pass == 0.0) {
      rate /= 1.5;
    } else {
      rate = std::sqrt(pass * fail);
    }
  }
  return pass;
}

}  // namespace perfbench
