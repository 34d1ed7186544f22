#include "openloop.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr double kSliceSeconds = 0.05;

std::uint32_t clamp_ns(std::int64_t ns) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, std::int64_t{UINT32_MAX}));
}

double p_us(const std::vector<std::uint32_t>& ns, std::size_t n, double q) {
  std::vector<double> v(ns.begin(), ns.begin() + n);
  return 1e-3 * quantile(std::move(v), q);
}

}  // namespace

OpenLoop::OpenLoop(std::size_t max_requests, unsigned senders,
                   unsigned batch_cap)
    : senders_(senders),
      cap_(batch_cap),
      lat_ns_(max_requests, 1),
      due_us_(max_requests, 1),
      qwait_ns_(max_requests, 1),
      flags_(max_requests, 1),
      call_ns_(max_requests, 1),
      batch_(max_requests, 1),
      lag_ns_(max_requests, 1) {}

PhaseStats OpenLoop::run(double rate, double seconds, std::uint64_t seed,
                         double limit_us, const BatchCall& call) {
  return run_impl(rate, seconds, lat_ns_.size(), seed, limit_us, call);
}

double OpenLoop::saturated_rate(std::uint64_t count, std::uint64_t seed,
                                const BatchCall& call) {
  return run_impl(1e15, 1e9, std::min<std::uint64_t>(count, lat_ns_.size()),
                  seed, 1e12, call)
      .completed_per_s;
}

PhaseStats OpenLoop::run_impl(double rate, double seconds,
                              std::uint64_t max_n, std::uint64_t seed,
                              double limit_us, const BatchCall& call) {
  // Exponential inter-arrival gap before request i.
  auto gap_s = [&](std::uint64_t i) {
    const double u =
        (double(mix64(seed ^ (i * 0x2545f4914f6cdd1dULL)) >> 11) + 0.5) *
        0x1.0p-53;
    return -std::log(u) / rate;
  };
  std::mutex mu;
  std::uint64_t next = 0;           // guarded by mu
  double next_due_s = gap_s(0);     // guarded by mu: due offset of `next`
  bool closed = max_n == 0 || next_due_s >= seconds;  // guarded by mu
  std::atomic<std::uint64_t> calls{0}, lags{0};
  const std::int64_t t0 = now_ns() + 1'000'000;  // 1 ms to start senders
  auto advance = [&] {  // under mu
    ++next;
    next_due_s += gap_s(next);
    if (next >= max_n || next_due_s >= seconds) closed = true;
  };

  auto sender = [&](unsigned id) {
    std::vector<std::int64_t> due;
    std::vector<Outcome> out(cap_);
    due.reserve(cap_);
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      if (closed) return;
      const std::int64_t first_due =
          t0 + static_cast<std::int64_t>(next_due_s * 1e9);
      std::int64_t now = now_ns();
      if (first_due > now) {
        lock.unlock();
        sleep_until_ns(first_due);
        const std::uint64_t l = lags.fetch_add(1);
        if (l < lag_ns_.size()) lag_ns_[l] = clamp_ns(now_ns() - first_due);
        continue;
      }
      const std::uint64_t first = next;
      due.clear();
      while (!closed && due.size() < cap_) {
        const std::int64_t d =
            t0 + static_cast<std::int64_t>(next_due_s * 1e9);
        if (d > now) break;
        due.push_back(d);
        advance();
      }
      lock.unlock();
      const unsigned count = static_cast<unsigned>(due.size());
      std::fill(out.begin(), out.begin() + count, Outcome{});
      const std::int64_t start = now_ns();
      call(id, first, count, out.data());
      const std::int64_t end = now_ns();
      for (unsigned i = 0; i < count; ++i) {
        lat_ns_[first + i] = clamp_ns(end - due[i]);
        due_us_[first + i] = clamp_ns((due[i] - t0) / 1000);
        qwait_ns_[first + i] = clamp_ns(start - due[i]);
        flags_[first + i] = static_cast<std::uint8_t>(
            (out[i].ok ? 1 : 0) | (out[i].topk ? 2 : 0));
      }
      const std::uint64_t c = calls.fetch_add(1);
      call_ns_[c] = clamp_ns(end - start);
      batch_[c] = count;
    }
  };
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < senders_; ++s) threads.emplace_back(sender, s);
  for (std::thread& t : threads) t.join();
  const double elapsed_s = 1e-9 * double(now_ns() - t0);

  PhaseStats st;
  st.offered_rate = rate;
  st.completed_per_s = double(next) / elapsed_s;
  const std::size_t n = next;
  // Figures per slice of due time, then the median over slices: one
  // host-level stall moves one slice, not the phase's figure.
  const std::size_t slices = std::max<std::size_t>(
      1, std::size_t(std::min(seconds, elapsed_s) / kSliceSeconds));
  std::vector<std::vector<double>> all(slices), topk(slices);
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = (flags_[i] & 1) != 0;
    // A failed request misses every latency limit.
    const double us = ok ? 1e-3 * double(lat_ns_[i]) : 1e12;
    if (!ok) ++st.failed;
    const std::size_t slice = std::min<std::size_t>(
        slices - 1, std::size_t(1e-6 * due_us_[i] / kSliceSeconds));
    all[slice].push_back(us);
    if ((flags_[i] & 2) != 0) topk[slice].push_back(us);
  }
  for (std::size_t k = 0; k < slices; ++k) {
    if (!all[k].empty()) {
      st.slice_p50_us.push_back(quantile(all[k], 0.5));
      st.slice_p90_us.push_back(quantile(all[k], 0.9));
      st.slice_p99_us.push_back(quantile(std::move(all[k]), 0.99));
    }
    if (!topk[k].empty()) {
      st.slice_topk_p99_us.push_back(quantile(std::move(topk[k]), 0.99));
    }
  }
  st.p50_us = median(st.slice_p50_us);
  st.p90_us = median(st.slice_p90_us);
  st.p99_us = median(st.slice_p99_us);
  st.topk_p99_us = median(st.slice_topk_p99_us);
  const std::size_t nc = std::min<std::uint64_t>(calls.load(), max_n);
  st.call_p50_us = p_us(call_ns_, nc, 0.5);
  st.call_p99_us = p_us(call_ns_, nc, 0.99);
  st.queue_wait_p99_us = p_us(qwait_ns_, n, 0.99);
  double batched = 0.0;
  for (std::size_t c = 0; c < nc; ++c) batched += batch_[c];
  st.batch_mean = nc == 0 ? 0.0 : batched / double(nc);
  st.lag_p99_us = p_us(lag_ns_, std::min<std::uint64_t>(lags.load(), lag_ns_.size()),
                       0.99);
  if (n >= 10) {
    const std::size_t fifth = n / 5;
    std::vector<double> head(qwait_ns_.begin(), qwait_ns_.begin() + fifth);
    std::vector<double> tail(qwait_ns_.begin() + (n - fifth),
                             qwait_ns_.begin() + n);
    st.backlog_growing =
        1e-3 * (median(tail) - median(head)) > limit_us;
  }
  return st;
}

PhaseStats merge(const std::vector<PhaseStats>& parts) {
  PhaseStats m;
  if (parts.empty()) return m;
  m.offered_rate = parts.front().offered_rate;
  std::vector<double> call50, call99, qwait99, batch, rate;
  for (const PhaseStats& p : parts) {
    m.failed += p.failed;
    m.backlog_growing |= p.backlog_growing;
    m.lag_p99_us = std::max(m.lag_p99_us, p.lag_p99_us);
    auto append = [](std::vector<double>& to, const std::vector<double>& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(m.slice_p50_us, p.slice_p50_us);
    append(m.slice_p90_us, p.slice_p90_us);
    append(m.slice_p99_us, p.slice_p99_us);
    append(m.slice_topk_p99_us, p.slice_topk_p99_us);
    call50.push_back(p.call_p50_us);
    call99.push_back(p.call_p99_us);
    qwait99.push_back(p.queue_wait_p99_us);
    batch.push_back(p.batch_mean);
    rate.push_back(p.completed_per_s);
  }
  m.p50_us = median(m.slice_p50_us);
  m.p90_us = median(m.slice_p90_us);
  m.p99_us = median(m.slice_p99_us);
  m.topk_p99_us = median(m.slice_topk_p99_us);
  m.call_p50_us = median(std::move(call50));
  m.call_p99_us = median(std::move(call99));
  m.queue_wait_p99_us = median(std::move(qwait99));
  m.batch_mean = median(std::move(batch));
  m.completed_per_s = median(std::move(rate));
  return m;
}

}  // namespace perfbench
