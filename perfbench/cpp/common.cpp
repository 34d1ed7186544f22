#include "common.hpp"

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include <immintrin.h>

namespace perfbench {

void Result::param(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(12);
  os << value;
  params[key] = os.str();
}

void sleep_until_ns(std::int64_t deadline_ns) {
  // Timer slack is per thread; the default 50 us would dominate the wait.
  thread_local const bool slack = ::prctl(PR_SET_TIMERSLACK, 1000UL) == 0;
  (void)slack;
  constexpr std::int64_t kSpinNs = 20'000;
  std::int64_t left = deadline_ns - now_ns();
  if (left > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
  }
  while (now_ns() < deadline_ns) _mm_pause();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double cpu_seconds(const std::vector<pid_t>& children) {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  double s = double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
  for (const pid_t p : children) {
    std::ifstream f("/proc/" + std::to_string(p) + "/stat");
    std::string line;
    std::getline(f, line);
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    std::istringstream rest(line.substr(line.rfind(')') + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    s += double(utime + stime) / double(::sysconf(_SC_CLK_TCK));
  }
  return s;
}

std::uint64_t rss_bytes(pid_t pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/statm")
                                    : "/proc/" + std::to_string(pid) +
                                          "/statm";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

RssSampler::RssSampler(std::vector<pid_t> children)
    : pids_(std::move(children)) {
  pids_.insert(pids_.begin(), 0);
  peak_.store(sample());
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::uint64_t s = sample();
      if (s > peak_.load(std::memory_order_relaxed)) peak_.store(s);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

RssSampler::~RssSampler() { stop(); }

std::uint64_t RssSampler::sample() const {
  std::uint64_t sum = 0;
  for (const pid_t p : pids_) sum += rss_bytes(p);
  return sum;
}

std::uint64_t RssSampler::stop() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
    const std::uint64_t s = sample();
    if (s > peak_.load()) peak_.store(s);
  }
  return peak_.load();
}

// ---- tracer --------------------------------------------------------------

namespace {
std::mutex g_trace_mutex;
thread_local std::uint64_t t_open_span = 0;
}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t per_thread_cap) {
  cap_ = per_thread_cap;
  enabled_.store(true);
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_trace_mutex);
    buf = new Buffer;  // lives until exit: spans outlive their threads
    buf->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    buf->spans.reserve(std::min<std::size_t>(cap_, 4096));
    buffers_.push_back(buf);
  }
  return *buf;
}

void Tracer::record(const Span& s) {
  Buffer& b = local();
  if (b.spans.size() >= cap_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.spans.push_back(s);
  b.spans.back().tid = b.tid;
}

std::vector<Tracer::Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(g_trace_mutex);
  std::vector<Span> all;
  for (const Buffer* b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> spans = collect();
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  const int pid = static_cast<int>(::getpid());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name(s.name);
    const std::string cat = name.substr(0, name.find('.'));
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%u,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}"
                  "%s\n",
                  s.name, cat.c_str(), 1e-3 * double(s.start_ns - t0),
                  1e-3 * double(s.end_ns - s.start_ns), pid, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  i + 1 < spans.size() ? "," : "");
    os << line;
  }
  os << "]}\n";
}

std::string Tracer::layer_table() const {
  const std::vector<Span> spans = collect();
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Row {
    std::uint64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans) {
    Row& r = rows[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::int64_t kids = it == child_ns.end() ? 0 : it->second;
    r.calls += 1;
    r.total_ms += 1e-6 * double(dur);
    r.self_ms += 1e-6 * double(std::max<std::int64_t>(0, dur - kids));
  }
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line, "%-40s %10s %14s %14s\n", "span", "calls",
                "total_ms", "self_ms");
  os << line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-40s %10llu %14.3f %14.3f\n",
                  name.c_str(), static_cast<unsigned long long>(r.calls),
                  r.total_ms, r.self_ms);
    os << line;
  }
  return os.str();
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  Tracer& t = Tracer::get();
  if (!t.enabled()) return;
  id_ = t.next_id();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_open_span = parent_;
  Tracer::get().record(
      Tracer::Span{name_, start_, end, id_, parent_, 0});
}

}  // namespace perfbench
