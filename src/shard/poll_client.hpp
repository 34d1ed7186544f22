// Metrics poll client: one blocking HTTP GET against a shard's
// MetricsHttpServer plus a parser for the health signals the router's
// failover logic consumes (queue depth, answer-epoch lag, refresh
// latency — the PR 9 feed).
//
// Deliberately header-only over plain POSIX sockets + common/minijson
// so it adds no link dependency: hipa-top (which links only
// hipa_common) and the ShardRouter share exactly this client.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "common/minijson.hpp"

namespace hipa::shard {

/// Largest response http_get accepts, headers included: far above a
/// real /metrics.json body (about 30 KiB with 64 histograms), so a
/// misbehaving peer cannot grow a long-running router without bound.
inline constexpr std::size_t kMaxHttpResponseBytes = std::size_t{4} << 20;

/// Blocking HTTP/1.0 GET; returns the response body (headers
/// stripped), or nullopt on connect/transfer failure or a response
/// longer than kMaxHttpResponseBytes. `timeout` bounds both the
/// connect and each read.
inline std::optional<std::string> http_get(const std::string& host, int port,
                                           const std::string& path,
                                           double timeout_seconds = 1.0) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return std::nullopt;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  timeval tv{};
  tv.tv_sec = static_cast<long>(timeout_seconds);
  tv.tv_usec = static_cast<long>((timeout_seconds - static_cast<double>(
                                                        tv.tv_sec)) *
                                 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, req.data(), req.size(), 0) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return std::nullopt;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    if (response.size() + static_cast<std::size_t>(n) >
        kMaxHttpResponseBytes) {
      ::close(fd);
      return std::nullopt;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return std::nullopt;
  return response.substr(body + 4);
}

/// The health signals the router keys failover on, extracted from one
/// /metrics.json snapshot. Absent metrics stay at their defaults (a
/// fresh shard that has served nothing is healthy, not suspect).
struct HealthSample {
  double uptime_seconds = 0.0;
  std::int64_t queue_depth = 0;       ///< hipa_worker_queue_depth
  std::int64_t answer_epoch = 0;      ///< hipa_answer_epoch
  std::int64_t epoch_lag = 0;         ///< hipa_answer_epoch_lag
  std::int64_t publish_epoch = 0;     ///< hipa_publish_epoch
  double refresh_p99_seconds = 0.0;   ///< hipa_refresh_seconds{kind=full}
  double queries_total = 0.0;         ///< hipa_queries_total (all classes)
};

/// Parse one /metrics.json body into the router's health view.
/// nullopt on malformed JSON.
inline std::optional<HealthSample> parse_health(const std::string& body) {
  std::string err;
  const json::ValuePtr root = json::parse(body, &err);
  if (root == nullptr || !root->is(json::Value::Type::kObject)) {
    return std::nullopt;
  }
  HealthSample h;
  if (const json::Value* up = root->find("uptime_seconds");
      up != nullptr && up->is(json::Value::Type::kNumber)) {
    h.uptime_seconds = up->number;
  }
  const auto entry_name = [](const json::ValuePtr& e) -> std::string {
    const json::Value* n = e->find("name");
    return n != nullptr && n->is(json::Value::Type::kString) ? n->str
                                                             : std::string();
  };
  if (const json::Value* gauges = root->find("gauges");
      gauges != nullptr && gauges->is(json::Value::Type::kArray)) {
    for (const json::ValuePtr& g : gauges->array) {
      const json::Value* v = g->find("value");
      if (v == nullptr || !v->is(json::Value::Type::kNumber)) continue;
      const std::string name = entry_name(g);
      const auto value = static_cast<std::int64_t>(v->number);
      if (name == "hipa_worker_queue_depth") h.queue_depth = value;
      if (name == "hipa_answer_epoch") h.answer_epoch = value;
      if (name == "hipa_answer_epoch_lag") h.epoch_lag = value;
      if (name == "hipa_publish_epoch") h.publish_epoch = value;
    }
  }
  if (const json::Value* counters = root->find("counters");
      counters != nullptr && counters->is(json::Value::Type::kArray)) {
    for (const json::ValuePtr& c : counters->array) {
      const json::Value* v = c->find("value");
      if (v == nullptr || !v->is(json::Value::Type::kNumber)) continue;
      if (entry_name(c) == "hipa_queries_total") {
        h.queries_total += v->number;
      }
    }
  }
  if (const json::Value* hists = root->find("histograms");
      hists != nullptr && hists->is(json::Value::Type::kArray)) {
    for (const json::ValuePtr& hist : hists->array) {
      if (entry_name(hist) != "hipa_refresh_seconds") continue;
      const json::Value* lv = hist->find("label_value");
      if (lv == nullptr || !lv->is(json::Value::Type::kString) ||
          lv->str != "full") {
        continue;
      }
      const json::Value* p99 = hist->find("p99");
      if (p99 != nullptr && p99->is(json::Value::Type::kNumber)) {
        h.refresh_p99_seconds = p99->number;
      }
    }
  }
  return h;
}

/// One-call scrape: GET /metrics.json and parse. nullopt = connect
/// failure or malformed body (both count as a failed health probe).
inline std::optional<HealthSample> poll_health(const std::string& host,
                                               int port,
                                               double timeout_seconds = 1.0) {
  const std::optional<std::string> body =
      http_get(host, port, "/metrics.json", timeout_seconds);
  if (!body.has_value()) return std::nullopt;
  return parse_health(*body);
}

}  // namespace hipa::shard
