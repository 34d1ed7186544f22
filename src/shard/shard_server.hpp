// One shard: a RankService that owns a contiguous vertex range of a
// segmented HCSR v3/v4 graph and answers the wire protocol over any
// transport listener.
//
// The shard's snapshot store is sized to its OWNED RANGE, not the
// whole graph — vertex ids are translated global -> range-local at the
// protocol boundary and back in answers (top-k entries re-offset to
// global ids). Recomputes stream the whole segmented file through
// OocoreEngine (bounded resident bytes, deterministic, bitwise
// identical across shards) and publish only the owned slice; since
// every shard runs the identical deterministic kernel, the router's
// merged answers are bitwise identical to a single process serving
// the full graph at the same epoch.
//
// Connections that say hello are subscribed to RepublishNotice pushes;
// a restarted shard re-publishes from a fresh compute into its
// snapshot ring before it starts accepting, so the first hello a
// router sees after failover already carries a serving epoch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "runtime/metrics.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "shard/proto.hpp"
#include "shard/transport.hpp"

namespace hipa::shard {

struct ShardServerOptions {
  std::uint32_t shard_id = 0;
  /// Owned global vertex range; must lie inside the graph's universe.
  VertexRange range{};
  /// Segmented HCSR v3/v4 file (tools/hipa-convert output) shared by the
  /// whole fleet.
  std::string graph_path;
  /// OocoreEngine threads for recomputes.
  unsigned compute_threads = 2;
  /// Resident-byte budget for streamed recomputes (0 = unlimited).
  std::size_t resident_budget_bytes = 0;
  /// PageRank parameters of every recompute.
  unsigned iterations = 20;
  float damping = 0.85f;
  /// Replicated top-k depth of the shard's snapshots.
  unsigned topk_k = 64;
  /// Compute + publish the first epoch during construction. false =
  /// the caller publishes (tests injecting synthetic slices).
  bool compute_on_start = true;
  /// Metrics endpoint port (-1 = none, 0 = ephemeral) and bind
  /// address, forwarded to the RankService.
  int metrics_port = -1;
  std::string metrics_bind_addr = "127.0.0.1";
  /// Pin service workers (off by default: shard fleets oversubscribe
  /// one host in tests/benches).
  bool pin_workers = false;
  /// Registry for this shard's metrics; nullptr = process-global.
  /// Multi-shard-in-one-process tests pass distinct registries.
  runtime::metrics::MetricsRegistry* registry = nullptr;
};

class ShardServer {
 public:
  explicit ShardServer(ShardServerOptions opt);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Start accepting on `listener` (background thread; call once).
  void serve(std::unique_ptr<Listener> listener);

  /// Stream the segmented graph through OocoreEngine, publish the
  /// owned slice as the next epoch, and push RepublishNotice to every
  /// subscribed connection. Returns the published epoch. Serialized
  /// internally; safe against concurrent queries.
  std::uint64_t republish();

  /// Publish a caller-supplied slice (size == range().size()) as the
  /// next epoch — the injection point for epoch-consistency tests and
  /// the snapshot-ring restore path. Notifies subscribers like
  /// republish().
  std::uint64_t publish_slice(std::span<const rank_t> slice);

  /// Block until a kShutdown frame (or stop()) ends the serve loop.
  void wait();

  /// Close the listener and every connection, join all threads.
  /// Idempotent; destructor calls it.
  void stop();

  [[nodiscard]] VertexRange range() const { return opt_.range; }
  [[nodiscard]] vid_t num_vertices_global() const { return num_global_; }
  [[nodiscard]] std::uint64_t epoch() const { return store_->epoch(); }
  [[nodiscard]] int metrics_http_port() const {
    return service_->metrics_http_port();
  }

 private:
  void accept_loop();
  void handle_conn(const std::shared_ptr<Conn>& conn);
  [[nodiscard]] HelloAck hello_ack() const;
  /// Translate one global-id query to range-local; false when the
  /// query touches vertices outside the owned range.
  [[nodiscard]] bool to_local(const serve::Query& in,
                              serve::Query* out) const;
  std::uint64_t publish_and_notify(std::span<const rank_t> slice);

  ShardServerOptions opt_;
  vid_t num_global_ = 0;
  std::unique_ptr<serve::SnapshotStore> store_;
  std::unique_ptr<serve::RankService> service_;

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Conn>> conns_;  ///< every live connection
  std::vector<Conn*> subscribers_;            ///< hello'd subset of conns_
  std::vector<std::thread> handlers_;         ///< under conns_mutex_
  std::atomic<bool> stopping_{false};

  std::mutex publish_mutex_;  ///< serializes recompute + publish
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;

  runtime::metrics::Gauge publish_epoch_metric_;
};

}  // namespace hipa::shard
