// Serving-layer tests: snapshot store semantics, grace-period
// reclamation, NUMA-replicated top-k, the batched query engine, the
// MPSC update queue, and the refresher. The *Race suites are the
// TSan-labeled concurrency contracts: racing readers, a publisher and
// the update refresher must never produce a torn read, and every
// observed epoch must be a fully published snapshot bitwise-equal to a
// direct engine run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>
#include <vector>

#include "algos/pagerank.hpp"
#include "common/error.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "runtime/metrics.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/topk_index.hpp"
#include "serve/updates.hpp"

namespace hipa::serve {
namespace {

std::vector<rank_t> ramp_ranks(vid_t n, rank_t scale = 1.0f) {
  std::vector<rank_t> r(n);
  for (vid_t v = 0; v < n; ++v) {
    r[v] = scale * static_cast<rank_t>((v * 2654435761u) % 10007u);
  }
  return r;
}

std::vector<Edge> test_edges(vid_t n, eid_t m, std::uint64_t seed) {
  return graph::generate_erdos_renyi(n, m, seed);
}

// ---------------------------------------------------------------------------
// even_node_ranges / snapshot store basics
// ---------------------------------------------------------------------------

TEST(NodeRanges, TilesAndAligns) {
  const vid_t n = 10'000;
  for (unsigned nodes : {1u, 2u, 3u, 4u}) {
    const auto ranges = even_node_ranges(n, nodes);
    ASSERT_EQ(ranges.size(), nodes);
    EXPECT_EQ(ranges.front().begin, 0u);
    EXPECT_EQ(ranges.back().end, n);
    constexpr vid_t verts_per_page =
        static_cast<vid_t>(kPageSize / sizeof(rank_t));
    for (unsigned i = 0; i + 1 < nodes; ++i) {
      EXPECT_EQ(ranges[i].end, ranges[i + 1].begin);
      EXPECT_EQ(ranges[i].end % verts_per_page, 0u)
          << "interior boundary must be page-aligned";
    }
  }
}

TEST(SnapshotStore, EmptyBeforeFirstPublish) {
  SnapshotStore store(100);
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_FALSE(store.current().valid());
}

TEST(SnapshotStore, PublishAndRead) {
  const vid_t n = 5'000;
  SnapshotStore store(n);
  const std::vector<rank_t> ranks = ramp_ranks(n);
  const std::uint64_t e1 = store.publish(ranks);
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(store.epoch(), 1u);

  SnapshotRef snap = store.current();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->num_vertices(), n);
  EXPECT_EQ(0, std::memcmp(snap->ranks().data(), ranks.data(),
                           n * sizeof(rank_t)));
}

TEST(SnapshotStore, RejectsWrongSize) {
  SnapshotStore store(100);
  const std::vector<rank_t> wrong(99, 0.0f);
  EXPECT_THROW(store.publish(std::span<const rank_t>(wrong)), Error);
}

TEST(SnapshotStore, PinnedEpochSurvivesLaterPublishes) {
  const vid_t n = 4'096;
  SnapshotStore store(n);  // default 3 slots
  store.publish(ramp_ranks(n, 1.0f));
  SnapshotRef pin = store.current();
  ASSERT_EQ(pin->epoch(), 1u);
  // Two more publishes rotate the ring but must not touch epoch 1.
  store.publish(ramp_ranks(n, 2.0f));
  store.publish(ramp_ranks(n, 3.0f));
  const std::vector<rank_t> expect = ramp_ranks(n, 1.0f);
  EXPECT_EQ(0, std::memcmp(pin->ranks().data(), expect.data(),
                           n * sizeof(rank_t)));
  EXPECT_EQ(store.epoch(), 3u);
}

TEST(SnapshotStore, GracePeriodBlocksSlotReuseUntilRelease) {
  const vid_t n = 2'048;
  StoreOptions opt;
  opt.slots = 2;
  SnapshotStore store(n, opt);
  store.publish(ramp_ranks(n, 1.0f));
  auto* pin = new SnapshotRef(store.current());
  ASSERT_EQ((*pin)->epoch(), 1u);
  store.publish(ramp_ranks(n, 2.0f));  // other slot: no wait

  // Epoch 3 needs epoch 1's slot, which `pin` still holds.
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    store.publish(ramp_ranks(n, 3.0f));
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load(std::memory_order_acquire))
      << "publish must wait for the straggling reader";
  delete pin;  // release the pin -> grace period ends
  publisher.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(store.epoch(), 3u);
  EXPECT_GE(store.reclaim_waits(), 1u);
}

TEST(SnapshotStore, PublishesRunResultBitwise) {
  const vid_t n = 1'000;
  const auto edges = test_edges(n, 8'000, 11);
  const graph::Graph g = graph::build_graph(n, edges);
  algo::MethodParams params;
  params.threads = 2;
  params.pr.iterations = 10;
  const engine::RunResult direct =
      algo::run_method_native(algo::Method::kHipa, g, params);
  SnapshotStore store(n);
  store.publish(direct);
  SnapshotRef snap = store.current();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(0, std::memcmp(snap->ranks().data(), direct.ranks.data(),
                           n * sizeof(rank_t)))
      << "published snapshot must be bitwise-identical to the run";
}

// ---------------------------------------------------------------------------
// Top-k index
// ---------------------------------------------------------------------------

TEST(TopK, PartialMatchesReference) {
  const vid_t n = 3'000;
  const std::vector<rank_t> ranks = ramp_ranks(n);
  const auto mine =
      partial_top_k(ranks, VertexRange{0, n}, 25);
  const auto ref = algo::top_k(ranks, 25);
  ASSERT_EQ(mine.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(mine[i].vertex, ref[i]) << "position " << i;
    EXPECT_EQ(mine[i].rank, ranks[ref[i]]);
  }
}

TEST(TopK, TieBreaksBySmallerId) {
  const std::vector<rank_t> ranks = {5.0f, 7.0f, 7.0f, 5.0f, 9.0f};
  const auto got = partial_top_k(ranks, VertexRange{0, 5}, 4);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].vertex, 4u);
  EXPECT_EQ(got[1].vertex, 1u);  // 7.0 tie: smaller id first
  EXPECT_EQ(got[2].vertex, 2u);
  EXPECT_EQ(got[3].vertex, 0u);  // 5.0 tie: smaller id first
}

TEST(TopK, IndexMatchesReferenceAcrossNodes) {
  const vid_t n = 9'000;
  const std::vector<rank_t> ranks = ramp_ranks(n);
  for (unsigned nodes : {1u, 2u, 3u}) {
    TopKIndex index;
    index.configure(32, nodes);
    const auto ranges = even_node_ranges(n, nodes);
    index.build(ranks, ranges);
    const auto ref = algo::top_k(ranks, 32);
    for (unsigned node = 0; node < nodes; ++node) {
      const auto rep = index.replica(node);
      ASSERT_EQ(rep.size(), ref.size()) << nodes << " nodes";
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(rep[i].vertex, ref[i]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Query evaluators + service
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  static constexpr vid_t kN = 6'000;
  void SetUp() override {
    store_ = std::make_unique<SnapshotStore>(kN);
    ranks_ = ramp_ranks(kN);
    store_->publish(std::span<const rank_t>(ranks_));
  }
  std::unique_ptr<SnapshotStore> store_;
  std::vector<rank_t> ranks_;
};

TEST_F(ServiceTest, EvaluatorsMatchRanks) {
  SnapshotRef snap = store_->current();
  EXPECT_EQ(point_lookup(*snap, 17), ranks_[17]);
  const std::vector<vid_t> ids = {0, 5, 4'999, 5'000, kN - 1};
  std::vector<rank_t> out(ids.size());
  batch_lookup(*snap, ids, out);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i], ranks_[ids[i]]);
  }
  EXPECT_THROW((void)point_lookup(*snap, kN), Error);
}

TEST_F(ServiceTest, TopKQueryGlobalAndRange) {
  SnapshotRef snap = store_->current();
  // Global within index depth: replica-served.
  const auto global = topk_query(*snap, TopKQuery{10, {0, 0}});
  const auto ref = algo::top_k(ranks_, 10);
  ASSERT_EQ(global.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(global[i].vertex, ref[i]);
  // Deeper than the index (k=64 default): scan fallback.
  const auto deep = topk_query(*snap, TopKQuery{100, {0, 0}});
  const auto deep_ref = algo::top_k(ranks_, 100);
  ASSERT_EQ(deep.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(deep[i].vertex, deep_ref[i]);
  }
  // Range-restricted.
  const VertexRange range{1'000, 2'000};
  const auto ranged = topk_query(*snap, TopKQuery{7, range});
  ASSERT_EQ(ranged.size(), 7u);
  for (const auto& e : ranged) {
    EXPECT_TRUE(range.contains(e.vertex));
  }
  // Against a direct scan of the slice.
  const auto ranged_ref = partial_top_k(ranks_, range, 7);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(ranged[i].vertex, ranged_ref[i].vertex);
  }
}

TEST_F(ServiceTest, ServiceAnswersMatchEvaluators) {
  runtime::metrics::MetricsRegistry registry;
  ServiceOptions opt;
  opt.registry = &registry;
  RankService service(*store_, opt);
  std::vector<Query> queries;
  queries.push_back(Query::point(123));
  queries.push_back(Query::batch({7, 5'500, 42, 0}));
  queries.push_back(Query::top_k(12));
  queries.push_back(Query::top_k(9, VertexRange{2'000, 5'000}));
  queries.push_back(Query::top_k(80));  // deeper than index: split scan
  const auto responses = service.execute_batch(queries);
  ASSERT_EQ(responses.size(), queries.size());

  SnapshotRef snap = store_->current();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(responses[i].epoch, 1u);
    const QueryResult ref = evaluate(*snap, queries[i]);
    EXPECT_EQ(responses[i].ranks, ref.ranks) << "query " << i;
    ASSERT_EQ(responses[i].topk.size(), ref.topk.size()) << "query " << i;
    for (std::size_t j = 0; j < ref.topk.size(); ++j) {
      EXPECT_EQ(responses[i].topk[j], ref.topk[j])
          << "query " << i << " entry " << j;
    }
  }

  const RankService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, queries.size());
  EXPECT_EQ(stats.point_requests, 1u);
  EXPECT_EQ(stats.batch_requests, 1u);
  EXPECT_EQ(stats.topk_requests, 3u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.vertices_looked_up, 5u);
  std::uint64_t latency_count = 0;
  for (const LatencySummary& l : stats.latency) {
    latency_count += l.count;
    EXPECT_GT(l.p99_seconds, 0.0);
  }
  EXPECT_EQ(latency_count, queries.size());
}

TEST_F(ServiceTest, StatsAreZeroWithMetricsOff) {
  runtime::metrics::MetricsRegistry registry;
  ServiceOptions opt;
  opt.metrics = false;
  opt.registry = &registry;
  RankService service(*store_, opt);
  (void)service.execute(Query::point(1));
  const RankService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(registry.snapshot().find_counter("hipa_queries_total"), nullptr);
}

/// Resident set size from /proc/self/statm (second field, in pages).
std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

// A long-running service must not keep per-request state: after a
// warm-up, ten million more requests may not grow the process by more
// than a small constant (an 8-byte sample per request would be ~72 MB).
TEST_F(ServiceTest, MemoryStaysBoundedOverTenMillionRequests) {
  constexpr std::size_t kBatch = 64;
  constexpr std::uint64_t kWarmup = 1'000'000;
  constexpr std::uint64_t kTotal = 10'000'000;
  static_assert(kWarmup % kBatch == 0 && kTotal % kBatch == 0);
  runtime::metrics::MetricsRegistry registry;
  ServiceOptions opt;
  opt.registry = &registry;
  RankService service(*store_, opt);
  std::vector<Query> batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(Query::point(static_cast<vid_t>((i * 97) % kN)));
  }
  std::uint64_t sent = 0;
  while (sent < kWarmup) {
    (void)service.execute_batch(batch);
    sent += kBatch;
  }
  const std::uint64_t rss_warm = rss_bytes();
  ASSERT_GT(rss_warm, 0u);
  while (sent < kTotal) {
    (void)service.execute_batch(batch);
    sent += kBatch;
  }
  const std::uint64_t rss_end = rss_bytes();
  const std::uint64_t growth = rss_end > rss_warm ? rss_end - rss_warm : 0;
#if defined(__SANITIZE_ADDRESS__)
  // ASan parks freed blocks in a quarantine (256 MB by default), so RSS
  // measures the sanitizer here, not the service; the count still holds.
  (void)growth;
#else
  EXPECT_LE(growth, std::uint64_t{32} << 20)
      << "RSS grew " << (growth >> 20) << " MiB over "
      << (kTotal - kWarmup) << " requests";
#endif
  EXPECT_EQ(service.stats().requests, kTotal);
}

TEST_F(ServiceTest, ThrowsBeforeFirstPublish) {
  SnapshotStore empty(100);
  RankService service(empty);
  EXPECT_THROW(service.execute(Query::point(0)), Error);
}

// ---------------------------------------------------------------------------
// Update queue + refresher
// ---------------------------------------------------------------------------

TEST(UpdateQueue, DrainPreservesArrivalOrder) {
  UpdateQueue q;
  for (vid_t i = 0; i < 10; ++i) q.push_add(Edge{i, i + 1});
  EXPECT_EQ(q.approx_pending(), 10u);
  const auto batch = q.drain();
  ASSERT_EQ(batch.size(), 10u);
  for (vid_t i = 0; i < 10; ++i) {
    EXPECT_EQ(batch[i].edge.src, i);
    EXPECT_FALSE(batch[i].remove);
  }
  EXPECT_EQ(q.approx_pending(), 0u);
  EXPECT_TRUE(q.drain().empty());
}

TEST(UpdateQueue, MultiProducerLosesNothing) {
  UpdateQueue q;
  constexpr unsigned kProducers = 4;
  constexpr unsigned kPerProducer = 2'000;
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (unsigned i = 0; i < kPerProducer; ++i) {
        q.push_add(Edge{p, i});
      }
    });
  }
  for (auto& t : producers) t.join();
  const auto batch = q.drain();
  EXPECT_EQ(batch.size(), kProducers * kPerProducer);
  std::vector<unsigned> per_producer(kProducers, 0);
  for (const auto& u : batch) ++per_producer[u.edge.src];
  for (unsigned p = 0; p < kProducers; ++p) {
    EXPECT_EQ(per_producer[p], kPerProducer) << "producer " << p;
  }
}

TEST(Refresher, InitialPublishBitwiseMatchesDirectRun) {
  const vid_t n = 1'024;
  const auto edges = test_edges(n, 6'000, 3);
  SnapshotStore store(n);
  UpdateQueue queue;
  RefreshOptions opt;
  opt.full.threads = 2;
  opt.full.pr.iterations = 12;
  UpdateRefresher refresher(n, edges, store, queue, opt);
  EXPECT_EQ(refresher.publish_initial(), 1u);

  const engine::RunResult direct = algo::run_method_native(
      algo::Method::kHipa, refresher.graph(), opt.full);
  SnapshotRef snap = store.current();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(0, std::memcmp(snap->ranks().data(), direct.ranks.data(),
                           n * sizeof(rank_t)));
}

TEST(Refresher, SmallBatchUsesDeltaLargeUsesFullRun) {
  const vid_t n = 512;
  const auto edges = test_edges(n, 3'000, 5);
  SnapshotStore store(n);
  UpdateQueue queue;
  RefreshOptions opt;
  opt.small_batch_max = 4;
  opt.full.threads = 2;
  opt.full.pr.iterations = 8;
  UpdateRefresher refresher(n, edges, store, queue, opt);
  refresher.publish_initial();

  // Empty queue: no-op.
  EXPECT_EQ(refresher.refresh_now().epoch, 0u);

  // Small batch -> delta.
  queue.push_add(Edge{1, 2});
  queue.push_add(Edge{3, 4});
  const RefreshReport small = refresher.refresh_now();
  EXPECT_EQ(small.epoch, 2u);
  EXPECT_EQ(small.updates_applied, 2u);
  EXPECT_FALSE(small.full_run);
  EXPECT_EQ(refresher.delta_refreshes(), 1u);

  // Large batch -> full run.
  for (vid_t i = 0; i < 10; ++i) queue.push_add(Edge{i, (i + 7) % n});
  const RefreshReport large = refresher.refresh_now();
  EXPECT_EQ(large.epoch, 3u);
  EXPECT_TRUE(large.full_run);
  EXPECT_EQ(refresher.full_refreshes(), 2u);  // initial + this one
  EXPECT_EQ(store.epoch(), 3u);
}

TEST(Refresher, RemoveDropsEdges) {
  const vid_t n = 16;
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  SnapshotStore store(n);
  UpdateQueue queue;
  UpdateRefresher refresher(n, edges, store, queue);
  refresher.publish_initial();
  queue.push_remove(Edge{1, 2});
  const RefreshReport r = refresher.refresh_now();
  EXPECT_GT(r.epoch, 1u);
  EXPECT_EQ(refresher.num_edges(), 3u);
  EXPECT_EQ(refresher.graph().out.degree(1), 0u);
}

TEST(Refresher, RejectsOutOfUniverseUpdates) {
  const vid_t n = 8;
  SnapshotStore store(n);
  UpdateQueue queue;
  UpdateRefresher refresher(n, {{0, 1}}, store, queue);
  refresher.publish_initial();
  queue.push_add(Edge{0, 99});
  EXPECT_THROW(refresher.refresh_now(), Error);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan contracts)
// ---------------------------------------------------------------------------

// Racing readers vs a publisher: every pinned snapshot must be
// internally consistent (all elements stamped with the same value) and
// epochs must be monotone per reader.
TEST(SnapshotRace, ReadersNeverObserveTornEpochs) {
  const vid_t n = 8'192;
  SnapshotStore store(n);
  constexpr unsigned kReaders = 4;
  constexpr std::uint64_t kEpochs = 60;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotRef snap = store.current();
        if (!snap.valid()) continue;
        const std::uint64_t epoch = snap->epoch();
        if (epoch < last_epoch) torn.fetch_add(1);
        last_epoch = epoch;
        // Every rank of epoch e is exactly float(e): any mixture means
        // a torn snapshot.
        const auto expect = static_cast<rank_t>(epoch);
        const std::span<const rank_t> ranks = snap->ranks();
        for (vid_t v = 0; v < n; v += 97) {
          if (ranks[v] != expect) {
            torn.fetch_add(1);
            break;
          }
        }
        // The replicated top-k must agree with the stamp too.
        const auto& topk = snap->topk();
        for (unsigned node = 0; node < topk.num_nodes(); ++node) {
          for (const TopKEntry& e : topk.replica(node)) {
            if (e.rank != expect) {
              torn.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }

  std::vector<rank_t> ranks(n);
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    std::fill(ranks.begin(), ranks.end(), static_cast<rank_t>(e));
    EXPECT_EQ(store.publish(std::span<const rank_t>(ranks)), e);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(store.epoch(), kEpochs);
}

// The full serving loop under race: background refresher republishing
// while service readers query. Readers must always get answers from a
// fully published epoch whose ranks match a direct recompute of that
// epoch's graph (validated post-hoc via the bitwise test above; here
// we check internal consistency + monotone epochs + no crashes under
// TSan).
TEST(SnapshotRace, ServiceQueriesDuringBackgroundRefresh) {
  const vid_t n = 2'048;
  const auto base = test_edges(n, 10'000, 17);
  SnapshotStore store(n);
  UpdateQueue queue;
  RefreshOptions opt;
  opt.small_batch_max = 1'000'000;  // always delta (fast)
  opt.delta.max_iterations = 30;
  opt.poll_seconds = 0.0005;
  UpdateRefresher refresher(n, base, store, queue, opt);
  refresher.publish_initial();
  refresher.start();

  RankService service(store);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t last_epoch = 0;
      unsigned i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<Query> qs;
        qs.push_back(Query::point((c * 997u + i * 31u) % n));
        qs.push_back(Query::batch({i % n, (i * 7u) % n}));
        qs.push_back(Query::top_k(8));
        const auto rs = service.execute_batch(qs);
        // One epoch per batch, monotone per client.
        for (const auto& r : rs) {
          if (r.epoch != rs[0].epoch || r.epoch < last_epoch) {
            violations.fetch_add(1);
          }
        }
        last_epoch = rs[0].epoch;
        ++i;
      }
    });
  }

  // Producers keep edges flowing while clients read.
  for (unsigned burst = 0; burst < 20; ++burst) {
    for (vid_t i = 0; i < 5; ++i) {
      queue.push_add(Edge{(burst * 13u + i) % n, (burst * 7u + 3u * i) % n});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  while (queue.approx_pending() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  refresher.stop();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(refresher.refreshes(), 1u);
  EXPECT_GT(service.stats().requests, 0u);
}

}  // namespace
}  // namespace hipa::serve
