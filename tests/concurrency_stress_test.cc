// Stress tests for the concurrent layers, written to be run under
// ThreadSanitizer (the CI thread job executes exactly these alongside the
// determinism suites). Each test hammers a component from many threads
// within its documented thread-safety contract and then checks that the
// results are the bit-identical ones the serial path produces.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/external_build.h"
#include "index/rtree.h"
#include "index/topology.h"
#include "io/keyed_lru_cache.h"
#include "io/paged_file.h"
#include "service/prediction_service.h"
#include "service/protocol.h"
#include "test_util.h"

namespace hdidx {
namespace {

// Many external threads publishing ParallelFor jobs into one shared pool at
// once: the pool serializes publishers, every chunk runs exactly once, and
// each caller sees its own complete result.
TEST(ConcurrencyStressTest, SharedPoolConcurrentPublishers) {
  common::ThreadPool pool(4);
  constexpr size_t kPublishers = 8;
  constexpr size_t kRounds = 25;
  constexpr size_t kN = 4096;
  const uint64_t expected = kN * (kN - 1) / 2;

  std::vector<std::thread> publishers;
  std::atomic<uint64_t> failures{0};
  publishers.reserve(kPublishers);
  for (size_t t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&pool, &failures] {
      for (size_t round = 0; round < kRounds; ++round) {
        std::atomic<uint64_t> sum{0};
        pool.ParallelFor(0, kN, 64, [&sum](size_t lo, size_t hi) {
          uint64_t local = 0;
          for (size_t i = lo; i < hi; ++i) local += i;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
        if (sum.load() != expected) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& p : publishers) p.join();
  EXPECT_EQ(failures.load(), 0u);
}

// Per-element outputs written from many chunks of many concurrent loops:
// every element is written exactly once with the right value (the exactly-
// once chunk-claim property TSan would flag if two workers raced a chunk).
TEST(ConcurrencyStressTest, ChunksRunExactlyOnce) {
  common::ThreadPool pool(4);
  constexpr size_t kN = 20000;
  for (size_t round = 0; round < 10; ++round) {
    std::vector<std::atomic<uint32_t>> touched(kN);
    pool.ParallelFor(0, kN, 97, [&touched](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        touched[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    uint64_t total = 0;
    for (const auto& t : touched) total += t.load();
    ASSERT_EQ(total, kN) << "some chunk ran twice or never";
  }
}

// Deterministic RNG substreams under concurrency: forked streams depend
// only on (seed, stream id), never on the thread that draws them.
TEST(ConcurrencyStressTest, StreamRngIsThreadInvariant) {
  constexpr size_t kStreams = 256;
  std::vector<uint64_t> expected(kStreams);
  for (size_t s = 0; s < kStreams; ++s) {
    common::Rng rng = common::ExecutionContext(nullptr, 42).StreamRng(s);
    expected[s] = rng.NextU64() ^ rng.NextBounded(1000);
  }

  common::ThreadPool pool(4);
  const common::ExecutionContext ctx(&pool, 42);
  std::vector<uint64_t> observed(kStreams);
  ctx.ParallelFor(0, kStreams, 8, [&ctx, &observed](size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      common::Rng rng = ctx.StreamRng(s);
      observed[s] = rng.NextU64() ^ rng.NextBounded(1000);
    }
  });
  EXPECT_EQ(observed, expected);
}

// The keyed LRU cache is single-owner by contract; hammer many *distinct*
// instances from the pool's workers simultaneously — the invariant checks
// inside Put/Get run on every mutation, under TSan, with full concurrency
// around them.
TEST(ConcurrencyStressTest, PerWorkerKeyedCaches) {
  common::ThreadPool pool(4);
  constexpr size_t kCaches = 16;
  std::vector<std::unique_ptr<io::KeyedLruCache<uint64_t, uint64_t>>> caches;
  caches.reserve(kCaches);
  for (size_t c = 0; c < kCaches; ++c) {
    caches.push_back(
        std::make_unique<io::KeyedLruCache<uint64_t, uint64_t>>(8));
  }
  pool.ParallelFor(0, kCaches, 1, [&caches](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      io::KeyedLruCache<uint64_t, uint64_t>& cache = *caches[c];
      for (uint64_t i = 0; i < 500; ++i) {
        const uint64_t key = i % 13;
        if (cache.Get(key) == nullptr) {
          cache.Put(key, std::make_shared<const uint64_t>(key * key));
        }
      }
      ASSERT_LE(cache.size(), cache.capacity());
      ASSERT_EQ(cache.hits() + cache.misses(), 500u);
    }
  });
}

// The full service under concurrent serving: many threads call
// ServeOnShard at once, several on the same shard (its caches and
// ExecutionContext shared), in different arrival orders, with a cache
// small enough to evict under load. Every response must reproduce the
// single-shard serial reference bit for bit, cold or cached.
TEST(ConcurrencyStressTest, ServiceBatchingStaysBitIdentical) {
  service::ServiceOptions reference_options;
  reference_options.num_shards = 1;
  reference_options.total_threads = 1;
  service::PredictionService reference(reference_options);

  service::ServiceOptions options;
  options.num_shards = 4;
  options.total_threads = 4;
  options.result_cache_entries = 4;  // small: force evictions under load
  service::PredictionService service(options);

  std::string error;
  uint64_t seed = 17;
  for (const char* name : {"alpha", "beta", "gamma", "delta"}) {
    data::Dataset dataset = testing::SmallClustered(3000, 8, seed++);
    ASSERT_TRUE(reference.registry().Add(name, dataset, &error)) << error;
    ASSERT_TRUE(service.registry().Add(name, std::move(dataset), &error))
        << error;
  }

  auto request = [](const char* dataset, uint64_t request_seed) {
    service::ServiceRequest r;
    r.dataset = dataset;
    r.method = "resampled";
    r.memory = 500;
    r.num_queries = 10;
    r.k = 5;
    r.seed = request_seed;
    r.page_bytes = 1024;
    return r;
  };

  std::vector<service::ServiceRequest> batch;
  for (uint64_t s = 1; s <= 3; ++s) {
    for (const char* name : {"alpha", "beta", "gamma", "delta"}) {
      batch.push_back(request(name, s));
    }
  }
  std::vector<std::string> expected;
  for (const service::ServiceRequest& r : batch) {
    const service::ServiceResponse response = reference.ServeOnShard(0, r);
    ASSERT_TRUE(response.ok) << response.error;
    expected.push_back(service::SerializeResult(response, /*per_query=*/true));
  }

  // Each thread walks the batch from its own starting offset.
  constexpr size_t kThreads = 6;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < batch.size(); ++i) {
        const size_t e = (i + t) % batch.size();
        const service::ServiceRequest& r = batch[e];
        const service::ServiceResponse response = service.ServeOnShard(
            service.registry().ShardOf(r.dataset), r);
        if (!response.ok ||
            service::SerializeResult(response, /*per_query=*/true) !=
                expected[e]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }

  const service::ServiceMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.requests, kThreads * batch.size());
  EXPECT_EQ(metrics.errors, 0u);
  // Cache bookkeeping tallies: every request either hit or missed.
  EXPECT_EQ(metrics.result_hits + metrics.result_misses, metrics.requests);
}

// Several independent parallel bulk loads sharing one pool at once: the
// builds publish ParallelFor waves concurrently, yet each must still emit
// the bit-identical layout the serial loader produces. This is the
// deployment shape of the sharded service (many shards, one machine).
TEST(ConcurrencyStressTest, ConcurrentParallelBuildsShareOnePool) {
  const data::Dataset data = testing::SmallClustered(3000, 8, 91);
  const index::TreeTopology topo(data.size(), 20, 6);
  index::BulkLoadOptions serial;
  serial.topology = &topo;
  const index::RTree reference = index::BulkLoadInMemory(data, serial);
  const uint64_t reference_digest = index::TreeLayoutDigest(reference);

  common::ThreadPool pool(4);
  const common::ExecutionContext ctx(&pool);
  constexpr size_t kBuilders = 6;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> builders;
  builders.reserve(kBuilders);
  for (size_t b = 0; b < kBuilders; ++b) {
    builders.emplace_back([&] {
      for (size_t round = 0; round < 3; ++round) {
        index::BulkLoadOptions options;
        options.topology = &topo;
        options.exec = &ctx;
        const index::RTree tree = index::BulkLoadInMemory(data, options);
        if (index::TreeLayoutDigest(tree) != reference_digest ||
            tree.order() != reference.order()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& b : builders) b.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// The external (on-disk) build must be completely unaffected by the
// execution context: its point source is single-owner, so BulkLoad never
// fans it out, and the simulated disk's order-sensitive seek accounting
// stays exactly the serial recursion's. Same IoStats, same on-disk bytes,
// same tree, for any thread count.
TEST(ConcurrencyStressTest, ExternalBuildIoStatsAreThreadCountInvariant) {
  const data::Dataset data = testing::SmallClustered(4000, 6, 77);
  const index::TreeTopology topo(data.size(), 25, 8);

  io::PagedFile serial_file = io::PagedFile::FromDataset(data, io::DiskModel{});
  index::ExternalBuildOptions serial;
  serial.topology = &topo;
  serial.memory_points = 400;
  const index::ExternalBuildResult serial_result =
      index::BuildOnDisk(&serial_file, serial);

  common::ThreadPool pool(4);
  const common::ExecutionContext ctx(&pool);
  io::PagedFile pooled_file = io::PagedFile::FromDataset(data, io::DiskModel{});
  index::ExternalBuildOptions pooled = serial;
  pooled.exec = &ctx;
  const index::ExternalBuildResult pooled_result =
      index::BuildOnDisk(&pooled_file, pooled);

  EXPECT_EQ(serial_result.io.page_seeks, pooled_result.io.page_seeks);
  EXPECT_EQ(serial_result.io.page_transfers, pooled_result.io.page_transfers);
  EXPECT_EQ(index::TreeLayoutDigest(serial_result.tree),
            index::TreeLayoutDigest(pooled_result.tree));
  ASSERT_EQ(serial_file.raw().size(), pooled_file.raw().size());
  EXPECT_TRUE(std::equal(serial_file.raw().begin(), serial_file.raw().end(),
                         pooled_file.raw().begin()))
      << "on-disk page images diverged";
}

}  // namespace
}  // namespace hdidx
