#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"

namespace hdidx::common {
namespace {

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolTest, RangeSmallerThanGrainIsOneInlineChunk) {
  ThreadPool pool(4);
  std::vector<std::pair<size_t, size_t>> chunks;
  // end - begin <= grain runs serially on the caller, as a single chunk, so
  // an unsynchronized vector is safe here.
  pool.ParallelFor(10, 13, 100, [&](size_t begin, size_t end) {
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 10u);
  EXPECT_EQ(chunks[0].second, 13u);
}

TEST(ThreadPoolTest, EveryElementVisitedExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  pool.ParallelFor(0, n, 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "element " << i;
  }
}

TEST(ThreadPoolTest, ChunkLayoutIndependentOfThreadCount) {
  // The determinism contract: identical (begin, end, grain) yields identical
  // chunk boundaries no matter how many threads serve them.
  auto layout = [](size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> chunks;
    pool.ParallelFor(3, 103, 9, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = layout(1);
  EXPECT_EQ(layout(2), serial);
  EXPECT_EQ(layout(8), serial);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndLoopDrains) {
  ThreadPool pool(4);
  const size_t n = 200;
  std::vector<std::atomic<int>> visits(n);
  EXPECT_THROW(
      pool.ParallelFor(0, n, 1,
                       [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           visits[i].fetch_add(1);
                           if (i == 57) throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
  // The loop drains before rethrowing: every chunk still ran exactly once.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "element " << i;
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int job = 0; job < 20; ++job) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(0, 100, 4, [&](size_t begin, size_t end) {
      size_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950u) << "job " << job;
  }
}

// Thousands of back-to-back jobs of varying sizes: workers still finishing
// one job routinely claim from the next (or from one that already drained).
// Every chunk of every job must run exactly once, on that job's function.
TEST(ThreadPoolTest, BackToBackParallelForJobsRunEveryChunkOnce) {
  for (const size_t threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    for (size_t job = 0; job < 3000; ++job) {
      const size_t n = 1 + (job * 37) % 61;
      const size_t grain = 1 + job % 4;
      const size_t num_chunks = (n + grain - 1) / grain;
      std::vector<std::atomic<uint32_t>> visits(n);
      std::atomic<size_t> calls{0};
      pool.ParallelFor(0, n, grain, [&](size_t begin, size_t end) {
        calls.fetch_add(1);
        for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
      });
      ASSERT_EQ(calls.load(), n > grain ? num_chunks : 1u)
          << threads << " threads, job " << job;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1u)
            << threads << " threads, job " << job << ", element " << i;
      }
    }
  }
}

// The same race from the other side: jobs whose chunks are all claimed by
// the publishing thread before a worker wakes, so the workers arrive late
// with claims from drained epochs.
TEST(ThreadPoolTest, StaleClaimsFromDrainedParallelForJobsAreDropped) {
  ThreadPool pool(8);
  std::vector<std::atomic<uint32_t>> per_job(4000);
  for (size_t job = 0; job < per_job.size(); ++job) {
    pool.ParallelFor(0, 2, 1, [&](size_t begin, size_t end) {
      per_job[job].fetch_add(static_cast<uint32_t>(end - begin));
    });
  }
  for (size_t job = 0; job < per_job.size(); ++job) {
    ASSERT_EQ(per_job[job].load(), 2u) << "job " << job;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<size_t> inner_total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t, size_t) {
    // Issued from inside a worker, this must degrade to inline serial
    // execution rather than re-entering the pool.
    pool.ParallelFor(0, 10, 2, [&](size_t begin, size_t end) {
      inner_total.fetch_add(end - begin);
    });
  });
  EXPECT_EQ(inner_total.load(), 80u);
}

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  std::vector<std::atomic<int>> runs(200);
  {
    ThreadPool pool(4);
    for (size_t i = 0; i < runs.size(); ++i) {
      pool.Submit([&runs, i] { runs[i].fetch_add(1); });
    }
    // The destructor joins workers and drains whatever was still queued.
  }
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, SubmitOnSingleThreadPoolRunsInline) {
  // A 1-thread pool has no workers: Submit executes on the caller, so
  // completion is ordered with the submitting code.
  ThreadPool pool(1);
  int value = 0;
  pool.Submit([&value] { value = 42; });
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolTest, SubmitInterleavesWithParallelFor) {
  std::atomic<int> tasks{0};
  std::atomic<size_t> visited{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 50; ++i) pool.Submit([&tasks] { ++tasks; });
    pool.ParallelFor(0, 1000, 16, [&](size_t begin, size_t end) {
      visited += end - begin;
    });
    for (int i = 0; i < 50; ++i) pool.Submit([&tasks] { ++tasks; });
  }
  EXPECT_EQ(visited.load(), 1000u);
  EXPECT_EQ(tasks.load(), 100);
}

TEST(ExecutionContextTest, NullPoolRunsSerially) {
  const ExecutionContext ctx;  // no pool
  std::vector<size_t> order;
  ctx.ParallelFor(0, 6, 2, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) order.push_back(i);
  });
  std::vector<size_t> expected(6);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ExecutionContextTest, ZeroGrainPicksDefaultAndCoversRange) {
  ThreadPool pool(4);
  const ExecutionContext ctx(&pool);
  const size_t n = 333;
  std::vector<std::atomic<int>> visits(n);
  ctx.ParallelFor(0, n, 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(RngForkTest, SameStreamIdSameSequence) {
  const Rng parent(42);
  Rng a = parent.Fork(7);
  Rng b = parent.Fork(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngForkTest, DifferentStreamIdsDiverge) {
  const Rng parent(42);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  bool differs = false;
  for (int i = 0; i < 16 && !differs; ++i) differs = a.NextU64() != b.NextU64();
  EXPECT_TRUE(differs);
}

TEST(RngForkTest, ForkDoesNotAdvanceParent) {
  Rng with_fork(42);
  (void)with_fork.Fork(3);
  Rng without_fork(42);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(with_fork.NextU64(), without_fork.NextU64());
}

TEST(ExecutionContextTest, StreamRngDependsOnlyOnSeedAndStream) {
  ThreadPool pool(2);
  const ExecutionContext ctx_a(&pool, /*seed=*/11);
  const ExecutionContext ctx_b(nullptr, /*seed=*/11);
  Rng a = ctx_a.StreamRng(5);
  Rng b = ctx_b.StreamRng(5);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(DefaultGrainTest, SerialGetsWholeRangeParallelGetsChunks) {
  EXPECT_EQ(DefaultGrain(100, 1), 100u);
  EXPECT_GE(DefaultGrain(0, 1), 1u);
  EXPECT_GE(DefaultGrain(100, 4), 1u);
  EXPECT_LE(DefaultGrain(100, 4), 100u);
}

}  // namespace
}  // namespace hdidx::common
