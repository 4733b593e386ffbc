// WorkStealingPool contract: every index of parallel_for(n, fn) runs
// exactly once for any thread count, with stealing on or off; exceptions
// propagate to the caller and abort the job; a stealing-disabled pool
// never migrates a chunk. The determinism story the search engine builds
// on is exactly "each index exactly once" — which context runs it is
// free to vary, so these tests never assert placement.
#include "support/work_steal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hetsched::support {
namespace {

TEST(WorkStealingPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (const bool stealing : {false, true}) {
      WorkStealingPool pool(threads, stealing);
      EXPECT_EQ(pool.size(), threads);
      EXPECT_EQ(pool.stealing(), stealing);
      for (const std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
        std::vector<std::atomic<int>> counts(n);
        for (auto& c : counts) c.store(0);
        pool.parallel_for(n, [&](std::size_t i) {
          counts[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(counts[i].load(), 1)
              << "threads=" << threads << " stealing=" << stealing
              << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(WorkStealingPool, ReusableAcrossManyCalls) {
  WorkStealingPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int call = 0; call < 50; ++call)
    pool.parallel_for(100, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 5000u);
}

TEST(WorkStealingPool, PropagatesExceptionsAndSurvives) {
  WorkStealingPool pool(4);
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t i) {
                                   if (i == 137)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool is intact afterwards: the next job runs normally.
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(64, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 64u);
}

TEST(WorkStealingPool, NoStealsWhenStealingDisabled) {
  WorkStealingPool pool(4, /*stealing=*/false);
  // Heavily imbalanced work: context 0's chunks are slow, so with
  // stealing the idle contexts would migrate them. Disabled, the
  // counter must stay at zero no matter what.
  for (int rep = 0; rep < 5; ++rep)
    pool.parallel_for(256, [&](std::size_t i) {
      if (i % 64 == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(WorkStealingPool, StealsMoveWorkUnderImbalance) {
  WorkStealingPool pool(4, /*stealing=*/true);
  if (pool.size() < 2) GTEST_SKIP() << "needs at least two contexts";
  // Indices in the first chunks sleep; the rest are free. The stealing
  // contexts should take chunks from the loaded deques at least once
  // across the repetitions (scheduling-dependent, hence the retry loop —
  // but with 10 ms of sleep per slow chunk and 5 reps, a zero steal
  // count means stealing is broken, not unlucky).
  for (int rep = 0; rep < 5 && pool.steals() == 0; ++rep)
    pool.parallel_for(512, [&](std::size_t i) {
      if (i < 128) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  EXPECT_GT(pool.steals(), 0u);
}

TEST(WorkStealingPool, ConcurrentCallersSerializeSafely) {
  WorkStealingPool pool(4);
  std::vector<std::atomic<int>> counts(2000);
  for (auto& c : counts) c.store(0);
  std::thread other([&] {
    pool.parallel_for(1000, [&](std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  pool.parallel_for(1000, [&](std::size_t i) {
    counts[1000 + i].fetch_add(1, std::memory_order_relaxed);
  });
  other.join();
  for (std::size_t i = 0; i < counts.size(); ++i)
    ASSERT_EQ(counts[i].load(), 1) << "i=" << i;
}

// parallel_for must not return while an index is still to run. A
// worker that joined a job only after the caller had read "no context
// running", and popped its last chunk before the caller scanned the
// deques, used to let the caller return mid-chunk: the index ran late
// (a default result slot, or a write into a destroyed one). Several
// oversubscribed callers with tiny jobs make that interleaving common.
TEST(WorkStealingPool, EveryIndexHasRunWhenParallelForReturns) {
  constexpr int kCallers = 6, kCalls = 100000;
  std::atomic<int> early_returns{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t)
    callers.emplace_back([&early_returns, t] {
      WorkStealingPool pool(4, /*stealing=*/t % 2 == 0);
      for (int call = 0; call < kCalls; ++call) {
        const std::size_t n = 2 + static_cast<std::size_t>(call % 7);
        std::vector<std::atomic<int>> counts(n);
        for (auto& c : counts) c.store(0);
        pool.parallel_for(n, [&](std::size_t i) {
          counts[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& c : counts)
          if (c.load() != 1) {
            early_returns.fetch_add(1);
            break;
          }
      }
    });
  for (auto& c : callers) c.join();
  EXPECT_EQ(early_returns.load(), 0);
}

TEST(WorkStealingPool, ZeroThreadsMeansHardwareConcurrency) {
  WorkStealingPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(10, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 10u);
}

}  // namespace
}  // namespace hetsched::support
