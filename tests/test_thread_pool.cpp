#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace bnsgcn::common {
namespace {

// Restores the calling thread's kernel budget on scope exit so tests can't
// leak an oversubscribed setting into each other.
struct ScopedOpsThreads {
  explicit ScopedOpsThreads(int k) : saved(ops_threads()) {
    set_ops_threads(k);
  }
  ~ScopedOpsThreads() { set_ops_threads(saved); }
  int saved;
};

using Blocks = std::vector<std::pair<std::int64_t, std::int64_t>>;

Blocks record_blocks(std::int64_t n, std::int64_t block, int threads) {
  Blocks got;
  std::mutex mu;
  ThreadPool::instance().parallel_for(
      n, block, threads, [&](std::int64_t b0, std::int64_t b1) {
        std::lock_guard<std::mutex> lock(mu);
        got.emplace_back(b0, b1);
      });
  std::sort(got.begin(), got.end());
  return got;
}

TEST(ThreadPool, InstanceIsProcessWideAndLazy) {
  ThreadPool& a = ThreadPool::instance();
  ThreadPool& b = ThreadPool::instance();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, SpawnsHelpersOnDemand) {
  ThreadPool& pool = ThreadPool::instance();
  // A K-lane call needs K-1 helpers; the pool only grows, so after this
  // call at least 3 workers exist regardless of what ran before.
  pool.parallel_for(256, 1, 4, [](std::int64_t, std::int64_t) {});
  EXPECT_GE(pool.workers(), 3);
  EXPECT_LE(pool.workers(), ThreadPool::kMaxWorkers);
}

TEST(ThreadPool, BlockGeometryIsAFunctionOfShapeAlone) {
  // The determinism contract: blocks are [i*block, min((i+1)*block, n))
  // for every thread count — thread count and claim order never change
  // the partition, only which lane runs which block.
  for (const std::int64_t n : {1, 7, 64, 65, 200, 1000}) {
    for (const std::int64_t block : {1, 3, 64}) {
      Blocks expect;
      for (std::int64_t i0 = 0; i0 < n; i0 += block)
        expect.emplace_back(i0, std::min<std::int64_t>(i0 + block, n));
      for (const int k : {1, 2, 3, 7}) {
        EXPECT_EQ(record_blocks(n, block, k), expect)
            << "n=" << n << " block=" << block << " threads=" << k;
      }
    }
  }
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  constexpr std::int64_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  ThreadPool::instance().parallel_for(
      kN, 5, 7, [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t i = b0; i < b1; ++i)
          hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
  for (std::int64_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  ThreadPool::instance().parallel_for(
      0, 8, 4, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, WorkerExceptionReachesTheCaller) {
  std::atomic<int> ran{0};
  try {
    ThreadPool::instance().parallel_for(
        100, 1, 4, [&](std::int64_t b0, std::int64_t) {
          ran.fetch_add(1);
          if (b0 == 41) throw std::runtime_error("lane failure");
        });
    FAIL() << "expected the lane's exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane failure");
  }
  // No block is abandoned: lanes drain the remaining blocks before the
  // rethrow, so the output region is never half-finished.
  EXPECT_EQ(ran.load(), 100);
  // And the pool stays usable afterwards.
  std::atomic<std::int64_t> sum{0};
  ThreadPool::instance().parallel_for(
      10, 1, 4, [&](std::int64_t b0, std::int64_t) { sum.fetch_add(b0); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedCallsRunInlineInsteadOfDeadlocking) {
  // A pooled kernel may call another pooled kernel (e.g. a layer calling
  // two ops back to back inside a fold). Every lane — pool workers and the
  // caller draining its own job alike — must run the inner parallel_for
  // inline: enqueueing to its own pool would deadlock, and publishing a
  // second job from the caller's lane would let helpers run inner blocks
  // concurrently with the block that called it.
  constexpr std::int64_t kOuter = 12;
  std::vector<std::int64_t> inner_sums(kOuter, 0);
  std::atomic<int> off_lane_blocks{0};
  ThreadPool::instance().parallel_for(
      kOuter, 1, 4, [&](std::int64_t b0, std::int64_t) {
        EXPECT_TRUE(ThreadPool::in_lane());
        const std::thread::id lane = std::this_thread::get_id();
        std::int64_t local = 0;
        ThreadPool::instance().parallel_for(
            100, 7, 4,
            [&](std::int64_t i0, std::int64_t i1) {
              // Inline = serial on this lane, so unsynchronized writes to
              // `local` are safe; TSAN holds this test to that claim.
              if (std::this_thread::get_id() != lane) off_lane_blocks++;
              for (std::int64_t i = i0; i < i1; ++i) local += i;
            });
        inner_sums[static_cast<std::size_t>(b0)] = local;
      });
  for (const std::int64_t s : inner_sums) EXPECT_EQ(s, 4950);
  EXPECT_EQ(off_lane_blocks.load(), 0);
  EXPECT_FALSE(ThreadPool::in_lane());
}

TEST(ThreadPool, OnWorkerThreadDistinguishesLanes) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  std::atomic<int> worker_lanes{0};
  std::atomic<bool> timed_out{false};
  ThreadPool::instance().parallel_for(
      64, 1, 4, [&](std::int64_t, std::int64_t) {
        if (ThreadPool::on_worker_thread()) {
          worker_lanes.fetch_add(1);
          return;
        }
        // The caller's lane: on a single-core box it can otherwise drain
        // every block before a helper is even scheduled, so hold this
        // block until one helper has demonstrably run (bounded wait).
        for (int spin = 0; worker_lanes.load() == 0 && spin < 10000; ++spin)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (worker_lanes.load() == 0) timed_out.store(true);
      });
  EXPECT_FALSE(timed_out.load()) << "no pool worker ever ran a block";
  EXPECT_GT(worker_lanes.load(), 0);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, OpsThreadsIsPerThreadAndClamped) {
  EXPECT_GE(ops_threads(), 1);
  {
    ScopedOpsThreads guard(5);
    EXPECT_EQ(ops_threads(), 5);
    set_ops_threads(0);
    EXPECT_EQ(ops_threads(), 1);
    set_ops_threads(-3);
    EXPECT_EQ(ops_threads(), 1);
  }
}

TEST(ThreadPool, ClampRankThreadsEnforcesTheCoreBudget) {
  // P ranks × K lanes must fit in the hardware budget: K_eff =
  // min(requested, max(1, hw / nranks)).
  EXPECT_EQ(clamp_rank_threads(8, 2, 8), 4);
  EXPECT_EQ(clamp_rank_threads(8, 4, 8), 2);
  EXPECT_EQ(clamp_rank_threads(8, 3, 8), 2);  // floor(8/3)
  EXPECT_EQ(clamp_rank_threads(8, 16, 8), 1); // more ranks than cores
  EXPECT_EQ(clamp_rank_threads(2, 2, 8), 2);  // request below the cap
  EXPECT_EQ(clamp_rank_threads(1, 1, 8), 1);
  EXPECT_EQ(clamp_rank_threads(0, 2, 8), 1);  // degenerate request
  EXPECT_EQ(clamp_rank_threads(4, 1, 1), 1);  // single-core box
  // hardware=0 detects; whatever the box, the result is a valid budget.
  const int detected = clamp_rank_threads(4, 2);
  EXPECT_GE(detected, 1);
  EXPECT_LE(detected, 4);
}

TEST(ThreadPool, ForBlocksHonorsThisThreadsBudget) {
  // for_blocks is the kernel entry point: serial at budget 1, pooled
  // above — with identical block geometry either way.
  Blocks serial, pooled;
  {
    ScopedOpsThreads guard(1);
    for_blocks(100, 7, [&](std::int64_t b0, std::int64_t b1) {
      serial.emplace_back(b0, b1);
    });
  }
  {
    ScopedOpsThreads guard(4);
    std::mutex mu;
    for_blocks(100, 7, [&](std::int64_t b0, std::int64_t b1) {
      std::lock_guard<std::mutex> lock(mu);
      pooled.emplace_back(b0, b1);
    });
  }
  std::sort(pooled.begin(), pooled.end());
  EXPECT_EQ(serial, pooled);
}

} // namespace
} // namespace bnsgcn::common
