// Copyright (c) SkyBench-NG contributors.
// The process-default executor that calls without Options::executor
// borrow, and the ThreadPool shim over it: one object, where null-executor
// runs put their tasks, the clamp at its width, exception containment,
// and the shim's loop oracles.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/skyline.h"
#include "data/generator.h"
#include "parallel/executor.h"
#include "parallel/thread_pool.h"
#include "test_util.h"

namespace sky {
namespace {

Options RunOpts(Algorithm algo, int threads) {
  Options o;
  o.algorithm = algo;
  o.threads = threads;
  o.count_dts = true;
  return o;
}

std::vector<PointId> SortedSkyline(const Dataset& data, Algorithm algo,
                                   int threads) {
  return test::Sorted(ComputeSkyline(data, RunOpts(algo, threads)).skyline);
}

TEST(DefaultExecutor, IsOneObject) {
  Executor* first = &Executor::Default();
  Executor* from_thread = nullptr;
  std::jthread([&] { from_thread = &Executor::Default(); }).join();
  EXPECT_EQ(first, &Executor::Default());
  EXPECT_EQ(first, from_thread);
  EXPECT_EQ(first->threads(), Executor::DefaultThreads());
}

TEST(DefaultExecutor, NullExecutorRunRunsItsTasksThere) {
  if (Executor::DefaultThreads() == 1) {
    GTEST_SKIP() << "a 1-wide default executor runs every loop inline";
  }
  const Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 20000, 6, 3);
  const auto before = Executor::Default().Counters();
  const Result r = ComputeSkyline(data, RunOpts(Algorithm::kHybrid, 2));
  const auto after = Executor::Default().Counters();
  EXPECT_GT(after.tasks, before.tasks);
  EXPECT_FALSE(r.skyline.empty());
}

TEST(DefaultExecutor, WidthAboveDefaultClampsToIt) {
  // Past DefaultThreads() the run clamps to the default executor's width;
  // the answer is the t = 1 skyline.
  const Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 6000, 6, 5);
  const int over = Executor::DefaultThreads() + 1;
  for (Algorithm algo :
       {Algorithm::kHybrid, Algorithm::kQFlow, Algorithm::kPsfs,
        Algorithm::kPSkyline, Algorithm::kAPSkyline, Algorithm::kPBSkyTree}) {
    EXPECT_EQ(SortedSkyline(data, algo, over), SortedSkyline(data, algo, 1))
        << AlgorithmName(algo);
  }
}

TEST(DefaultExecutor, QFlowDominanceTestsMatchAPrivateExecutor) {
  // Q-Flow's dominance-test count is a pure function of the width, so a
  // run on the default executor counts what a private one of that width
  // counts.
  const Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 6000, 6, 7);
  for (int t = 1; t <= std::min(Executor::DefaultThreads(), 4); ++t) {
    Executor own(t);
    Options on_own = RunOpts(Algorithm::kQFlow, t);
    on_own.executor = &own;
    EXPECT_EQ(ComputeSkyline(data, RunOpts(Algorithm::kQFlow, t))
                  .stats.dominance_tests,
              ComputeSkyline(data, on_own).stats.dominance_tests)
        << "t=" << t;
  }
}

TEST(DefaultExecutor, FailedPhasePropagatesAndNextRunSucceeds) {
  if (Executor::DefaultThreads() == 1) {
    GTEST_SKIP() << "a 1-wide default executor queues no task to fail";
  }
  const Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 6000, 6, 9);
  const auto expect = SortedSkyline(data, Algorithm::kHybrid, 1);
  FailPoints::Instance().Arm("executor_task", FailPoints::Mode::kThrow);
  EXPECT_THROW(ComputeSkyline(data, RunOpts(Algorithm::kHybrid, 2)),
               std::runtime_error);
  FailPoints::Instance().DisarmAll();
  EXPECT_EQ(SortedSkyline(data, Algorithm::kHybrid, 2), expect);
}

// The ThreadPool shim: a TaskGroup on the default executor.

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.ParallelFor(10, 1, [&](size_t b, size_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 10u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, LoopsAreReusable) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(4, 1, [&](size_t b, size_t e) {
      total += static_cast<int>(e - b);
    });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 100'000;
  std::vector<std::atomic<uint8_t>> hit(kN);
  pool.ParallelFor(kN, 64, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hit[i]++;
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hit[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyAndTiny) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 16, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(3, 16, [&](size_t b, size_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 3u);
}

TEST(ThreadPool, ParallelForStaticPartitionsContiguously) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<int> owner(kN, -1);
  pool.ParallelForStatic(kN, [&](size_t b, size_t e, int w) {
    for (size_t i = b; i < e; ++i) owner[i] = w;
  });
  // Every element owned and owners form contiguous non-decreasing runs.
  for (size_t i = 0; i < kN; ++i) ASSERT_GE(owner[i], 0);
  for (size_t i = 1; i < kN; ++i) ASSERT_GE(owner[i], owner[i - 1]);
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
  ThreadPool pool(8);
  constexpr size_t kN = 1 << 18;
  std::vector<uint64_t> values(kN);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(kN, 1024, [&](size_t b, size_t e) {
    uint64_t local = 0;
    for (size_t i = b; i < e; ++i) local += values[i];
    sum += local;
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPool, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.ParallelFor(2, 1, [&](size_t b, size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, NestedDataParallelismViaSeparatePools) {
  // A loop body may open its own group on the same executor.
  ThreadPool outer(2);
  std::atomic<int> total{0};
  outer.ParallelFor(2, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      ThreadPool inner(2);
      inner.ParallelFor(10, 1, [&](size_t lo, size_t hi) {
        total += static_cast<int>(hi - lo);
      });
    }
  });
  EXPECT_EQ(total.load(), 20);
}

}  // namespace
}  // namespace sky
