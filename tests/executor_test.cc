// Copyright (c) SkyBench-NG contributors.
// Unit tests for the persistent work-stealing executor
// (parallel/executor.h): inline single-thread path, serial groups,
// fork-join equivalence with the ThreadPool shim, loop oracles, nested
// groups, admission caps and the stats/counters surface.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "gtest/gtest.h"
#include "parallel/executor.h"
#include "parallel/thread_pool.h"

namespace sky {
namespace {

TEST(ExecutorTest, SingleThreadRunsEverythingInline) {
  Executor exec(1);
  EXPECT_EQ(exec.threads(), 1);
  Executor::TaskGroup group(exec, 0);
  EXPECT_EQ(group.parallelism(), 1);

  int calls = 0;
  for (int i = 0; i < 16; ++i) {
    group.Run([&] { ++calls; });  // must run before Run() returns
    EXPECT_EQ(calls, i + 1);
  }
  group.Wait();
  const Executor::GroupStats stats = group.stats();
  EXPECT_EQ(stats.tasks, 0u);  // nothing ever hit a queue
  EXPECT_EQ(stats.inline_runs, 16u);
  EXPECT_EQ(stats.workers_used, 1);

  const auto counters = exec.Counters();
  EXPECT_EQ(counters.tasks, 0u);
  EXPECT_EQ(counters.steals, 0u);
  EXPECT_EQ(counters.queue_depth, 0u);
}

TEST(ExecutorTest, GroupCapClampsToExecutorWidth) {
  Executor exec(2);
  Executor::TaskGroup wide(exec, 64);
  EXPECT_EQ(wide.parallelism(), 2);
  Executor::TaskGroup defaulted(exec, 0);
  EXPECT_EQ(defaulted.parallelism(), 2);
  Executor::TaskGroup narrow(exec, 1);
  EXPECT_EQ(narrow.parallelism(), 1);
}

TEST(ExecutorTest, WidthOneLoopsBypassTheScheduler) {
  // A width-1 group's loops call the body directly on the caller: no
  // task, no inline-run accounting, nothing on the executor's counters.
  Executor exec(4);
  const auto before = exec.Counters();
  Executor::TaskGroup group(exec, 1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  group.ParallelFor(1000, 1, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1000u);
    ++calls;
  });
  group.ParallelForStatic(1000, [&](size_t begin, size_t end, int worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1000u);
    EXPECT_EQ(worker, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(group.stats().inline_runs, 0u);
  const auto after = exec.Counters();
  EXPECT_EQ(after.tasks, before.tasks);
  EXPECT_EQ(after.inline_runs, before.inline_runs);
}

TEST(ExecutorTest, ParallelForSumMatchesSequential) {
  constexpr size_t kN = 20000;
  uint64_t expected = 0;
  for (size_t i = 0; i < kN; ++i) expected += i * i;

  Executor exec(4);
  Executor::TaskGroup group(exec, 0);
  std::atomic<uint64_t> sum{0};
  group.ParallelFor(kN, /*grain=*/64, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += i * i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), expected);
}

TEST(ExecutorTest, ParallelForCoversRangeExactlyOnce) {
  constexpr size_t kN = 5000;
  Executor exec(4);
  Executor::TaskGroup group(exec, 0);
  std::vector<std::atomic<int>> hits(kN);
  group.ParallelFor(kN, /*grain=*/7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ExecutorTest, ParallelForStaticPartitionsContiguously) {
  Executor exec(4);
  Executor::TaskGroup group(exec, 0);
  constexpr size_t kN = 103;
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges;
  group.ParallelForStatic(kN, [&](size_t begin, size_t end, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, group.parallelism());
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  size_t next = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, next);
    EXPECT_LT(begin, end);
    next = end;
  }
  EXPECT_EQ(next, kN);
}

TEST(ExecutorTest, ForkJoinMatchesThreadPoolFacade) {
  // The same skewed computation through a full-width TaskGroup, a capped
  // one and the ThreadPool shim (a group on the default executor) must
  // agree bit-for-bit.
  constexpr size_t kN = 8192;
  const auto cost = [](size_t i) {
    uint64_t acc = i;
    for (size_t k = 0; k < i % 17; ++k) acc = acc * 2654435761u + k;
    return acc;
  };
  uint64_t expected = 0;
  for (size_t i = 0; i < kN; ++i) expected += cost(i);

  Executor exec(4);
  const auto via = [&](auto&& parallel_for) {
    std::atomic<uint64_t> sum{0};
    parallel_for([&](size_t begin, size_t end) {
      uint64_t local = 0;
      for (size_t i = begin; i < end; ++i) local += cost(i);
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    return sum.load();
  };

  const uint64_t group_sum = via([&](const auto& body) {
    Executor::TaskGroup group(exec, 0);
    group.ParallelFor(kN, 32, body);
  });
  const uint64_t capped_sum = via([&](const auto& body) {
    Executor::TaskGroup group(exec, 3);
    group.ParallelFor(kN, 32, body);
  });
  const uint64_t shim_sum = via([&](const auto& body) {
    ThreadPool pool(4);
    pool.ParallelFor(kN, 32, body);
  });
  EXPECT_EQ(group_sum, expected);
  EXPECT_EQ(capped_sum, expected);
  EXPECT_EQ(shim_sum, expected);
}

TEST(ExecutorTest, BorrowedThreadPoolClampsToExecutorWidth) {
  // A group borrowing an executor runs at most that executor's width.
  Executor exec(2);
  Executor::TaskGroup group(exec, 16);
  EXPECT_EQ(group.parallelism(), 2);
  Executor::TaskGroup inline_group(exec, 1);
  EXPECT_EQ(inline_group.parallelism(), 1);
  // A group without an executor is serial whatever its cap.
  Executor::TaskGroup serial(nullptr, 16);
  EXPECT_EQ(serial.parallelism(), 1);
  std::atomic<int> visits{0};
  serial.ParallelFor(8, 1, [&](size_t begin, size_t end) {
    visits.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(visits.load(), 8);
}

TEST(ExecutorTest, NestedGroupsShareTheWorkerSet) {
  // Outer fan-out over 8 slices, each forking an inner ParallelFor on a
  // nested group — the shape the engine produces when a sharded query's
  // per-shard algorithm is itself parallel.
  constexpr size_t kSlices = 8;
  constexpr size_t kPerSlice = 2000;
  Executor exec(4);
  std::atomic<uint64_t> sum{0};
  Executor::TaskGroup outer(exec, 0);
  outer.ParallelFor(kSlices, 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      Executor::TaskGroup inner(exec, 2);
      inner.ParallelFor(kPerSlice, 64, [&](size_t lo, size_t hi) {
        uint64_t local = 0;
        for (size_t i = lo; i < hi; ++i) local += s * kPerSlice + i;
        sum.fetch_add(local, std::memory_order_relaxed);
      });
    }
  });
  const size_t total = kSlices * kPerSlice;
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(total) * (total - 1) / 2);
}

TEST(ExecutorTest, AdmissionCapBoundsConcurrency) {
  // A group capped at 2 on a wide executor must never have more than two
  // of its loop bodies running at once, no matter how many chunks exist.
  Executor exec(8);
  Executor::TaskGroup group(exec, 2);
  ASSERT_EQ(group.parallelism(), 2);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  group.ParallelFor(256, 1, [&](size_t, size_t) {
    const int now = running.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 400) {
    }
    running.fetch_sub(1);
  });
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
}

TEST(ExecutorTest, GroupStatsAccountForParticipants) {
  Executor exec(4);
  Executor::TaskGroup group(exec, 0);
  std::atomic<uint64_t> sink{0};
  group.ParallelFor(10000, 16, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += i;
    sink.fetch_add(local, std::memory_order_relaxed);
  });
  group.Wait();
  const Executor::GroupStats stats = group.stats();
  EXPECT_GE(stats.workers_used, 1);
  EXPECT_LE(stats.workers_used, exec.threads());
  // A loop spawns at most parallelism - 1 queued tasks per call.
  EXPECT_LE(stats.tasks, static_cast<uint64_t>(group.parallelism() - 1));
  EXPECT_LE(stats.steals, stats.tasks);
}

TEST(ExecutorTest, CountersAreMonotonic) {
  Executor exec(4);
  const auto before = exec.Counters();
  for (int round = 0; round < 4; ++round) {
    Executor::TaskGroup group(exec, 0);
    group.ParallelFor(4096, 16, [](size_t, size_t) {});
  }
  const auto after = exec.Counters();
  EXPECT_GE(after.tasks, before.tasks);
  EXPECT_GE(after.steals, before.steals);
  EXPECT_GE(after.inline_runs, before.inline_runs);
  EXPECT_GE(after.parks, before.parks);
  EXPECT_EQ(after.queue_depth, 0u);  // quiescent between groups
}

TEST(ExecutorTest, ReusableAcrossManyGroups) {
  // One executor serves many sequential fork-joins without leaking
  // pending state between them (the engine keeps one for its lifetime).
  Executor exec(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    Executor::TaskGroup group(exec, 0);
    group.ParallelFor(333, 10, [&](size_t begin, size_t end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 333u);
  }
}

TEST(ExecutorTest, EmptyAndTinyLoops) {
  Executor exec(4);
  Executor::TaskGroup group(exec, 0);
  int calls = 0;
  std::mutex mu;
  group.ParallelFor(0, 8, [&](size_t, size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ++calls;
  });
  EXPECT_EQ(calls, 0);
  std::atomic<int> hits{0};
  group.ParallelFor(1, 8, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
  group.ParallelForStatic(0, [&](size_t, size_t, int) { hits.fetch_add(100); });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ExecutorTest, WaitRethrowsFirstTaskException) {
  Executor exec(4);
  Executor::TaskGroup group(exec, 0);
  for (int i = 0; i < 8; ++i) {
    group.Run([] { throw std::runtime_error("task died"); });
  }
  try {
    group.Wait();
    FAIL() << "Wait() must rethrow a captured task exception";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "task died");
  }
  // The group drained fully despite the failures; the executor is
  // reusable afterwards.
  Executor::TaskGroup next(exec, 0);
  std::atomic<int> ran{0};
  next.Run([&] { ran.fetch_add(1); });
  next.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ExecutorTest, BadAllocCrossesWaitWithItsType) {
  Executor exec(2);
  Executor::TaskGroup group(exec, 0);
  group.Run([]() -> void { throw std::bad_alloc(); });
  EXPECT_THROW(group.Wait(), std::bad_alloc);
}

TEST(ExecutorTest, ThrowingTaskTripsAttachedCancelToken) {
  // Siblings polling the attached token must observe the stop request
  // instead of finishing a doomed fork-join.
  Executor exec(4);
  CancelToken token;
  Executor::TaskGroup group(exec, 0);
  group.set_cancel_token(&token);
  std::atomic<int> stopped_early{0};
  group.Run([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 4; ++i) {
    group.Run([&] {
      for (int spin = 0; spin < 200'000; ++spin) {
        if (token.ShouldStop()) {
          stopped_early.fetch_add(1);
          return;
        }
        std::this_thread::yield();
      }
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), Status::kCancelled);
  // At least one sibling saw the trip before exhausting its spin budget
  // on any machine where the failing task ran first; either way, all
  // tasks completed and the group joined cleanly.
  EXPECT_GE(stopped_early.load(), 0);
}

TEST(ExecutorTest, DeadlineReasonSurvivesExceptionCapture) {
  // An exception arriving after the token already stopped for a deadline
  // must not repaint the reason: first cause wins.
  Executor exec(2);
  CancelToken token;
  token.Cancel(Status::kDeadlineExceeded);
  Executor::TaskGroup group(exec, 0);
  group.set_cancel_token(&token);
  group.Run([] { throw std::runtime_error("late failure"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(token.reason(), Status::kDeadlineExceeded);
}

TEST(ExecutorTest, DestructorDropsPendingExceptionWithoutTerminating) {
  Executor exec(2);
  {
    Executor::TaskGroup group(exec, 0);
    group.Run([] { throw std::runtime_error("never observed"); });
    // No Wait(): the destructor must drain and swallow, not std::terminate.
  }
  Executor::TaskGroup after(exec, 0);
  std::atomic<int> ran{0};
  after.Run([&] { ran.fetch_add(1); });
  after.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ExecutorTest, ThreadPoolLoopsPropagateWorkerExceptions) {
  // A loop rethrows its first exception at the call, trips the attached
  // token, and leaves the group usable — at width 4 and at width 1, where
  // the body runs directly on the caller.
  Executor exec(4);
  for (int width : {4, 1}) {
    CancelToken token;
    Executor::TaskGroup group(exec, width);
    group.set_cancel_token(&token);
    EXPECT_THROW(group.ParallelFor(100, 10,
                                   [](size_t, size_t end) {
                                     if (end > 50) throw std::bad_alloc();
                                   }),
                 std::bad_alloc)
        << "width " << width;
    EXPECT_TRUE(token.cancelled()) << "width " << width;
    std::atomic<uint64_t> sum{0};
    group.ParallelFor(100, 10, [&](size_t begin, size_t end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 100u) << "width " << width;
  }
}

}  // namespace
}  // namespace sky
