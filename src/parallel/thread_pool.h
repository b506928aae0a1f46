// Copyright (c) SkyBench-NG contributors.
// Compatibility shim. Library code opens Executor::TaskGroup directly;
// this name exists only because bench/e2e/workloads.cc compiles against
// sky::ThreadPool(int) and its ParallelFor.
#ifndef SKY_PARALLEL_THREAD_POOL_H_
#define SKY_PARALLEL_THREAD_POOL_H_

#include "parallel/executor.h"

namespace sky {

/// A TaskGroup of width `threads` on Executor::Default() (serial, with no
/// default executor constructed, when `threads` <= 1).
class ThreadPool : public Executor::TaskGroup {
 public:
  explicit ThreadPool(int threads)
      : TaskGroup(threads > 1 ? &Executor::Default() : nullptr, threads) {}
};

}  // namespace sky

#endif  // SKY_PARALLEL_THREAD_POOL_H_
