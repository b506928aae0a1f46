// Copyright (c) SkyBench-NG contributors.
#include "parallel/parallel_sort.h"

namespace sky {

void ParallelSortU64(std::vector<uint64_t>& keys, Executor::TaskGroup& group) {
  ParallelSort(keys, group);
}

}  // namespace sky
