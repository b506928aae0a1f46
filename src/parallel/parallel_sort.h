// Copyright (c) SkyBench-NG contributors.
// Parallel merge sort used by the initialization phases ("Init." in paper
// Figs. 7/8 covers L1 computation + sorting; both are parallelized).
#ifndef SKY_PARALLEL_PARALLEL_SORT_H_
#define SKY_PARALLEL_PARALLEL_SORT_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/executor.h"

namespace sky {

/// Sort `v` ascending by `less` on `group`: the vector is cut into one
/// chunk per worker, chunks are std::sort-ed in parallel, then log(t)
/// rounds of pairwise std::inplace_merge (independent pairs merged in
/// parallel). Not stable. Falls back to std::sort for small inputs or a
/// single worker.
template <typename T, typename Less = std::less<T>>
void ParallelSort(std::vector<T>& v, Executor::TaskGroup& group,
                  Less less = Less{}) {
  const size_t n = v.size();
  const int t = group.parallelism();
  if (t == 1 || n < (1u << 14)) {
    std::sort(v.begin(), v.end(), less);
    return;
  }
  const size_t per = (n + static_cast<size_t>(t) - 1) / static_cast<size_t>(t);
  std::vector<size_t> bounds;
  for (size_t b = 0; b < n; b += per) bounds.push_back(b);
  bounds.push_back(n);
  const size_t chunks = bounds.size() - 1;
  group.ParallelFor(chunks, 1, [&](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      std::sort(v.begin() + static_cast<ptrdiff_t>(bounds[c]),
                v.begin() + static_cast<ptrdiff_t>(bounds[c + 1]), less);
    }
  });
  for (size_t step = 1; step < chunks; step *= 2) {
    std::vector<std::array<size_t, 3>> merges;
    for (size_t i = 0; i + step < chunks; i += 2 * step) {
      merges.push_back({bounds[i], bounds[i + step],
                        bounds[std::min(i + 2 * step, chunks)]});
    }
    group.ParallelFor(merges.size(), 1, [&](size_t b, size_t e) {
      for (size_t m = b; m < e; ++m) {
        std::inplace_merge(v.begin() + static_cast<ptrdiff_t>(merges[m][0]),
                           v.begin() + static_cast<ptrdiff_t>(merges[m][1]),
                           v.begin() + static_cast<ptrdiff_t>(merges[m][2]),
                           less);
      }
    });
  }
}

/// Convenience instantiation for packed uint64 keys.
void ParallelSortU64(std::vector<uint64_t>& keys, Executor::TaskGroup& group);

}  // namespace sky

#endif  // SKY_PARALLEL_PARALLEL_SORT_H_
