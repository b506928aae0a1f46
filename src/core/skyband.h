// Copyright (c) SkyBench-NG contributors.
// k-skyband (extension): all points dominated by fewer than k others —
// the standard generalisation of the skyline (k = 1). Useful when the
// skyline alone is too sparse (top-k alternatives per trade-off). The
// parallel variant reuses the paper's α-block flow: because every
// dominator of a k-skyband member is itself a k-skyband member (the
// dominator's dominators are a subset of the member's), the globally
// shared band is a sufficient filter — the same argument that lets
// Q-Flow keep only the skyline.
#ifndef SKY_CORE_SKYBAND_H_
#define SKY_CORE_SKYBAND_H_

#include <vector>

#include "core/options.h"
#include "data/dataset.h"
#include "data/row_source.h"

namespace sky {

struct SkybandResult {
  /// Original row ids of all points with fewer than k dominators.
  std::vector<PointId> skyband;
  /// Exact dominator count of each member (same order as `skyband`).
  std::vector<uint32_t> dominator_counts;
  RunStats stats;
};

/// Compute the k-skyband of the rows `source` loads (ids are source
/// rows). k >= 1; k == 1 yields the skyline. opts.threads > 1 selects the
/// parallel block algorithm; opts.alpha, opts.use_simd and opts.count_dts
/// are honored. Other algorithm-selection fields ignored.
SkybandResult ComputeSkyband(const RowSource& source, uint32_t k,
                             const Options& opts = Options{});

/// The k-skyband of `data` itself (its identity source).
SkybandResult ComputeSkyband(const Dataset& data, uint32_t k,
                             const Options& opts = Options{});

}  // namespace sky

#endif  // SKY_CORE_SKYBAND_H_
