// Copyright (c) SkyBench-NG contributors.
// Hybrid's pre-filter (paper §VI-A1): cheaply discard points that are
// dominated by one of a handful of "strong" low-L1 points before the
// heavier initialisation work (pivot selection, sorting).
#ifndef SKY_DATA_PREFILTER_H_
#define SKY_DATA_PREFILTER_H_

#include <cstddef>

#include "common/stats.h"
#include "data/working_set.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

/// Two parallel passes over `ws` (whose l1 must be computed):
///  1. each worker scans a contiguous chunk keeping a max-heap of the
///     `beta` points with smallest L1 norm it has seen; every other point
///     is tested against the heap's points and flagged if dominated;
///  2. every point is tested against the union of all workers' heaps.
/// Flagged points are then compacted away. Returns the number removed.
/// beta = 8 follows the paper's empirical setting.
size_t Prefilter(WorkingSet& ws, Executor::TaskGroup& group, int beta,
                 const DomCtx& dom, DtCounter* counter);

}  // namespace sky

#endif  // SKY_DATA_PREFILTER_H_
