// Copyright (c) SkyBench-NG contributors.
// Sort orders used by the algorithms:
//  * ascending L1 norm (Q-Flow, SFS; paper §V-A) — guarantees no point is
//    dominated by a successor and puts strong pruners first;
//  * (level, mask, L1) composite order (Hybrid; paper §VI-A3) via the
//    bit-hacked key K = (|m| << d) | m;
//  * ascending min-coordinate with L1 tie-break (SaLSa [2]) — enables
//    early termination.
#ifndef SKY_DATA_SORTING_H_
#define SKY_DATA_SORTING_H_

#include "data/working_set.h"
#include "parallel/executor.h"

namespace sky {

/// Sort ws ascending by L1 norm. Requires ws.l1.
void SortByL1(WorkingSet& ws, Executor::TaskGroup& group);

/// Sort ws by (level(mask), mask, L1). Requires ws.l1 and ws.masks.
void SortByMaskThenL1(WorkingSet& ws, Executor::TaskGroup& group);

/// Sort ws ascending by min coordinate, ties by L1. Requires ws.l1.
void SortByMinCoord(WorkingSet& ws, Executor::TaskGroup& group);

/// Postcondition check used by tests: true iff for every i < j the sort
/// key of i does not exceed that of j under ascending-L1 order.
bool IsSortedByL1(const WorkingSet& ws);

}  // namespace sky

#endif  // SKY_DATA_SORTING_H_
