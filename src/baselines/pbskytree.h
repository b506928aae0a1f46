// Copyright (c) SkyBench-NG contributors.
// PBSkyTree (paper Appendix A): the paper's non-trivial parallelization of
// BSkyTree. Recursion is halted below 64 points; halted sibling groups are
// accumulated (in DFS order) into work batches of up to 16 * threads
// points, which are then filtered in parallel against the current SkyTree
// and against preceding batch survivors, and attached as leaves.
// Partitioning (mask computation) is parallelized; pivot selection is not
// (its cost is negligible).
#ifndef SKY_BASELINES_PBSKYTREE_H_
#define SKY_BASELINES_PBSKYTREE_H_

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

Result PBSkyTreeCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_BASELINES_PBSKYTREE_H_
