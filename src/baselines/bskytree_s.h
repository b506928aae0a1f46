// Copyright (c) SkyBench-NG contributors.
// BSkyTree-S (Lee & Hwang, Inf. Syst. 2014): the variant of BSkyTree the
// paper's §III singles out as using "neither recursion nor the data
// structure". One global pivot partitions the data; points are sorted by
// (level, mask, L1) and scanned SFS-style, with pairwise dominance tests
// guarded by the mask incomparability filter. It sits between SFS (no
// partitioning) and BSkyTree-P (recursive partitioning + SkyTree), and is
// structurally the sequential skeleton Hybrid's Phase II generalizes.
#ifndef SKY_BASELINES_BSKYTREE_S_H_
#define SKY_BASELINES_BSKYTREE_S_H_

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

Result BSkyTreeSCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_BASELINES_BSKYTREE_S_H_
