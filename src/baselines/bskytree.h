// Copyright (c) SkyBench-NG contributors.
// BSkyTree-P (Lee & Hwang, Inf. Syst. 2014): the state-of-the-art
// sequential skyline algorithm the paper benchmarks against. Recursive
// point-based space partitioning with balanced pivot selection and a
// SkyTree over confirmed skyline points.
#ifndef SKY_BASELINES_BSKYTREE_H_
#define SKY_BASELINES_BSKYTREE_H_

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

Result BSkyTreeCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_BASELINES_BSKYTREE_H_
