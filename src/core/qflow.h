// Copyright (c) SkyBench-NG contributors.
// Q-Flow (paper §V, Algorithm 1): the high-throughput block-processing
// flow of control with a globally shared skyline. Hybrid (§VI) layers
// point-based partitioning on top of this flow.
#ifndef SKY_CORE_QFLOW_H_
#define SKY_CORE_QFLOW_H_

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

/// Compute SKY(data) with Q-Flow. Honors opts.threads, opts.alpha,
/// opts.use_simd, opts.count_dts and opts.progressive.
Result QFlowCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_CORE_QFLOW_H_
