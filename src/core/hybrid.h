// Copyright (c) SkyBench-NG contributors.
// Hybrid (paper §VI): Q-Flow's block flow of control combined with
// point-based partitioning — pre-filter, pivot partitioning, composite
// (level, mask, L1) sort, the M(S) structure for Phase I, and the
// three-loop decomposition of Phase II.
#ifndef SKY_CORE_HYBRID_H_
#define SKY_CORE_HYBRID_H_

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

/// Compute SKY(data) with Hybrid. Honors opts.threads, opts.alpha,
/// opts.pivot, opts.prefilter_beta, opts.use_simd, opts.count_dts and
/// opts.progressive.
Result HybridCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_CORE_HYBRID_H_
