// Copyright (c) SkyBench-NG contributors.
// SaLSa (Bartolini, Ciaccia, Patella; TODS 2008): sort-based skyline with
// early termination. Points are sorted by minimum coordinate (ties by L1);
// the scan stops once the smallest unseen min-coordinate exceeds the
// smallest maximum coordinate among confirmed skyline points (the "stop
// point" dominates every remaining point).
#ifndef SKY_BASELINES_SALSA_H_
#define SKY_BASELINES_SALSA_H_

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

Result SalsaCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_BASELINES_SALSA_H_
