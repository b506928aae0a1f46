// Copyright (c) SkyBench-NG contributors.
// LESS (Godfrey, Shipley, Gryz; VLDB J. 2007): "Linear Elimination Sort
// for Skyline". The paper's related work (§III) groups it with SFS and
// SaLSa ("all three have similar performance"); it is included to
// complete the sort-based family. LESS folds dominance elimination into
// the sort itself: pass 0 streams the data through a small
// elimination-filter (EF) window of the best points seen, discarding the
// bulk of dominated points before the (cheaper) sort of the survivors;
// an SFS-style filter pass finishes the job.
#ifndef SKY_BASELINES_LESS_H_
#define SKY_BASELINES_LESS_H_

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

Result LessCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_BASELINES_LESS_H_
