// Copyright (c) SkyBench-NG contributors.
// Sort-Filter Skyline (Chomicki, Godfrey, Gryz, Liang; ICDE 2003):
// presort by a monotone function of the coordinates (we use the L1 norm,
// as the paper's Q-Flow does) so that no point can be dominated by a
// successor; the window then only ever contains confirmed skyline points.
#ifndef SKY_BASELINES_SFS_H_
#define SKY_BASELINES_SFS_H_

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

Result SfsCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_BASELINES_SFS_H_
