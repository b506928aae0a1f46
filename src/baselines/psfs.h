// Copyright (c) SkyBench-NG contributors.
// PSFS (Im & Park, Inf. Syst. 2011): parallel Sort-Filter-Skyline, the
// naive baseline the paper calls "a weaker version of our Q-Flow".
// Blocks of the L1-sorted input are screened against the confirmed window
// in parallel (like Q-Flow Phase I), but the peer resolution within a
// block is sequential — there is no parallel Phase II.
#ifndef SKY_BASELINES_PSFS_H_
#define SKY_BASELINES_PSFS_H_

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

Result PsfsCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_BASELINES_PSFS_H_
