// Copyright (c) SkyBench-NG contributors.
// Pivot selection policies (paper §VI-A2, evaluated in Fig. 9) and
// partition-mask assignment.
#ifndef SKY_DATA_PARTITION_H_
#define SKY_DATA_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/working_set.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

enum class PivotPolicy : uint8_t {
  kMedian,     ///< virtual point of per-dimension medians (paper default)
  kBalanced,   ///< skyline point with minimum normalised range [15]
  kManhattan,  ///< point with minimum L1 norm [9]
  kVolume,     ///< point with maximum coordinate product [2]
  kRandom,     ///< random skyline point via one-way DT replacement [23]
};

const char* PivotPolicyName(PivotPolicy policy);
PivotPolicy ParsePivotPolicy(const std::string& name);

/// Compute the pivot vector for `ws` under `policy`. Returned vector has
/// `ws.stride` entries (zero padded) so it can feed SIMD mask kernels.
/// `seed` drives kRandom. Requires ws.l1 for kManhattan/kBalanced.
std::vector<Value> SelectPivot(const WorkingSet& ws, PivotPolicy policy,
                               Executor::TaskGroup& group, uint64_t seed);

/// Fill ws.masks with each point's partition mask relative to `pivot`
/// (bit i set iff point[i] >= pivot[i]), in parallel.
void AssignMasks(WorkingSet& ws, const Value* pivot, const DomCtx& dom,
                 Executor::TaskGroup& group);

}  // namespace sky

#endif  // SKY_DATA_PARTITION_H_
