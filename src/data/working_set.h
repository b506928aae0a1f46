// Copyright (c) SkyBench-NG contributors.
// Mutable per-run copy of a Dataset that algorithms are free to permute,
// annotate (L1 norms, partition masks) and compact. Keeping original ids
// alongside the rows lets every algorithm report results as indices into
// the caller's Dataset regardless of internal reordering.
#ifndef SKY_DATA_WORKING_SET_H_
#define SKY_DATA_WORKING_SET_H_

#include <cstring>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"
#include "data/dataset.h"
#include "parallel/executor.h"

namespace sky {

struct WorkingSet {
  int dims = 0;
  int stride = 0;
  size_t count = 0;
  AlignedBuffer<Value> rows;   ///< count * stride floats, zero padded
  std::vector<PointId> ids;    ///< original Dataset row of each point
  std::vector<float> l1;       ///< Manhattan norms (after ComputeL1)
  std::vector<Mask> masks;     ///< level-1 partition masks (after AssignMasks)

  /// Deep-copy the dataset. O(n d) and parallelised.
  static WorkingSet FromDataset(const Dataset& data,
                                Executor::TaskGroup& group);

  const Value* Row(size_t i) const {
    SKY_DCHECK(i < count);
    return rows.data() + i * static_cast<size_t>(stride);
  }
  Value* MutableRow(size_t i) {
    SKY_DCHECK(i < count);
    return rows.data() + i * static_cast<size_t>(stride);
  }

  /// Fill `l1` with Manhattan norms, in parallel ("Init." phase of the
  /// paper's Fig. 7/8 decomposition).
  void ComputeL1(Executor::TaskGroup& group);

  /// Reorder rows/ids/l1/masks so that new position k holds old element
  /// order[k]. `order` must be a permutation of [0, count).
  void PermuteBy(const std::vector<uint32_t>& order);

  /// Remove every point i in [begin, end) with flags[i - begin] != 0 by
  /// shifting survivors left within the range (the paper's "compression",
  /// §V-D). Points outside the range are untouched. Returns the number of
  /// survivors; they occupy [begin, begin + survivors) contiguously.
  size_t CompressRange(size_t begin, size_t end, const uint8_t* flags);

  /// In-place copy of a row (used by compression).
  void MoveRow(size_t dst, size_t src);
};

}  // namespace sky

#endif  // SKY_DATA_WORKING_SET_H_
