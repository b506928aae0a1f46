// Copyright (c) SkyBench-NG contributors.
// The Hybrid skyline data structure M(S) (paper §VI-B, Fig. 3): the global
// skyline stored as a contiguous, insertion-ordered array of points plus a
// flat vector of (mask, start) pairs — one per non-empty level-1 partition
// — terminated by a sentinel. Each partition's first point (the one with
// smallest L1 in the partition, by the global sort order) acts as its
// level-2 pivot; later members store their mask *relative to that pivot*.
#ifndef SKY_CORE_SKY_STRUCTURE_H_
#define SKY_CORE_SKY_STRUCTURE_H_

#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/stats.h"
#include "common/types.h"
#include "data/working_set.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"

namespace sky {

class SkyStructure {
 public:
  /// `capacity` bounds the number of skyline points ever appended (the
  /// caller passes n; the skyline cannot exceed the input).
  SkyStructure(int dims, int stride, size_t capacity);

  size_t size() const { return count_; }
  int dims() const { return dims_; }

  const Value* Row(size_t i) const {
    SKY_DCHECK(i < count_);
    return rows_.data() + i * static_cast<size_t>(stride_);
  }

  const std::vector<PointId>& ids() const { return ids_; }

  /// Original ids of the points appended by the most recent Append call
  /// (for progressive reporting).
  std::span<const PointId> LastAppended() const {
    return {ids_.data() + last_append_begin_, count_ - last_append_begin_};
  }

  /// updateS&M (paper Algorithm 2): append the compressed block
  /// ws[begin, begin+len) — all confirmed skyline points carrying level-1
  /// masks in sorted (level, mask, L1) order — and maintain the two-level
  /// partition map. Points opening a new partition become its level-2
  /// pivot and keep their level-1 mask; the rest are re-partitioned
  /// against their pivot.
  void Append(const WorkingSet& ws, size_t begin, size_t len,
              const DomCtx& dom);

  /// Remove every stored point whose original id appears in `drop`,
  /// compacting rows/ids/masks and the SoA tile mirror in place and
  /// repairing the two-level partition map: emptied partitions vanish
  /// and a partition whose pivot was removed promotes its first survivor
  /// (whose stored mask becomes the partition's level-1 mask; the other
  /// survivors' level-2 masks are recomputed against the new pivot).
  /// Afterwards LastAppended() is empty — a removal-triggered repack
  /// shifts indices, so the previous append span must not be read.
  /// Returns the number of points removed.
  size_t Remove(std::span<const PointId> drop, const DomCtx& dom);

  /// compareToSky (paper Algorithm 3): true iff some stored skyline point
  /// dominates q (which carries level-1 mask `qmask`). `dts`/`skips`
  /// accumulate dominance tests and mask-filter skips when non-null.
  bool Dominated(const Value* q, Mask qmask, const DomCtx& dom,
                 uint64_t* dts, uint64_t* skips) const;

  /// Number of non-empty level-1 partitions (excludes the sentinel).
  size_t PartitionCount() const {
    return partitions_.empty() ? 0 : partitions_.size() - 1;
  }

  /// Validation hook for tests: checks partition contiguity, pivot
  /// positions, and sentinel placement. Aborts on violation.
  void CheckInvariants() const;

 private:
  struct PartEntry {
    Mask mask;       // level-1 mask of every member of this partition
    uint32_t start;  // index of the partition's first point (its pivot)
    uint32_t key;    // CompositeMaskKey(mask): the scan's stop test
  };

  int dims_;
  int stride_;
  size_t count_ = 0;
  size_t last_append_begin_ = 0;
  AlignedBuffer<Value> rows_;
  /// Transposed SoA mirror of rows_ in global tile coordinates (tile t =
  /// points [8t, 8t+8)), maintained by Append for the batched window
  /// scan. Partition ranges map onto it with lane masks, so a tile may
  /// straddle partitions.
  TileBlock tiles_;
  std::vector<PointId> ids_;
  /// For a partition pivot: its level-1 mask. For any other point: its
  /// level-2 mask relative to the partition pivot.
  std::vector<Mask> masks_;
  /// Non-empty partitions in append order + sentinel (FullMask+1, count,
  /// key ~0).
  std::vector<PartEntry> partitions_;
};

}  // namespace sky

#endif  // SKY_CORE_SKY_STRUCTURE_H_
