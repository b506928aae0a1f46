// Copyright (c) SkyBench-NG contributors.
#include "core/sky_structure.h"

#include <algorithm>
#include <cstring>

#include "common/bits.h"

namespace sky {

SkyStructure::SkyStructure(int dims, int stride, size_t capacity)
    : dims_(dims), stride_(stride) {
  rows_.Reset(capacity * static_cast<size_t>(stride_));
  tiles_.Reset(dims, capacity);
  ids_.reserve(capacity);
  masks_.reserve(capacity);
}

void SkyStructure::Append(const WorkingSet& ws, size_t begin, size_t len,
                          const DomCtx& dom) {
  last_append_begin_ = count_;
  if (len == 0) return;

  // Current open partition: mask of the last partition and index of its
  // pivot row, or "none" on the very first append.
  Mask open_mask = ~Mask{0};
  uint32_t open_pivot = 0;
  if (!partitions_.empty()) {
    partitions_.pop_back();  // pop sentinel
    open_mask = partitions_.back().mask;
    open_pivot = partitions_.back().start;
  }

  const size_t row_bytes = sizeof(Value) * static_cast<size_t>(stride_);
  for (size_t j = 0; j < len; ++j) {
    const size_t src = begin + j;
    const uint32_t dst = static_cast<uint32_t>(count_);
    Value* dst_row =
        rows_.data() + static_cast<size_t>(dst) * static_cast<size_t>(stride_);
    std::memcpy(dst_row, ws.Row(src), row_bytes);
    tiles_.PushRow(dst_row);
    ids_.push_back(ws.ids[src]);
    const Mask level1 = ws.masks[src];
    if (level1 == open_mask) {
      // Same partition as the previous point: store the level-2 mask
      // relative to the partition pivot (Algorithm 2 line 6).
      masks_.push_back(dom.PartitionMask(dst_row, Row(open_pivot)));
    } else {
      // New partition: this point becomes its pivot and keeps the level-1
      // mask (Algorithm 2 lines 8-9).
      open_mask = level1;
      open_pivot = dst;
      masks_.push_back(level1);
      partitions_.push_back(
          {open_mask, open_pivot, CompositeMaskKey(open_mask, dims_)});
    }
    ++count_;
  }
  // Re-push the sentinel (Algorithm 2 line 10).
  partitions_.push_back(
      {FullMask(dims_) + 1, static_cast<uint32_t>(count_), ~uint32_t{0}});
}

size_t SkyStructure::Remove(std::span<const PointId> drop,
                            const DomCtx& dom) {
  if (drop.empty() || count_ == 0) return 0;
  std::vector<PointId> sorted(drop.begin(), drop.end());
  std::sort(sorted.begin(), sorted.end());
  const auto dropped = [&](PointId id) {
    return std::binary_search(sorted.begin(), sorted.end(), id);
  };

  const size_t stride = static_cast<size_t>(stride_);
  const size_t row_bytes = sizeof(Value) * stride;
  std::vector<PartEntry> kept_parts;
  kept_parts.reserve(partitions_.size());
  size_t w = 0;
  size_t removed = 0;
  const size_t nparts = partitions_.size() - 1;
  for (size_t k = 0; k < nparts; ++k) {
    const Mask pmask = partitions_[k].mask;
    const uint32_t s = partitions_[k].start;
    const uint32_t t = partitions_[k + 1].start;
    size_t new_pivot = 0;
    bool pivot_set = false;
    bool pivot_moved = false;
    for (uint32_t j = s; j < t; ++j) {
      if (dropped(ids_[j])) {
        ++removed;
        continue;
      }
      if (w != j) {
        std::memcpy(rows_.data() + w * stride, Row(j), row_bytes);
        ids_[w] = ids_[j];
        masks_[w] = masks_[j];
      }
      if (!pivot_set) {
        pivot_set = true;
        new_pivot = w;
        pivot_moved = (j != s);
        masks_[w] = pmask;  // the pivot stores the level-1 mask
        kept_parts.push_back(
            {pmask, static_cast<uint32_t>(w), partitions_[k].key});
      } else if (pivot_moved) {
        masks_[w] = dom.PartitionMask(rows_.data() + w * stride,
                                      rows_.data() + new_pivot * stride);
      }
      ++w;
    }
  }
  count_ = w;
  ids_.resize(count_);
  masks_.resize(count_);
  partitions_ = std::move(kept_parts);
  if (count_ > 0) {
    partitions_.push_back(
        {FullMask(dims_) + 1, static_cast<uint32_t>(count_), ~uint32_t{0}});
  }
  // The previous append span is meaningless after a repack.
  last_append_begin_ = count_;
  tiles_.Clear();
  for (size_t i = 0; i < count_; ++i) tiles_.PushRow(Row(i));
  return removed;
}

bool SkyStructure::Dominated(const Value* q, Mask qmask, const DomCtx& dom,
                             uint64_t* dts, uint64_t* skips) const {
  if (partitions_.empty()) return false;
  const Mask full = FullMask(dims_);
  const uint32_t qkey = CompositeMaskKey(qmask, dims_);
  uint64_t local_dts = 0, local_skips = 0;
  const size_t nparts = partitions_.size() - 1;
  bool dominated = false;
  for (size_t k = 0; k < nparts && !dominated; ++k) {
    const Mask pmask = partitions_[k].mask;
    // Partitions are stored in increasing composite-key order; a subset
    // mask never has a larger key, so everything past q's key is
    // incomparable and the scan can stop.
    if (partitions_[k].key > qkey) break;
    // Level-1 filter (Algorithm 3 line 3): skip the whole partition unless
    // its region may dominate q's region.
    if (MaskIncomparable(pmask, qmask)) {
      ++local_skips;
      continue;
    }
    const uint32_t s = partitions_[k].start;
    const uint32_t t = partitions_[k + 1].start;
    // Compare q to the level-2 pivot once (Algorithm 3 line 5); its cost
    // is that of one dominance test.
    const Mask m2 = dom.PartitionMask(q, Row(s));
    ++local_dts;
    if (m2 == full && !dom.Equal(q, Row(s))) {
      dominated = true;  // the pivot itself dominates q (line 6)
      break;
    }
    // Member scan: the partition range [s+1, t) maps onto the global SoA
    // tiles; the level-2 filter (line 8) — member masks are relative to
    // the pivot, exactly comparable with m2 — runs 8 masks per compare
    // inside the same kernel that tests the surviving lanes.
    dominated = dom.DominatedInMaskedRange(q, tiles_, masks_.data(), m2,
                                           s + 1, t, nullptr, &local_dts,
                                           &local_skips);
  }
  if (dts != nullptr) *dts += local_dts;
  if (skips != nullptr) *skips += local_skips;
  return dominated;
}

void SkyStructure::CheckInvariants() const {
  if (count_ == 0) {
    SKY_CHECK(partitions_.empty());
    return;
  }
  SKY_CHECK(!partitions_.empty());
  SKY_CHECK(partitions_.back().mask == FullMask(dims_) + 1);
  SKY_CHECK(partitions_.back().start == count_);
  SKY_CHECK(partitions_.front().start == 0);
  uint32_t prev_key = 0;
  for (size_t k = 0; k + 1 < partitions_.size(); ++k) {
    SKY_CHECK(partitions_[k].start < partitions_[k + 1].start);
    // Partitions appear in strictly increasing (level, mask) order.
    const uint32_t key = partitions_[k].key;
    SKY_CHECK(key == CompositeMaskKey(partitions_[k].mask, dims_));
    if (k > 0) SKY_CHECK(prev_key < key);
    prev_key = key;
    // The pivot stores the partition's level-1 mask.
    SKY_CHECK(masks_[partitions_[k].start] == partitions_[k].mask);
  }
  SKY_CHECK(ids_.size() == count_ && masks_.size() == count_);
  // The SoA mirror must track rows_ bit-identically (NaN payloads
  // included), lane for lane — a stale mirror would silently corrupt the
  // Dominated scan after a remove/repack.
  SKY_CHECK(tiles_.size() == count_);
  for (size_t i = 0; i < count_; ++i) {
    const Value* lane = tiles_.Tile(i / kSimdWidth) + i % kSimdWidth;
    const Value* row = Row(i);
    for (int j = 0; j < dims_; ++j) {
      SKY_CHECK(std::memcmp(&lane[static_cast<size_t>(j) * kSimdWidth],
                            &row[j], sizeof(Value)) == 0);
    }
  }
}

}  // namespace sky
