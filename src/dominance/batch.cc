// Copyright (c) SkyBench-NG contributors.
// Portable half of the batched dominance layer: TileBlock maintenance,
// scalar tile kernels, and the DomCtx entry points (which dispatch to
// the AVX2 kernels in simd.cc at runtime). This TU is deliberately NOT
// compiled with -mavx2 so it stays executable on any host.
#include "dominance/batch.h"

#include <algorithm>
#include <bit>

#include "common/bits.h"
#include "dominance/dominance.h"

namespace sky {

void TileBlock::Reset(int dims, size_t capacity) {
  SKY_CHECK(dims >= 1 && dims <= kMaxDims);
  dims_ = dims;
  tile_floats_ = static_cast<size_t>(dims) * kSimdWidth;
  capacity_ = capacity;
  count_ = 0;
  const size_t tiles = (capacity + kSimdWidth - 1) / kSimdWidth;
  soa_.Reset(tiles * tile_floats_);
  std::fill_n(soa_.data(), soa_.size(), kTileLanePad);
}

void TileBlock::Clear() {
  const size_t used_tiles = tile_count();
  std::fill_n(soa_.data(), used_tiles * tile_floats_, kTileLanePad);
  count_ = 0;
}

void TileBlock::PushRow(const Value* row) {
  SKY_DCHECK(count_ < capacity_);
  Value* lane = soa_.data() + (count_ / kSimdWidth) * tile_floats_ +
                count_ % kSimdWidth;
  for (int j = 0; j < dims_; ++j) lane[j * kSimdWidth] = row[j];
  ++count_;
}

void TileBlock::AppendRows(const Value* rows, int stride, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    PushRow(rows + i * static_cast<size_t>(stride));
  }
}

void TileBlock::PadLane(size_t i) {
  SKY_DCHECK(i < count_);
  Value* lane = soa_.data() + (i / kSimdWidth) * tile_floats_ +
                i % kSimdWidth;
  for (int j = 0; j < dims_; ++j) lane[j * kSimdWidth] = kTileLanePad;
}

uint32_t TileDominatesScalar(const Value* q, const Value* tile, int dims,
                             uint32_t lane_mask) {
  uint32_t out = 0;
  uint32_t rem = lane_mask & kFullLaneMask;
  while (rem != 0) {
    const int lane = std::countr_zero(rem);
    rem &= rem - 1;
    const Value* w = tile + lane;
    bool gt = false, lt = false;
    for (int j = 0; j < dims; ++j) {
      const Value v = w[j * kSimdWidth];
      if (v > q[j]) {
        gt = true;
        break;
      }
      lt |= v < q[j];
    }
    if (!gt && lt) out |= 1u << lane;
  }
  return out;
}

bool DominatedInMaskedRangeScalar(const Value* q, const TileBlock& tiles,
                                  const Mask* masks, Mask m, size_t from,
                                  size_t to, uint8_t* pruned, uint64_t* dts,
                                  uint64_t* skips) {
  SKY_DCHECK(to <= tiles.size());
  uint64_t tested = 0, skipped = 0;
  bool dominated = false;
  for (size_t t = from / kSimdWidth; t * kSimdWidth < to && !dominated;
       ++t) {
    const size_t row0 = t * kSimdWidth;
    uint32_t lanes = TileRangeLanes(row0, from, to);
    if (pruned != nullptr) lanes = DropPrunedLanes(lanes, pruned + row0);
    uint32_t elig = 0;
    for (uint32_t rem = lanes; rem != 0; rem &= rem - 1) {
      const int l = std::countr_zero(rem);
      if (MaskMayDominate(masks[row0 + l], m)) {
        elig |= 1u << l;
      } else {
        ++skipped;
      }
    }
    if (elig == 0) continue;
    tested += std::popcount(elig);
    dominated = TileDominatesScalar(q, tiles.Tile(t), tiles.dims(), elig) != 0;
  }
  *dts += tested;
  *skips += skipped;
  return dominated;
}

namespace {

/// Scalar flavours of the whole-scan kernels (the AVX2 flavours live in
/// simd.cc with hoisted candidate broadcasts).
bool DominatedByAnyScalarImpl(const Value* q, const TileBlock& tiles,
                              int dims, size_t limit, uint64_t* dts) {
  const size_t n = std::min(limit, tiles.size());
  uint64_t tested = 0;
  bool dominated = false;
  const size_t full = n / kSimdWidth;
  const size_t tail = n % kSimdWidth;
  for (size_t t = 0; t < full; ++t) {
    tested += kSimdWidth;
    if (TileDominatesScalar(q, tiles.Tile(t), dims, kFullLaneMask) != 0) {
      dominated = true;
      break;
    }
  }
  if (!dominated && tail != 0) {
    tested += tail;
    dominated = TileDominatesScalar(q, tiles.Tile(full), dims,
                                    LaneMaskFirst(tail)) != 0;
  }
  if (dts != nullptr) *dts += tested;
  return dominated;
}

bool DominatedInRangeScalarImpl(const Value* q, const TileBlock& tiles,
                                int dims, size_t from, uint64_t* dts) {
  uint64_t tested = 0;
  bool dominated = false;
  for (size_t t = from / kSimdWidth; t < tiles.tile_count() && !dominated;
       ++t) {
    uint32_t lanes = tiles.ValidLanes(t);
    if (t * kSimdWidth < from) {
      lanes &= ~LaneMaskFirst(from - t * kSimdWidth);
    }
    if (lanes == 0) continue;
    tested += std::popcount(lanes);
    dominated = TileDominatesScalar(q, tiles.Tile(t), dims, lanes) != 0;
  }
  if (dts != nullptr) *dts += tested;
  return dominated;
}

uint32_t CountDominatorsScalarImpl(const Value* q, const TileBlock& tiles,
                                   int dims, size_t limit, uint32_t cap,
                                   uint64_t* dts) {
  const size_t n = std::min(limit, tiles.size());
  uint64_t tested = 0;
  uint32_t count = 0;
  for (size_t t = 0; t * kSimdWidth < n && count < cap; ++t) {
    const size_t lanes = std::min<size_t>(kSimdWidth, n - t * kSimdWidth);
    tested += lanes;
    count += std::popcount(TileDominatesScalar(q, tiles.Tile(t), dims,
                                               LaneMaskFirst(lanes)));
  }
  if (dts != nullptr) *dts += tested;
  return count;
}

size_t FilterTileScalarImpl(const Value* rows, int stride, size_t n,
                            const TileBlock& tiles, int dims,
                            uint8_t* flags, uint64_t* dts) {
  const size_t ntiles = tiles.tile_count();
  const size_t chunk = std::max<size_t>(
      1, kWindowChunkBytes / (tiles.tile_floats() * sizeof(Value)));
  uint64_t tested = 0;
  size_t flagged = 0;
  // Cache-blocked loop order: each L1-sized slice of the window is
  // streamed against every still-alive candidate before the next slice,
  // so window tiles are read from cache n times instead of from memory.
  for (size_t t0 = 0; t0 < ntiles; t0 += chunk) {
    const size_t t1 = std::min(ntiles, t0 + chunk);
    for (size_t i = 0; i < n; ++i) {
      if (flags[i] != 0) continue;
      const Value* q = rows + i * static_cast<size_t>(stride);
      for (size_t t = t0; t < t1; ++t) {
        const uint32_t valid = tiles.ValidLanes(t);
        tested += std::popcount(valid);
        if (TileDominatesScalar(q, tiles.Tile(t), dims, valid) != 0) {
          flags[i] = 1;
          ++flagged;
          break;
        }
      }
    }
  }
  if (dts != nullptr) *dts += tested;
  return flagged;
}

}  // namespace

bool DomCtx::DominatedByAny(const Value* q, const TileBlock& tiles,
                            size_t limit, uint64_t* dts) const {
  return simd_ ? DominatedByAnyAvx2(q, tiles, limit, dts)
               : DominatedByAnyScalarImpl(q, tiles, d_, limit, dts);
}

bool DomCtx::DominatedInRange(const Value* q, const TileBlock& tiles,
                              size_t from, uint64_t* dts) const {
  if (from >= tiles.size()) return false;
  if (from == 0) return DominatedByAny(q, tiles, tiles.size(), dts);
  return simd_ ? DominatedInRangeAvx2(q, tiles, from, dts)
               : DominatedInRangeScalarImpl(q, tiles, d_, from, dts);
}

bool DomCtx::DominatedInMaskedRange(const Value* q, const TileBlock& tiles,
                                    const Mask* masks, Mask m, size_t from,
                                    size_t to, uint8_t* pruned, uint64_t* dts,
                                    uint64_t* skips) const {
  return simd_ ? DominatedInMaskedRangeAvx2(q, tiles, masks, m, from, to,
                                            pruned, dts, skips)
               : DominatedInMaskedRangeScalar(q, tiles, masks, m, from, to,
                                              pruned, dts, skips);
}

uint32_t DomCtx::CountDominators(const Value* q, const TileBlock& tiles,
                                 size_t limit, uint32_t cap,
                                 uint64_t* dts) const {
  if (cap == 0 || tiles.empty()) return 0;
  return simd_ ? CountDominatorsAvx2(q, tiles, limit, cap, dts)
               : CountDominatorsScalarImpl(q, tiles, d_, limit, cap, dts);
}

size_t DomCtx::FilterTile(const Value* rows, size_t n,
                          const TileBlock& tiles, uint8_t* flags,
                          uint64_t* dts) const {
  if (n == 0 || tiles.empty()) return 0;
  return simd_ ? FilterTileAvx2(rows, stride_, n, tiles, flags, dts)
               : FilterTileScalarImpl(rows, stride_, n, tiles, d_, flags,
                                      dts);
}

}  // namespace sky
