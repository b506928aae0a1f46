// Copyright (c) SkyBench-NG contributors.
// Batched dominance layer: SoA tiles of kSimdWidth points and the
// one-vs-many / many-vs-many kernels that test a candidate against a
// whole tile per instruction stream. The one-vs-one kernels in
// dominance.h vectorize *across dimensions* — at the paper's common
// d=4..8 that fills at most one 8-lane register per compare; the tile
// kernels here vectorize *across points* instead, so every compare keeps
// all 8 lanes busy regardless of d and early-outs via movemask.
#ifndef SKY_DOMINANCE_BATCH_H_
#define SKY_DOMINANCE_BATCH_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/aligned.h"
#include "common/macros.h"
#include "common/types.h"
#include "dominance/dominance.h"

namespace sky {

/// Lane-padding value for SoA tiles. +inf loses every ordered comparison
/// (never <=, never <) against finite coordinates, compares equal-only
/// against itself, and every NaN comparison is false — so a padding lane
/// can never register as a dominator of any candidate, NaN included.
inline constexpr Value kTileLanePad = std::numeric_limits<Value>::infinity();

/// All 8 lanes of a tile.
inline constexpr uint32_t kFullLaneMask = (1u << kSimdWidth) - 1;

/// Cache-blocking chunk for many-vs-many scans: the slice of the tile
/// window replayed against every surviving candidate before moving on.
/// Half a typical 32 KiB L1d, so candidate rows and flags fit alongside.
inline constexpr size_t kWindowChunkBytes = 16 * 1024;

/// Minimum shared-window size before the batched tile scans beat the
/// one-vs-one kernels — below it the broadcast/tiling overhead dominates.
/// Shared by Q-Flow's window scan and ComputeSkyband's band count.
inline constexpr size_t kBatchWindowMin = 256;

/// Minimum in-block prefix before the peer scans (Q-Flow Phase II,
/// ComputeSkyband Phase II) switch to the tile kernels.
inline constexpr size_t kBatchPrefixMin = 64;

/// Bit mask of the first `lanes` lanes (lanes <= kSimdWidth).
SKY_ALWAYS_INLINE uint32_t LaneMaskFirst(size_t lanes) {
  return (lanes >= kSimdWidth) ? kFullLaneMask
                               : ((1u << lanes) - 1);
}

/// Bits [lo, hi) of a tile's lane mask (0 <= lo <= hi <= kSimdWidth).
SKY_ALWAYS_INLINE uint32_t LaneMaskRange(size_t lo, size_t hi) {
  return LaneMaskFirst(hi) & ~LaneMaskFirst(lo);
}

/// Lanes of the tile whose lane 0 is point `row0` that fall in the
/// point range [from, to) (row0 < to).
SKY_ALWAYS_INLINE uint32_t TileRangeLanes(size_t row0, size_t from,
                                          size_t to) {
  return LaneMaskRange(from > row0 ? from - row0 : 0,
                       to - row0 < kSimdWidth ? to - row0 : kSimdWidth);
}

/// `lanes` minus those whose flag flags0[l] is set. Each flag is read
/// with a relaxed atomic load: flags may be set concurrently, and a
/// stale 0 only costs one extra dominance test.
SKY_ALWAYS_INLINE uint32_t DropPrunedLanes(uint32_t lanes, uint8_t* flags0) {
  for (uint32_t rem = lanes; rem != 0; rem &= rem - 1) {
    const int l = std::countr_zero(rem);
    if (std::atomic_ref<uint8_t>(flags0[l]).load(std::memory_order_relaxed) !=
        0) {
      lanes &= ~(1u << l);
    }
  }
  return lanes;
}

/// An append-only array of SoA tiles: tile t holds points
/// [t*kSimdWidth, (t+1)*kSimdWidth) transposed, so dimension j of all 8
/// points occupies the contiguous, 32-byte-aligned floats
/// Tile(t)[j*kSimdWidth .. j*kSimdWidth+8). Unfilled lanes (a ragged
/// tail, or a cleared block) hold kTileLanePad on every dimension.
///
/// Unlike Dataset/WorkingSet rows, tiles carry exactly `dims` dimensions
/// per point — the SIMD padding moved from the dimension axis to the
/// point axis.
class TileBlock {
 public:
  TileBlock() = default;
  TileBlock(int dims, size_t capacity) { Reset(dims, capacity); }

  /// Allocate room for `capacity` points and mark every lane unfilled.
  void Reset(int dims, size_t capacity);

  /// Forget all points but keep the allocation, re-padding only the
  /// tiles that were actually written (cheap per-block reuse).
  void Clear();

  /// Append one point (reads `dims` floats from `row`).
  void PushRow(const Value* row);

  /// Append `count` AoS rows of the given stride (a WorkingSet/Dataset
  /// row range).
  void AppendRows(const Value* rows, int stride, size_t count);

  /// Deactivate point i's lane: overwrite every dimension with
  /// kTileLanePad so the lane is inert in every kernel (a padded lane
  /// can never dominate anything). The slot still counts toward size();
  /// re-padding an already-padded lane is a harmless no-op. This is the
  /// removal primitive for callers that mirror a tombstoned window.
  void PadLane(size_t i);

  int dims() const { return dims_; }
  size_t size() const { return count_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return count_ == 0; }
  size_t tile_count() const {
    return (count_ + kSimdWidth - 1) / kSimdWidth;
  }
  /// Floats per tile (dims * kSimdWidth).
  size_t tile_floats() const { return tile_floats_; }
  const Value* Tile(size_t t) const {
    SKY_DCHECK(t < tile_count());
    return soa_.data() + t * tile_floats_;
  }
  /// Lanes of tile t that hold real points.
  uint32_t ValidLanes(size_t t) const {
    SKY_DCHECK(t < tile_count());
    return LaneMaskFirst(count_ - t * kSimdWidth);
  }

 private:
  int dims_ = 0;
  size_t tile_floats_ = 0;
  size_t count_ = 0;
  size_t capacity_ = 0;
  AlignedBuffer<Value> soa_;
};

// ---- Tile kernels ----------------------------------------------------
//
// Each returns the bitmask of lanes (restricted to `lane_mask`) whose
// point strictly dominates q, with verdicts identical per lane to
// DominatesScalar — including the NaN convention (a NaN coordinate
// compares neither greater nor smaller, contributing neither a
// violation nor strictness). The AVX2 flavours live in simd.cc behind
// the same SKY_HAVE_AVX2 gate as the one-vs-one kernels; callers must
// gate on CpuHasAvx2() (DomCtx does).

uint32_t TileDominatesScalar(const Value* q, const Value* tile, int dims,
                             uint32_t lane_mask);
uint32_t TileDominatesAvx2(const Value* q, const Value* tile, int dims,
                           uint32_t lane_mask);

// ---- Whole-scan kernels ----------------------------------------------
//
// The hot window scans live in the AVX2 TU so the candidate's broadcast
// registers are hoisted out of the tile loop (a per-tile entry call
// would re-broadcast d coordinates per 8 points). Callers must gate on
// CpuHasAvx2(); DomCtx::DominatedByAny / FilterTile do and fall back to
// the scalar tile loops otherwise.

/// True iff some point among the first min(limit, tiles.size()) tile
/// points strictly dominates q. Adds per-lane tests to *dts (non-null).
bool DominatedByAnyAvx2(const Value* q, const TileBlock& tiles,
                        size_t limit, uint64_t* dts);

/// True iff some tile point in [from, tiles.size()) strictly dominates q —
/// the suffix complement of DominatedByAnyAvx2's prefix limit, for callers
/// that already checked q against an earlier prefix of an append-only
/// window. Adds per-lane tests to *dts (non-null).
bool DominatedInRangeAvx2(const Value* q, const TileBlock& tiles,
                          size_t from, uint64_t* dts);

/// Flag every AoS candidate row (stride floats apart) dominated by some
/// tile point; cache-blocked over the window. Pre-flagged rows are
/// skipped. Returns the number newly flagged; adds tests to *dts.
size_t FilterTileAvx2(const Value* rows, int stride, size_t n,
                      const TileBlock& tiles, uint8_t* flags,
                      uint64_t* dts);

/// Number of points among the first min(limit, tiles.size()) tile points
/// that strictly dominate q, early-outing at tile granularity once the
/// running count reaches `cap`: the return value is exact when below
/// `cap` and merely >= cap otherwise (the last tile's full popcount is
/// included, so it may overshoot by up to kSimdWidth-1). This is the
/// dominator-counting core of the batched k-skyband paths, where `cap`
/// is band_k and any count >= band_k disqualifies identically. Adds
/// per-lane tests to *dts (non-null).
uint32_t CountDominatorsAvx2(const Value* q, const TileBlock& tiles,
                             size_t limit, uint32_t cap, uint64_t* dts);

/// True iff some tile point i in [from, to) strictly dominates q, among
/// the points allowed to: MaskMayDominate(masks[i], m) holds and, when
/// `pruned` is non-null, pruned[i] == 0 (read per lane, relaxed). This
/// is Hybrid's masked M(S) scan (compareToSky's member run, compareToPeers'
/// lower-level and same-partition runs) fused into one loop: per tile,
/// the comparable lanes are computed and the survivors tested against a
/// candidate broadcast once per call. `masks` holds tiles.size() entries
/// (tail loads stay in bounds); to <= tiles.size(). The scan stops after
/// the first tile holding a dominator. Adds the lanes tested to *dts and
/// the lanes the mask filter rejected to *skips (pruned lanes count as
/// neither); both flavours count identically, lane for lane.
bool DominatedInMaskedRangeScalar(const Value* q, const TileBlock& tiles,
                                  const Mask* masks, Mask m, size_t from,
                                  size_t to, uint8_t* pruned, uint64_t* dts,
                                  uint64_t* skips);
bool DominatedInMaskedRangeAvx2(const Value* q, const TileBlock& tiles,
                                const Mask* masks, Mask m, size_t from,
                                size_t to, uint8_t* pruned, uint64_t* dts,
                                uint64_t* skips);

}  // namespace sky

#endif  // SKY_DOMINANCE_BATCH_H_
