// Copyright (c) SkyBench-NG contributors.
// AVX2 dominance kernels. This translation unit is compiled with -mavx2
// when available; callers must gate on CpuHasAvx2() (DomCtx does).
#include "dominance/dominance.h"

#include <algorithm>
#include <bit>

#include "common/bits.h"
#include "dominance/batch.h"

#if defined(SKY_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace sky {

bool CpuHasAvx2() {
#if defined(SKY_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#if defined(SKY_HAVE_AVX2)

bool DominatesAvx2(const Value* p, const Value* q, int dpad) {
  // Accumulate "p < q somewhere" lanes; bail out on any "p > q" lane.
  int lt = 0;
  for (int i = 0; i < dpad; i += 8) {
    const __m256 a = _mm256_loadu_ps(p + i);
    const __m256 b = _mm256_loadu_ps(q + i);
    if (_mm256_movemask_ps(_mm256_cmp_ps(a, b, _CMP_GT_OQ)) != 0) {
      return false;
    }
    lt |= _mm256_movemask_ps(_mm256_cmp_ps(a, b, _CMP_LT_OQ));
  }
  return lt != 0;
}

bool PotentiallyDominatesAvx2(const Value* p, const Value* q, int dpad) {
  for (int i = 0; i < dpad; i += 8) {
    const __m256 a = _mm256_loadu_ps(p + i);
    const __m256 b = _mm256_loadu_ps(q + i);
    if (_mm256_movemask_ps(_mm256_cmp_ps(a, b, _CMP_GT_OQ)) != 0) {
      return false;
    }
  }
  return true;
}

Relation CompareAvx2(const Value* p, const Value* q, int dpad) {
  int p_lt = 0, q_lt = 0;
  for (int i = 0; i < dpad; i += 8) {
    const __m256 a = _mm256_loadu_ps(p + i);
    const __m256 b = _mm256_loadu_ps(q + i);
    p_lt |= _mm256_movemask_ps(_mm256_cmp_ps(a, b, _CMP_LT_OQ));
    q_lt |= _mm256_movemask_ps(_mm256_cmp_ps(a, b, _CMP_GT_OQ));
    if (p_lt != 0 && q_lt != 0) return Relation::kIncomparable;
  }
  if (p_lt != 0) return Relation::kLeftDominates;
  if (q_lt != 0) return Relation::kRightDominates;
  return Relation::kEqual;
}

Mask PartitionMaskAvx2(const Value* p, const Value* v, int d, int dpad) {
  Mask m = 0;
  for (int i = 0; i < dpad; i += 8) {
    const __m256 a = _mm256_loadu_ps(p + i);
    const __m256 b = _mm256_loadu_ps(v + i);
    const int ge = _mm256_movemask_ps(_mm256_cmp_ps(a, b, _CMP_GE_OQ));
    m |= static_cast<Mask>(ge) << i;
  }
  // Padding lanes compare 0 >= 0 == true; strip them.
  return m & FullMask(d);
}

bool EqualAvx2(const Value* p, const Value* q, int dpad) {
  for (int i = 0; i < dpad; i += 8) {
    const __m256 a = _mm256_loadu_ps(p + i);
    const __m256 b = _mm256_loadu_ps(q + i);
    // EQ_OQ is false for NaN lanes, matching EqualScalar's
    // (NaN != NaN) == true convention; zero padding lanes compare equal.
    if (_mm256_movemask_ps(_mm256_cmp_ps(a, b, _CMP_EQ_OQ)) != 0xFF) {
      return false;
    }
  }
  return true;
}

namespace {

/// The candidate's coordinates broadcast once per window scan — a
/// per-tile kernel entry would redo d broadcasts per 8 points.
struct BroadcastQ {
  __m256 v[kMaxDims];
  BroadcastQ(const Value* q, int d) {
    for (int j = 0; j < d; ++j) v[j] = _mm256_set1_ps(q[j]);
  }
};

/// First dimension at which the early-out movemask check runs. Below it
/// the check's vector-to-int transfer costs more than the compares it
/// could save; past it most random lanes are dead and the break pays.
constexpr int kEarlyOutFromDim = 4;

/// Lanes of `lane_mask` whose tile point strictly dominates q, in two
/// passes. Pass 1 accumulates only the "greater" violations (GT is false
/// on NaN, like the scalar kernel); its survivors weakly dominate q, and
/// on most tiles there are none. Pass 2 runs only for survivors and asks
/// each for a strictly smaller coordinate (LT, also false on NaN).
SKY_ALWAYS_INLINE uint32_t TileVsBroadcast(const BroadcastQ& q,
                                           const Value* tile, int dims,
                                           uint32_t lane_mask) {
  const int live = static_cast<int>(lane_mask & kFullLaneMask);
  __m256 gt = _mm256_setzero_ps();
  for (int j = 0; j < dims; ++j) {
    const __m256 w = _mm256_load_ps(tile + j * kSimdWidth);
    gt = _mm256_or_ps(gt, _mm256_cmp_ps(w, q.v[j], _CMP_GT_OQ));
    if (j >= kEarlyOutFromDim && (~_mm256_movemask_ps(gt) & live) == 0) {
      return 0;
    }
  }
  const int weak = ~_mm256_movemask_ps(gt) & live;
  if (weak == 0) return 0;
  __m256 lt = _mm256_setzero_ps();
  for (int j = 0; j < dims; ++j) {
    const __m256 w = _mm256_load_ps(tile + j * kSimdWidth);
    lt = _mm256_or_ps(lt, _mm256_cmp_ps(w, q.v[j], _CMP_LT_OQ));
  }
  return static_cast<uint32_t>(_mm256_movemask_ps(lt) & weak);
}

}  // namespace

uint32_t TileDominatesAvx2(const Value* q, const Value* tile, int dims,
                           uint32_t lane_mask) {
  return TileVsBroadcast(BroadcastQ(q, dims), tile, dims, lane_mask);
}

bool DominatedByAnyAvx2(const Value* q, const TileBlock& tiles,
                        size_t limit, uint64_t* dts) {
  const size_t n = limit < tiles.size() ? limit : tiles.size();
  if (n == 0) return false;
  const int dims = tiles.dims();
  const BroadcastQ qb(q, dims);
  uint64_t tested = 0;
  bool dominated = false;
  const size_t full = n / kSimdWidth;
  const size_t tail = n % kSimdWidth;
  for (size_t t = 0; t < full; ++t) {
    tested += kSimdWidth;
    if (TileVsBroadcast(qb, tiles.Tile(t), dims, kFullLaneMask) != 0) {
      dominated = true;
      break;
    }
  }
  if (!dominated && tail != 0) {
    tested += tail;
    dominated = TileVsBroadcast(qb, tiles.Tile(full), dims,
                                LaneMaskFirst(tail)) != 0;
  }
  if (dts != nullptr) *dts += tested;
  return dominated;
}

bool DominatedInRangeAvx2(const Value* q, const TileBlock& tiles,
                          size_t from, uint64_t* dts) {
  const size_t n = tiles.size();
  if (from >= n) return false;
  const int dims = tiles.dims();
  const BroadcastQ qb(q, dims);
  uint64_t tested = 0;
  bool dominated = false;
  const size_t ntiles = tiles.tile_count();
  for (size_t t = from / kSimdWidth; t < ntiles && !dominated; ++t) {
    uint32_t lanes = tiles.ValidLanes(t);
    if (t * kSimdWidth < from) {
      lanes &= ~LaneMaskFirst(from - t * kSimdWidth);
    }
    if (lanes == 0) continue;
    tested += std::popcount(lanes);
    dominated = TileVsBroadcast(qb, tiles.Tile(t), dims, lanes) != 0;
  }
  if (dts != nullptr) *dts += tested;
  return dominated;
}

uint32_t CountDominatorsAvx2(const Value* q, const TileBlock& tiles,
                             size_t limit, uint32_t cap, uint64_t* dts) {
  const size_t n = limit < tiles.size() ? limit : tiles.size();
  if (n == 0 || cap == 0) return 0;
  const int dims = tiles.dims();
  const BroadcastQ qb(q, dims);
  uint64_t tested = 0;
  uint32_t count = 0;
  const size_t full = n / kSimdWidth;
  const size_t tail = n % kSimdWidth;
  for (size_t t = 0; t < full && count < cap; ++t) {
    tested += kSimdWidth;
    count += std::popcount(
        TileVsBroadcast(qb, tiles.Tile(t), dims, kFullLaneMask));
  }
  if (count < cap && tail != 0) {
    tested += tail;
    count += std::popcount(
        TileVsBroadcast(qb, tiles.Tile(full), dims, LaneMaskFirst(tail)));
  }
  if (dts != nullptr) *dts += tested;
  return count;
}

bool DominatedInMaskedRangeAvx2(const Value* q, const TileBlock& tiles,
                                const Mask* masks, Mask m, size_t from,
                                size_t to, uint8_t* pruned, uint64_t* dts,
                                uint64_t* skips) {
  SKY_DCHECK(to <= tiles.size());
  if (from >= to) return false;
  const int dims = tiles.dims();
  const size_t n = tiles.size();
  const BroadcastQ qb(q, dims);
  // A lane is comparable iff its mask has no bit outside m: (~m & mask)
  // compares equal to zero.
  const __m256i mv = _mm256_set1_epi32(static_cast<int>(m));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  uint64_t tested = 0, skipped = 0;
  bool dominated = false;
  for (size_t t = from / kSimdWidth; t * kSimdWidth < to; ++t) {
    const size_t row0 = t * kSimdWidth;
    uint32_t lanes = TileRangeLanes(row0, from, to);
    if (pruned != nullptr) lanes = DropPrunedLanes(lanes, pruned + row0);
    if (lanes == 0) continue;
    const Mask* src = masks + row0;
    // The last tile may hold fewer than 8 masks: a masked load reads only
    // the lanes below n and never touches memory past them.
    const __m256i mm =
        SKY_LIKELY(row0 + kSimdWidth <= n)
            ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src))
            : _mm256_maskload_epi32(
                  reinterpret_cast<const int*>(src),
                  _mm256_cmpgt_epi32(
                      _mm256_set1_epi32(static_cast<int>(n - row0)),
                      lane_idx));
    const uint32_t comparable =
        static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
            _mm256_cmpeq_epi32(_mm256_andnot_si256(mv, mm), zero))));
    skipped += std::popcount(lanes & ~comparable);
    const uint32_t elig = lanes & comparable;
    if (elig == 0) continue;
    tested += std::popcount(elig);
    if (TileVsBroadcast(qb, tiles.Tile(t), dims, elig) != 0) {
      dominated = true;
      break;
    }
  }
  *dts += tested;
  *skips += skipped;
  return dominated;
}

size_t FilterTileAvx2(const Value* rows, int stride, size_t n,
                      const TileBlock& tiles, uint8_t* flags,
                      uint64_t* dts) {
  const size_t ntiles = tiles.tile_count();
  if (n == 0 || ntiles == 0) return 0;
  const int dims = tiles.dims();
  const size_t chunk = std::max<size_t>(
      1, kWindowChunkBytes / (tiles.tile_floats() * sizeof(Value)));
  uint64_t tested = 0;
  size_t flagged = 0;
  // Cache-blocked loop order: each L1-sized slice of the window is
  // streamed against every still-alive candidate before the next slice.
  for (size_t t0 = 0; t0 < ntiles; t0 += chunk) {
    const size_t t1 = t0 + chunk < ntiles ? t0 + chunk : ntiles;
    for (size_t i = 0; i < n; ++i) {
      if (flags[i] != 0) continue;
      const Value* q = rows + i * static_cast<size_t>(stride);
      const BroadcastQ qb(q, dims);
      for (size_t t = t0; t < t1; ++t) {
        const uint32_t valid = tiles.ValidLanes(t);
        tested += std::popcount(valid);
        if (TileVsBroadcast(qb, tiles.Tile(t), dims, valid) != 0) {
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

#else  // !SKY_HAVE_AVX2 — scalar stand-ins so the library still links.

bool DominatesAvx2(const Value* p, const Value* q, int dpad) {
  return DominatesScalar(p, q, dpad);
}
bool PotentiallyDominatesAvx2(const Value* p, const Value* q, int dpad) {
  return PotentiallyDominatesScalar(p, q, dpad);
}
Relation CompareAvx2(const Value* p, const Value* q, int dpad) {
  return CompareScalar(p, q, dpad);
}
Mask PartitionMaskAvx2(const Value* p, const Value* v, int d, int dpad) {
  (void)dpad;
  return PartitionMaskScalar(p, v, d);
}
bool EqualAvx2(const Value* p, const Value* q, int dpad) {
  return EqualScalar(p, q, dpad);
}
uint32_t TileDominatesAvx2(const Value* q, const Value* tile, int dims,
                           uint32_t lane_mask) {
  return TileDominatesScalar(q, tile, dims, lane_mask);
}
bool DominatedInMaskedRangeAvx2(const Value* q, const TileBlock& tiles,
                                const Mask* masks, Mask m, size_t from,
                                size_t to, uint8_t* pruned, uint64_t* dts,
                                uint64_t* skips) {
  return DominatedInMaskedRangeScalar(q, tiles, masks, m, from, to, pruned,
                                      dts, skips);
}
bool DominatedByAnyAvx2(const Value* q, const TileBlock& tiles,
                        size_t limit, uint64_t* dts) {
  const size_t n = limit < tiles.size() ? limit : tiles.size();
  uint64_t tested = 0;
  bool dominated = false;
  for (size_t t = 0; t * kSimdWidth < n && !dominated; ++t) {
    const size_t lanes = std::min<size_t>(kSimdWidth, n - t * kSimdWidth);
    tested += lanes;
    dominated = TileDominatesScalar(q, tiles.Tile(t), tiles.dims(),
                                    LaneMaskFirst(lanes)) != 0;
  }
  if (dts != nullptr) *dts += tested;
  return dominated;
}
bool DominatedInRangeAvx2(const Value* q, const TileBlock& tiles,
                          size_t from, uint64_t* dts) {
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
    dominated =
        TileDominatesScalar(q, tiles.Tile(t), tiles.dims(), lanes) != 0;
  }
  if (dts != nullptr) *dts += tested;
  return dominated;
}
size_t FilterTileAvx2(const Value* rows, int stride, size_t n,
                      const TileBlock& tiles, uint8_t* flags,
                      uint64_t* dts) {
  size_t flagged = 0;
  for (size_t i = 0; i < n; ++i) {
    if (flags[i] != 0) continue;
    if (DominatedByAnyAvx2(rows + i * static_cast<size_t>(stride), tiles,
                           tiles.size(), dts)) {
      flags[i] = 1;
      ++flagged;
    }
  }
  return flagged;
}
uint32_t CountDominatorsAvx2(const Value* q, const TileBlock& tiles,
                             size_t limit, uint32_t cap, uint64_t* dts) {
  const size_t n = limit < tiles.size() ? limit : tiles.size();
  uint64_t tested = 0;
  uint32_t count = 0;
  for (size_t t = 0; t * kSimdWidth < n && count < cap; ++t) {
    const size_t lanes = std::min<size_t>(kSimdWidth, n - t * kSimdWidth);
    tested += lanes;
    count += std::popcount(TileDominatesScalar(q, tiles.Tile(t), tiles.dims(),
                                               LaneMaskFirst(lanes)));
  }
  if (dts != nullptr) *dts += tested;
  return count;
}

#endif  // SKY_HAVE_AVX2

}  // namespace sky
