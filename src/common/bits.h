// Copyright (c) SkyBench-NG contributors.
// Bit-twiddling helpers for partition masks and composite sort keys.
#ifndef SKY_COMMON_BITS_H_
#define SKY_COMMON_BITS_H_

#include <bit>
#include <cstdint>

#include "common/macros.h"
#include "common/types.h"

namespace sky {

/// Number of set bits ("level" of a partition mask in the paper: a point in
/// a higher level is worse than the pivot on more dimensions).
SKY_ALWAYS_INLINE int MaskLevel(Mask m) { return std::popcount(m); }

/// True iff a point carrying mask `a` may dominate a point carrying mask
/// `b` (both masks relative to the same pivot). This single subset test
/// captures both properties of paper §VI-A2:
///   * if `a` has a bit outside `b`, the `a`-point is worse than the pivot
///     on a dimension where the `b`-point is strictly better, so dominance
///     is impossible;
///   * level/mask inequalities quoted in the paper are corollaries.
/// Note `a == b` (same partition) returns true: dominance is possible.
SKY_ALWAYS_INLINE bool MaskMayDominate(Mask a, Mask b) {
  return (a & ~b) == 0;
}

/// Complement of MaskMayDominate, reading as the paper's Algorithm 3/4
/// guard "mask is not incomparable to q.m".
SKY_ALWAYS_INLINE bool MaskIncomparable(Mask a, Mask b) {
  return (a & ~b) != 0;
}

/// The all-ones mask for d dimensions: a point with this mask is
/// potentially dominated by the pivot.
SKY_ALWAYS_INLINE Mask FullMask(int d) {
  return (d >= 32) ? ~Mask{0} : ((Mask{1} << d) - 1);
}

/// Composite sort key from paper §VI-A3: K = (|m| << d) | m. Sorting by K
/// orders points by level first, then mask value, in one integer compare.
SKY_ALWAYS_INLINE uint32_t CompositeMaskKey(Mask m, int d) {
  return (static_cast<uint32_t>(MaskLevel(m)) << d) | m;
}

/// Recover the mask from a composite key.
SKY_ALWAYS_INLINE Mask KeyToMask(uint32_t key, int d) {
  return key & FullMask(d);
}

/// Recover the level from a composite key.
SKY_ALWAYS_INLINE int KeyToLevel(uint32_t key, int d) {
  return static_cast<int>(key >> d);
}

/// Total-order-preserving mapping from float to uint32: for any finite
/// a, b, a < b iff ToOrderedBits(a) < ToOrderedBits(b). Negative floats
/// have their bits flipped entirely (two's-complement-style reversal);
/// non-negatives get the sign bit set. -0 maps to +0's key, since the two
/// compare equal. Used to pack (composite key, L1 norm) into a single
/// uint64 sort key — datasets may contain negative coordinates (e.g.
/// "larger is better" attributes loaded negated).
SKY_ALWAYS_INLINE uint32_t ToOrderedBits(float f) {
  if (f == 0.0f) f = 0.0f;  // fold -0 onto +0
  const uint32_t u = std::bit_cast<uint32_t>(f);
  return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
}

}  // namespace sky

#endif  // SKY_COMMON_BITS_H_
