// Copyright (c) SkyBench-NG contributors.
// Mask algebra and composite-key tests (paper §VI-A2 / §VI-A3).
#include "common/bits.h"

#include <gtest/gtest.h>

namespace sky {
namespace {

TEST(Bits, MaskLevel) {
  EXPECT_EQ(MaskLevel(0b0000), 0);
  EXPECT_EQ(MaskLevel(0b0101), 2);
  EXPECT_EQ(MaskLevel(0b1111), 4);
}

TEST(Bits, FullMask) {
  EXPECT_EQ(FullMask(1), 0b1u);
  EXPECT_EQ(FullMask(4), 0b1111u);
  EXPECT_EQ(FullMask(16), 0xFFFFu);
}

TEST(Bits, MaskMayDominateSubsetRule) {
  // A partition may contain a dominator of another iff its mask is a
  // subset of the other's.
  EXPECT_TRUE(MaskMayDominate(0b00, 0b01));
  EXPECT_TRUE(MaskMayDominate(0b01, 0b01));   // same region
  EXPECT_TRUE(MaskMayDominate(0b01, 0b11));
  EXPECT_FALSE(MaskMayDominate(0b10, 0b01));  // crossing regions
  EXPECT_FALSE(MaskMayDominate(0b11, 0b01));  // higher level
}

TEST(Bits, PaperPropertyOne) {
  // §VI-A2 property 1: |m| >= |m'| and m != m' implies no point with mask
  // m dominates a point with mask m'.
  for (Mask m = 0; m < 16; ++m) {
    for (Mask mp = 0; mp < 16; ++mp) {
      if (MaskLevel(m) >= MaskLevel(mp) && m != mp) {
        EXPECT_FALSE(MaskMayDominate(m, mp)) << m << " vs " << mp;
      }
    }
  }
}

TEST(Bits, PaperPropertyTwo) {
  // §VI-A2 property 2: (m & m') < m implies no dominance from m to m'.
  for (Mask m = 0; m < 16; ++m) {
    for (Mask mp = 0; mp < 16; ++mp) {
      if ((m & mp) < m) {
        EXPECT_FALSE(MaskMayDominate(m, mp)) << m << " vs " << mp;
      } else {
        EXPECT_TRUE(MaskMayDominate(m, mp)) << m << " vs " << mp;
      }
    }
  }
}

TEST(Bits, CompositeKeyRoundTrip) {
  for (int d = 1; d <= 16; d += 3) {
    for (Mask m = 0; m <= FullMask(d); m += 5) {
      const uint32_t key = CompositeMaskKey(m, d);
      EXPECT_EQ(KeyToMask(key, d), m);
      EXPECT_EQ(KeyToLevel(key, d), MaskLevel(m));
    }
  }
}

TEST(Bits, CompositeKeyOrdersByLevelThenMask) {
  const int d = 4;
  // level(0b0011)=2 < level(0b0111)=3 even though 0b0111 > 0b0011.
  EXPECT_LT(CompositeMaskKey(0b0011, d), CompositeMaskKey(0b0111, d));
  // Same level: mask value breaks the tie.
  EXPECT_LT(CompositeMaskKey(0b0011, d), CompositeMaskKey(0b0101, d));
  // Exhaustive monotonicity check against the (level, mask) pair order.
  for (Mask a = 0; a <= FullMask(d); ++a) {
    for (Mask b = 0; b <= FullMask(d); ++b) {
      const bool pair_less = std::make_pair(MaskLevel(a), a) <
                             std::make_pair(MaskLevel(b), b);
      EXPECT_EQ(CompositeMaskKey(a, d) < CompositeMaskKey(b, d), pair_less);
    }
  }
}

TEST(Bits, OrderedBitsMonotoneForAllFloats) {
  // Regression guard: datasets may carry negative coordinates (negated
  // "larger is better" attributes), so the mapping must be a total order
  // over negatives, zero and positives alike.
  const float vals[] = {-1e20f, -3.5f,  -1.0f, -0.5f, -1e-30f, 0.0f,
                        1e-30f, 0.25f, 0.5f,  1.0f,  3.5f,    1e20f};
  for (size_t i = 0; i + 1 < std::size(vals); ++i) {
    EXPECT_LT(ToOrderedBits(vals[i]), ToOrderedBits(vals[i + 1]))
        << vals[i] << " vs " << vals[i + 1];
  }
}

TEST(Bits, OrderedBitsMapsSignedZerosTogether) {
  // -0 and +0 compare equal as floats, so their keys must tie; otherwise
  // a sort on them can put a dominated point before its dominator.
  EXPECT_EQ(ToOrderedBits(-0.0f), ToOrderedBits(0.0f));
  EXPECT_LT(ToOrderedBits(-1e-30f), ToOrderedBits(-0.0f));
  EXPECT_LT(ToOrderedBits(-0.0f), ToOrderedBits(1e-30f));
}

}  // namespace
}  // namespace sky
