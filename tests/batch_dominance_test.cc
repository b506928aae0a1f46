// Copyright (c) SkyBench-NG contributors.
// Differential and property tests for the batched dominance layer
// (dominance/batch.h): tile layout, lane padding, and verdict
// equivalence of every batch kernel against the DominatesScalar oracle —
// across d in [1, 16], ragged tail tiles, NaN and ±inf coordinates,
// duplicated points, and both kernel flavours (scalar tiles and AVX2
// tiles). The masked-range kernel must also match the oracle's dominance
// test and mask-skip counts lane for lane.
#include "dominance/batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "core/hybrid.h"
#include "core/qflow.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "dominance/dominance.h"
#include "test_util.h"

namespace sky {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// Random dataset on a coarse grid (frequent ties), with optional NaN
/// injection and duplicated rows.
Dataset GridData(int d, size_t n, uint64_t seed, bool with_nan) {
  Dataset data(d, n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3 && i > 0) {  // duplicate an earlier row verbatim
      for (int j = 0; j < d; ++j) {
        data.MutableRow(i)[j] = data.Row(i - 3)[j];
      }
      continue;
    }
    for (int j = 0; j < d; ++j) {
      data.MutableRow(i)[j] = static_cast<float>(rng.NextBounded(6)) / 4.0f;
    }
    if (with_nan && rng.NextBounded(11) == 0) {
      data.MutableRow(i)[rng.NextBounded(static_cast<uint32_t>(d))] = kNaN;
    }
  }
  return data;
}

TEST(TileBlock, LayoutAndPadding) {
  const int d = 3;
  TileBlock tiles(d, 11);  // ragged: 2 tiles, last with 3 valid lanes
  Dataset data = GridData(d, 11, 5, false);
  tiles.AppendRows(data.Row(0), data.stride(), 11);
  ASSERT_EQ(tiles.size(), 11u);
  ASSERT_EQ(tiles.tile_count(), 2u);
  EXPECT_EQ(tiles.ValidLanes(0), kFullLaneMask);
  EXPECT_EQ(tiles.ValidLanes(1), LaneMaskFirst(3));
  for (size_t i = 0; i < 11; ++i) {
    const Value* tile = tiles.Tile(i / kSimdWidth);
    for (int j = 0; j < d; ++j) {
      EXPECT_EQ(tile[j * kSimdWidth + i % kSimdWidth], data.Row(i)[j]);
    }
  }
  // Padding lanes of the ragged tail must hold the inert +inf value.
  const Value* tail = tiles.Tile(1);
  for (size_t lane = 3; lane < kSimdWidth; ++lane) {
    for (int j = 0; j < d; ++j) {
      EXPECT_EQ(tail[j * kSimdWidth + lane], kTileLanePad);
    }
  }
}

TEST(TileBlock, ClearRepadsUsedTiles) {
  const int d = 2;
  TileBlock tiles(d, 16);
  Dataset data = GridData(d, 10, 6, false);
  tiles.AppendRows(data.Row(0), data.stride(), 10);
  tiles.Clear();
  EXPECT_EQ(tiles.size(), 0u);
  tiles.AppendRows(data.Row(0), data.stride(), 3);
  const Value* tile = tiles.Tile(0);
  for (size_t lane = 3; lane < kSimdWidth; ++lane) {
    EXPECT_EQ(tile[lane], kTileLanePad) << "stale lane " << lane;
  }
}

TEST(LaneMasks, Helpers) {
  EXPECT_EQ(LaneMaskFirst(0), 0u);
  EXPECT_EQ(LaneMaskFirst(3), 0b111u);
  EXPECT_EQ(LaneMaskFirst(8), 0xFFu);
  EXPECT_EQ(LaneMaskRange(0, 8), 0xFFu);
  EXPECT_EQ(LaneMaskRange(2, 5), 0b11100u);
  EXPECT_EQ(LaneMaskRange(4, 4), 0u);
}

/// Oracle lane mask: which of tiles' points [t*8, t*8+8) strictly
/// dominate q, per DominatesScalar on the original rows.
uint32_t OracleLaneMask(const Dataset& data, size_t t, const Value* q,
                        uint32_t lane_mask) {
  uint32_t out = 0;
  for (size_t l = 0; l < kSimdWidth; ++l) {
    const size_t idx = t * kSimdWidth + l;
    if ((lane_mask & (1u << l)) == 0 || idx >= data.count()) continue;
    if (DominatesScalar(data.Row(idx), q, data.dims())) out |= 1u << l;
  }
  return out;
}

class BatchKernelDifferential
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(BatchKernelDifferential, TileVerdictsMatchScalarOracle) {
  const auto [d, with_nan] = GetParam();
  const size_t n = 203;  // ragged: 25 full tiles + 3-lane tail
  Dataset window = GridData(d, n, 100 + static_cast<uint64_t>(d), with_nan);
  Dataset probes = GridData(d, 64, 900 + static_cast<uint64_t>(d), with_nan);
  TileBlock tiles(d, n);
  tiles.AppendRows(window.Row(0), window.stride(), n);
  Rng rng(17);
  for (size_t i = 0; i < probes.count(); ++i) {
    const Value* q = probes.Row(i);
    for (size_t t = 0; t < tiles.tile_count(); ++t) {
      // Random lane restriction exercises both ragged tails and interior
      // masked scans (partition windows).
      const uint32_t lane_mask =
          static_cast<uint32_t>(rng.NextBounded(256));
      const uint32_t expect =
          OracleLaneMask(window, t, q, lane_mask & tiles.ValidLanes(t));
      ASSERT_EQ(TileDominatesScalar(q, tiles.Tile(t), d, lane_mask), expect)
          << "scalar tile kernel, d=" << d << " t=" << t;
      if (CpuHasAvx2()) {
        ASSERT_EQ(TileDominatesAvx2(q, tiles.Tile(t), d, lane_mask), expect)
            << "avx2 tile kernel, d=" << d << " t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDims, BatchKernelDifferential,
    ::testing::Combine(::testing::Range(1, kMaxDims + 1),
                       ::testing::Bool()));

class DomCtxBatchDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(DomCtxBatchDifferential, DominatedByAnyMatchesOracleWithPrefixes) {
  const bool use_simd = GetParam();
  for (const int d : {1, 2, 4, 5, 8, 13, 16}) {
    Dataset window = GridData(d, 77, 31 + static_cast<uint64_t>(d), true);
    Dataset probes = GridData(d, 40, 77 + static_cast<uint64_t>(d), true);
    TileBlock tiles(d, 77);
    tiles.AppendRows(window.Row(0), window.stride(), 77);
    DomCtx dom(d, window.stride(), use_simd);
    Rng rng(3);
    for (size_t i = 0; i < probes.count(); ++i) {
      const Value* q = probes.Row(i);
      // Prefix limits cover empty, ragged, tile-aligned and full scans.
      for (const size_t limit : {size_t{0}, size_t{5}, size_t{8},
                                 size_t{16}, size_t{75}, size_t{77},
                                 size_t{1000}}) {
        bool expect = false;
        for (size_t j = 0; j < std::min(limit, window.count()); ++j) {
          if (DominatesScalar(window.Row(j), q, d)) {
            expect = true;
            break;
          }
        }
        uint64_t dts = 0;
        ASSERT_EQ(dom.DominatedByAny(q, tiles, limit, &dts), expect)
            << "d=" << d << " probe=" << i << " limit=" << limit
            << " simd=" << use_simd;
      }
    }
  }
}

TEST_P(DomCtxBatchDifferential, FilterTileMatchesOracle) {
  const bool use_simd = GetParam();
  for (const int d : {1, 3, 6, 8, 12}) {
    Dataset window = GridData(d, 130, 41 + static_cast<uint64_t>(d), true);
    Dataset cands = GridData(d, 90, 53 + static_cast<uint64_t>(d), true);
    TileBlock tiles(d, 130);
    tiles.AppendRows(window.Row(0), window.stride(), 130);
    DomCtx dom(d, window.stride(), use_simd);
    std::vector<uint8_t> flags(cands.count(), 0);
    flags[7] = 1;  // pre-flagged rows must be left alone and skipped
    uint64_t dts = 0;
    dom.FilterTile(cands.Row(0), cands.count(), tiles, flags.data(), &dts);
    EXPECT_GT(dts, 0u);
    for (size_t i = 0; i < cands.count(); ++i) {
      if (i == 7) {
        EXPECT_EQ(flags[i], 1) << "pre-flagged row cleared";
        continue;
      }
      bool expect = false;
      for (size_t j = 0; j < window.count() && !expect; ++j) {
        expect = DominatesScalar(window.Row(j), cands.Row(i), d);
      }
      ASSERT_EQ(flags[i] != 0, expect)
          << "d=" << d << " candidate=" << i << " simd=" << use_simd;
    }
  }
}

TEST_P(DomCtxBatchDifferential, MaskComparableLanesMatchesSubsetTest) {
  // The masked-range scan must test exactly the lanes whose mask is a
  // subset of the candidate's, checked one lane at a time: with a
  // non-dominating window each comparable lane costs one dominance test
  // and each other lane one skip; with a dominating window the verdict
  // is the comparability itself.
  const bool use_simd = GetParam();
  constexpr int d = 4;
  Dataset window = GridData(d, kSimdWidth, 9, false);
  Dataset probe = GridData(d, 1, 10, false);
  for (int j = 0; j < d; ++j) probe.MutableRow(0)[j] = 0.0f;
  const Value* q = probe.Row(0);
  DomCtx dom(d, window.stride(), use_simd);
  Rng rng(9);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<Mask> masks8(kSimdWidth);
    for (auto& k : masks8) k = static_cast<Mask>(rng.NextBounded(1u << 12));
    const Mask m = static_cast<Mask>(rng.NextBounded(1u << 12));
    for (const Value coord : {1.0f, -1.0f}) {  // dominates q iff negative
      for (size_t l = 0; l < kSimdWidth; ++l) {
        for (int j = 0; j < d; ++j) window.MutableRow(l)[j] = coord;
      }
      TileBlock tiles(d, kSimdWidth);
      tiles.AppendRows(window.Row(0), window.stride(), kSimdWidth);
      uint64_t tile_dts = 0;
      uint64_t tile_skips = 0;
      for (size_t l = 0; l < kSimdWidth; ++l) {
        const bool comparable = MaskMayDominate(masks8[l], m);
        uint64_t dts = 0;
        uint64_t skips = 0;
        const bool dominated = dom.DominatedInMaskedRange(
            q, tiles, masks8.data(), m, l, l + 1, nullptr, &dts, &skips);
        ASSERT_EQ(dts, comparable ? 1u : 0u)
            << "lane=" << l << " iter=" << iter << " simd=" << use_simd;
        ASSERT_EQ(skips, comparable ? 0u : 1u)
            << "lane=" << l << " iter=" << iter << " simd=" << use_simd;
        ASSERT_EQ(dominated, comparable && coord < 0)
            << "lane=" << l << " iter=" << iter << " simd=" << use_simd;
        tile_dts += dts;
        tile_skips += skips;
      }
      if (coord > 0) {  // no dominator: the whole tile is scanned
        uint64_t dts = 0;
        uint64_t skips = 0;
        ASSERT_FALSE(dom.DominatedInMaskedRange(q, tiles, masks8.data(), m, 0,
                                                kSimdWidth, nullptr, &dts,
                                                &skips));
        ASSERT_EQ(dts, tile_dts) << "iter=" << iter << " simd=" << use_simd;
        ASSERT_EQ(skips, tile_skips)
            << "iter=" << iter << " simd=" << use_simd;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Flavours, DomCtxBatchDifferential,
                         ::testing::Bool());

/// GridData plus ±inf coordinates, the shapes the masked-range kernel
/// must treat exactly like DominatesScalar.
Dataset SpecialData(int d, size_t n, uint64_t seed) {
  Dataset data = GridData(d, n, seed, /*with_nan=*/true);
  Rng rng(seed ^ 0xabcdefULL);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBounded(9) == 0) {
      const int j = static_cast<int>(rng.NextBounded(static_cast<uint32_t>(d)));
      data.MutableRow(i)[j] = rng.NextBounded(2) != 0 ? kInf : -kInf;
    }
  }
  return data;
}

struct MaskedScan {
  bool dominated = false;
  uint64_t dts = 0;
  uint64_t skips = 0;
  bool operator==(const MaskedScan&) const = default;
};

/// One-vs-one oracle for DominatedInMaskedRange: walks [from, to) tile by
/// tile, skips pruned lanes, counts mask-rejected lanes as skips, tests
/// the rest with DominatesScalar, and stops after the first tile that
/// holds a dominator (the kernels' counting granularity).
MaskedScan MaskedOracle(const Dataset& window, const Value* q,
                        const std::vector<Mask>& masks, Mask m, size_t from,
                        size_t to, const uint8_t* pruned) {
  MaskedScan out;
  for (size_t i = from; i < to; ++i) {
    if (pruned == nullptr || pruned[i] == 0) {
      if (!MaskMayDominate(masks[i], m)) {
        ++out.skips;
      } else {
        ++out.dts;
        out.dominated |= DominatesScalar(window.Row(i), q, window.dims());
      }
    }
    if (out.dominated && (i + 1) % kSimdWidth == 0) break;
  }
  return out;
}

TEST(MaskedRangeKernel, FlavoursMatchOneVsOneOracle) {
  const size_t n = 203;  // 25 full tiles + a 3-lane tail
  Rng rng(61);
  for (int d = 1; d <= kMaxDims; ++d) {
    const Dataset window = SpecialData(d, n, 300 + static_cast<uint64_t>(d));
    Dataset probes = SpecialData(d, 48, 700 + static_cast<uint64_t>(d));
    for (size_t i = 0; i < 8; ++i) {  // coincident with window points
      for (int j = 0; j < d; ++j) {
        probes.MutableRow(i)[j] = window.Row(i * 25)[j];
      }
    }
    TileBlock tiles(d, n);
    tiles.AppendRows(window.Row(0), window.stride(), n);
    std::vector<uint8_t> flags(n);
    for (uint8_t& f : flags) f = rng.NextBounded(3) == 0 ? 1 : 0;
    // Empty ranges (at the end too), starts and ends mid-tile or
    // tile-aligned, and ranges that reach the 3-lane tail.
    std::vector<std::pair<size_t, size_t>> ranges;
    for (const size_t from : {size_t{0}, size_t{3}, size_t{8}, n - 3, n}) {
      for (const size_t len : {size_t{0}, size_t{5}, size_t{13}, n}) {
        ranges.emplace_back(from, std::min(n, from + len));
      }
    }
    for (int r = 0; r < 6; ++r) {
      const size_t to = rng.NextBounded(n + 1);
      ranges.emplace_back(rng.NextBounded(to + 1), to);
    }
    std::vector<Mask> masks(n);
    for (int mode = 0; mode < 3; ++mode) {
      Mask m;
      if (mode == 0) {  // random subsets of 12 bits
        for (Mask& k : masks) k = static_cast<Mask>(rng.NextBounded(1u << 12));
        m = static_cast<Mask>(rng.NextBounded(1u << 12));
      } else if (mode == 1) {  // m = ~0: every lane is comparable
        m = ~Mask{0};
      } else {  // every lane carries a bit outside m: all incomparable
        for (Mask& k : masks) {
          k = static_cast<Mask>(rng.NextBounded(1u << 12)) | 1u;
        }
        m = ~Mask{1};
      }
      for (size_t p = 0; p < probes.count(); ++p) {
        const Value* q = probes.Row(p);
        for (const auto& [from, to] : ranges) {
          for (uint8_t* pruned : {static_cast<uint8_t*>(nullptr),
                                  flags.data()}) {
            const MaskedScan expect =
                MaskedOracle(window, q, masks, m, from, to, pruned);
            // Counters accumulate onto what the caller already holds.
            MaskedScan got{false, 5, 7};
            got.dominated = DominatedInMaskedRangeScalar(
                q, tiles, masks.data(), m, from, to, pruned, &got.dts,
                &got.skips);
            got.dts -= 5;
            got.skips -= 7;
            ASSERT_EQ(got, expect)
                << "scalar d=" << d << " probe=" << p << " [" << from << ", "
                << to << ") mode=" << mode << " pruned=" << (pruned != nullptr)
                << " got dts=" << got.dts << " skips=" << got.skips
                << " expect dts=" << expect.dts << " skips=" << expect.skips;
            if (CpuHasAvx2()) {
              MaskedScan avx;
              avx.dominated = DominatedInMaskedRangeAvx2(
                  q, tiles, masks.data(), m, from, to, pruned, &avx.dts,
                  &avx.skips);
              ASSERT_EQ(avx, expect)
                  << "avx2 d=" << d << " probe=" << p << " [" << from
                  << ", " << to << ") mode=" << mode
                  << " pruned=" << (pruned != nullptr);
            }
          }
        }
      }
    }
  }
}

/// Rows that sit on the weak/strict dominance boundary around probe q.
/// `s` is the one coordinate at which the strict rows are smaller, and
/// its neighbour carries a NaN or a violation. The AVX2 tile test runs its
/// strictness pass only for lanes that weakly dominate q, so the first
/// three rows (weak, never strict) are the ones that reach it and must
/// still come back empty. kStrictRows marks the rows that dominate a
/// probe whose coordinate s is not NaN.
constexpr int kBoundaryRows = 7;
constexpr uint32_t kStrictRows = 0b0011000;
constexpr int kNonStrictRows[] = {0, 1, 2, 5, 6};
std::vector<Value> BoundaryRow(const std::vector<Value>& q, int s, int kind) {
  const int nb = (s + 1) % static_cast<int>(q.size());  // == s when d == 1
  const Value smaller = std::isnan(q[s]) ? -1.0f : q[s] - 0.25f;
  std::vector<Value> w = q;
  switch (kind) {
    case 0:  // coincident copy of q
      break;
    case 1:  // q with every ±0 swapped for its opposite sign
      for (Value& v : w) {
        if (v == 0.0f) v = -v;
      }
      break;
    case 2:  // the strict coordinate is NaN
      w[s] = kNaN;
      break;
    case 3:  // strict dominator
      w[s] = smaller;
      break;
    case 4:  // strict dominator whose only smaller coordinate is next to NaN
      w[s] = smaller;
      if (nb != s) w[nb] = kNaN;
      break;
    case 5:  // smaller at s, greater at its neighbour: incomparable
      w[s] = smaller;
      w[nb] = nb != s ? q[nb] + 0.25f : 2.0f;
      break;
    default:  // dominated by q
      w[s] = q[s] + 0.25f;
      break;
  }
  return w;
}

Dataset RowsToDataset(int d, const std::vector<std::vector<Value>>& rows) {
  Dataset data(d, rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int j = 0; j < d; ++j) data.MutableRow(i)[j] = rows[i][j];
  }
  return data;
}

class WeakDominanceBoundary : public ::testing::TestWithParam<int> {};

TEST_P(WeakDominanceBoundary, FlavoursAgreeOnWeakButNotStrictLanes) {
  const int d = GetParam();
  constexpr size_t n = 3 * kSimdWidth + 3;  // ragged 3-lane tail
  const DomCtx scalar(d, Dataset::StrideFor(d), /*use_simd=*/false);
  const DomCtx simd(d, Dataset::StrideFor(d), /*use_simd=*/true);
  Rng rng(500 + static_cast<uint64_t>(d));
  // The strict coordinate lands before and after kEarlyOutFromDim (4).
  for (int s = 0; s < d; ++s) {
    std::vector<Value> base(static_cast<size_t>(d));
    for (int j = 0; j < d; ++j) {
      base[j] = j % 3 == 0 ? 0.0f : static_cast<float>(1 + j % 4) / 4.0f;
    }
    std::vector<Value> neg_zero = base;  // the same probe with -0 for +0
    for (Value& v : neg_zero) {
      if (v == 0.0f) v = -0.0f;
    }
    std::vector<Value> nan_s = base;  // strict rows lose their strictness
    nan_s[s] = kNaN;
    for (const auto& qv : {base, neg_zero, nan_s}) {
      const Dataset probe = RowsToDataset(d, {qv});
      const Value* q = probe.Row(0);
      // Layouts: every boundary row cycled through every lane, then one
      // strict row at each position among weak or incomparable rows.
      std::vector<std::vector<int>> layouts;
      for (int rot = 0; rot < kBoundaryRows; ++rot) {
        std::vector<int>& kinds = layouts.emplace_back();
        for (size_t i = 0; i < n; ++i) {
          kinds.push_back(static_cast<int>((i + rot) % kBoundaryRows));
        }
      }
      for (size_t pos = 0; pos <= n; ++pos) {  // pos == n: no strict row
        std::vector<int>& kinds = layouts.emplace_back();
        for (size_t i = 0; i < n; ++i) {
          kinds.push_back(i == pos ? 3 + static_cast<int>(pos % 2)
                                   : kNonStrictRows[i % 5]);
        }
      }
      for (const std::vector<int>& kinds : layouts) {
        std::vector<std::vector<Value>> rows;
        for (const int k : kinds) rows.push_back(BoundaryRow(qv, s, k));
        const Dataset window = RowsToDataset(d, rows);
        TileBlock tiles(d, n);
        tiles.AppendRows(window.Row(0), window.stride(), n);
        std::vector<uint8_t> strict(n);
        uint32_t strict_count = 0;
        for (size_t i = 0; i < n; ++i) {
          strict[i] = DominatesScalar(window.Row(i), q, d) ? 1 : 0;
          strict_count += strict[i];
          if (!std::isnan(qv[s])) {
            ASSERT_EQ(strict[i] != 0, ((kStrictRows >> kinds[i]) & 1) != 0)
                << "boundary row kind " << kinds[i] << " d=" << d;
          }
        }
        const std::string where = "d=" + std::to_string(d) +
                                  " s=" + std::to_string(s) +
                                  " q[s]=" + std::to_string(qv[s]);

        // Tile kernels: valid lanes, random subsets, and masks that drop
        // exactly the strict lanes.
        for (size_t t = 0; t < tiles.tile_count(); ++t) {
          uint32_t strict_lanes = 0;
          for (size_t l = 0; l < kSimdWidth; ++l) {
            const size_t i = t * kSimdWidth + l;
            if (i < n && strict[i] != 0) strict_lanes |= 1u << l;
          }
          const uint32_t valid = tiles.ValidLanes(t);
          for (const uint32_t lane_mask :
               {valid, valid & ~strict_lanes, strict_lanes,
                static_cast<uint32_t>(rng.NextBounded(256)) & valid}) {
            const uint32_t expect = OracleLaneMask(window, t, q, lane_mask);
            const uint32_t got_scalar =
                TileDominatesScalar(q, tiles.Tile(t), d, lane_mask);
            ASSERT_EQ(got_scalar, expect) << where << " t=" << t;
            if (CpuHasAvx2()) {
              ASSERT_EQ(TileDominatesAvx2(q, tiles.Tile(t), d, lane_mask),
                        got_scalar)
                  << where << " t=" << t << " lanes=" << lane_mask;
            }
          }
        }

        // Prefix scans and their suffix complements.
        for (size_t cut = 0; cut <= n; ++cut) {
          bool prefix = false;
          bool suffix = false;
          for (size_t i = 0; i < n; ++i) {
            (i < cut ? prefix : suffix) |= strict[i] != 0;
          }
          uint64_t dts_a = 0, dts_b = 0;
          ASSERT_EQ(scalar.DominatedByAny(q, tiles, cut, &dts_a), prefix)
              << where << " limit=" << cut;
          ASSERT_EQ(simd.DominatedByAny(q, tiles, cut, &dts_b), prefix)
              << where << " limit=" << cut;
          ASSERT_EQ(dts_a, dts_b) << where << " limit=" << cut;
          dts_a = dts_b = 0;
          ASSERT_EQ(scalar.DominatedInRange(q, tiles, cut, &dts_a), suffix)
              << where << " from=" << cut;
          ASSERT_EQ(simd.DominatedInRange(q, tiles, cut, &dts_b), suffix)
              << where << " from=" << cut;
          ASSERT_EQ(dts_a, dts_b) << where << " from=" << cut;
        }

        // Dominator counts, with the cap hit and not hit.
        for (const uint32_t cap :
             {1u, 2u, strict_count, strict_count + 1, 64u}) {
          uint64_t dts_a = 0, dts_b = 0;
          const uint32_t count_a =
              scalar.CountDominators(q, tiles, n, cap, &dts_a);
          const uint32_t count_b =
              simd.CountDominators(q, tiles, n, cap, &dts_b);
          ASSERT_EQ(count_a, count_b) << where << " cap=" << cap;
          ASSERT_EQ(dts_a, dts_b) << where << " cap=" << cap;
          if (cap > strict_count) {
            ASSERT_EQ(count_a, strict_count) << where << " cap=" << cap;
          } else if (cap > 0) {
            ASSERT_GE(count_a, cap) << where;
          }
        }

        // Many-vs-many: the probe and every window row as candidates.
        {
          std::vector<std::vector<Value>> cand_rows = rows;
          cand_rows.push_back(qv);
          const Dataset cands = RowsToDataset(d, cand_rows);
          std::vector<uint8_t> flags_a(cands.count()), flags_b(cands.count());
          flags_a[1] = flags_b[1] = 1;  // pre-flagged rows stay skipped
          uint64_t dts_a = 0, dts_b = 0;
          const size_t got_a = scalar.FilterTile(cands.Row(0), cands.count(),
                                                 tiles, flags_a.data(), &dts_a);
          const size_t got_b = simd.FilterTile(cands.Row(0), cands.count(),
                                               tiles, flags_b.data(), &dts_b);
          ASSERT_EQ(got_a, got_b) << where;
          ASSERT_EQ(flags_a, flags_b) << where;
          ASSERT_EQ(dts_a, dts_b) << where;
          ASSERT_EQ(flags_a.back(), strict_count > 0 ? 1 : 0) << where;
        }

        // Masked ranges: strict rows dropped by masks, pruned flags or the
        // range bounds, and random masks and flags.
        std::vector<Mask> masks(n);
        std::vector<uint8_t> prune_strict = strict;
        std::vector<uint8_t> prune_random(n);
        for (uint8_t& f : prune_random) f = rng.NextBounded(3) == 0 ? 1 : 0;
        for (int mode = 0; mode < 3; ++mode) {
          Mask m;
          if (mode == 0) {  // every lane comparable
            for (Mask& k : masks) k = static_cast<Mask>(rng.NextBounded(64));
            m = ~Mask{0};
          } else if (mode == 1) {  // strict lanes carry a bit outside m
            for (size_t i = 0; i < n; ++i) masks[i] = strict[i] ? 0b10 : 0b01;
            m = 0b01;
          } else {  // random subsets
            for (Mask& k : masks) k = static_cast<Mask>(rng.NextBounded(16));
            m = static_cast<Mask>(rng.NextBounded(16));
          }
          for (uint8_t* pruned : {static_cast<uint8_t*>(nullptr),
                                  prune_strict.data(), prune_random.data()}) {
            for (size_t from = 0; from <= n; from += 5) {
              for (const size_t to : {from, from + 1, from + 9, n}) {
                if (to > n) continue;
                const MaskedScan expect =
                    MaskedOracle(window, q, masks, m, from, to, pruned);
                MaskedScan a, b;
                a.dominated = scalar.DominatedInMaskedRange(
                    q, tiles, masks.data(), m, from, to, pruned, &a.dts,
                    &a.skips);
                b.dominated = simd.DominatedInMaskedRange(
                    q, tiles, masks.data(), m, from, to, pruned, &b.dts,
                    &b.skips);
                ASSERT_EQ(a, expect) << where << " [" << from << ", " << to
                                     << ") mode=" << mode;
                ASSERT_EQ(b, a) << where << " [" << from << ", " << to
                                << ") mode=" << mode;
              }
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDims, WeakDominanceBoundary,
                         ::testing::Range(1, kMaxDims + 1));

TEST(EqualKernel, Avx2MatchesScalarIncludingNaN) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  for (const int d : {1, 4, 8, 9, 16}) {
    Dataset data = GridData(d, 128, 600 + static_cast<uint64_t>(d), true);
    DomCtx dom(d, data.stride(), /*use_simd=*/true);
    for (size_t i = 0; i + 1 < data.count(); ++i) {
      const Value* p = data.Row(i);
      const Value* q = data.Row(i + 1);
      EXPECT_EQ(EqualAvx2(p, q, data.stride()), EqualScalar(p, q, d));
      EXPECT_EQ(dom.Equal(p, p), EqualScalar(p, p, d));
    }
  }
  // A NaN coordinate is unequal even to itself (scalar convention).
  Dataset one(4, 1);
  one.MutableRow(0)[2] = kNaN;
  EXPECT_FALSE(EqualAvx2(one.Row(0), one.Row(0), one.stride()));
  EXPECT_FALSE(EqualScalar(one.Row(0), one.Row(0), 4));
}

TEST(PaddingLanes, NeverDominateAnyProbe) {
  // A lone point in an 8-lane tile: the 7 padding lanes must stay inert
  // for finite, infinite and NaN probes alike.
  const int d = 4;
  TileBlock tiles(d, 1);
  const float row[4] = {0.5f, 0.5f, 0.5f, 0.5f};
  tiles.PushRow(row);
  const float probes[][4] = {{0.1f, 0.1f, 0.1f, 0.1f},
                             {0.9f, 0.9f, 0.9f, 0.9f},
                             {kNaN, 0.9f, 0.9f, 0.9f},
                             {kTileLanePad, kTileLanePad, kTileLanePad,
                              kTileLanePad}};
  for (const auto& q : probes) {
    const uint32_t scalar =
        TileDominatesScalar(q, tiles.Tile(0), d, kFullLaneMask);
    EXPECT_EQ(scalar & ~1u, 0u) << "padding lane dominated a probe";
    if (CpuHasAvx2()) {
      EXPECT_EQ(TileDominatesAvx2(q, tiles.Tile(0), d, kFullLaneMask),
                scalar);
    }
  }
}

/// End-to-end: the batched hot loops must produce exactly the skyline of
/// the independent brute-force oracle on adversarial data (ties,
/// duplicates), across several blocks and a ragged last block.
TEST(BatchedAlgorithms, MatchReferenceSkyline) {
  for (const auto dist : {Distribution::kIndependent,
                          Distribution::kAnticorrelated}) {
    for (const int d : {2, 5, 8}) {
      Dataset data = GenerateSynthetic(dist, 6000, d, 271);
      const std::vector<PointId> expect = test::ReferenceSkyline(data);
      for (const Algorithm algo : {Algorithm::kQFlow, Algorithm::kHybrid}) {
        Options opts;
        opts.algorithm = algo;
        opts.threads = 2;
        opts.alpha = 512;  // several blocks, ragged last block
        const Result r = algo == Algorithm::kQFlow ? QFlowCompute(data, opts)
                                                   : HybridCompute(data, opts);
        EXPECT_EQ(test::Sorted(r.skyline), expect)
            << AlgorithmName(algo) << " dist=" << static_cast<int>(dist)
            << " d=" << d;
      }
    }
  }
}

}  // namespace
}  // namespace sky
