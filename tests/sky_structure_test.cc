// Copyright (c) SkyBench-NG contributors.
// Tests for M(S): updateS&M (Algorithm 2) and compareToSky (Algorithm 3).
#include "core/sky_structure.h"

#include <gtest/gtest.h>

#include <random>

#include "data/generator.h"
#include "data/partition.h"
#include "data/prefilter.h"
#include "data/sorting.h"
#include "test_util.h"

namespace sky {
namespace {

/// Build a sorted, masked working set of confirmed skyline points only
/// (computed with the reference oracle) — the exact shape Hybrid appends.
struct Fixture {
  explicit Fixture(Distribution dist, size_t n, int d, uint64_t seed)
      : group(test::FourWayExecutor(), 2),
        data(GenerateSynthetic(dist, n, d, seed)) {
    const auto sky = test::ReferenceSkyline(data);
    std::vector<float> flat;
    for (const PointId id : sky) {
      for (int j = 0; j < d; ++j) flat.push_back(data.Row(id)[j]);
    }
    sky_only = Dataset::FromRowMajor(d, flat);
    ws = WorkingSet::Load(sky_only, group);
    ws.ComputeL1(group);
    const auto pivot = SelectPivot(ws, PivotPolicy::kMedian, group, 1);
    DomCtx dom(ws.dims, ws.stride, true);
    AssignMasks(ws, pivot.data(), dom, group);
    SortByMaskThenL1(ws, group);
  }
  Executor::TaskGroup group;
  Dataset data;
  Dataset sky_only;
  WorkingSet ws;
};

TEST(SkyStructure, EmptyStructureDominatesNothing) {
  SkyStructure s(4, 8, 16);
  DomCtx dom(4, 8, true);
  float q[8] = {1, 1, 1, 1};
  EXPECT_FALSE(s.Dominated(q, 0, dom, nullptr, nullptr));
  EXPECT_EQ(s.size(), 0u);
  s.CheckInvariants();
}

TEST(SkyStructure, AppendMaintainsInvariants) {
  Fixture f(Distribution::kIndependent, 2000, 5, 31);
  DomCtx dom(f.ws.dims, f.ws.stride, true);
  SkyStructure s(f.ws.dims, f.ws.stride, f.ws.count);
  // Append in several uneven chunks, as Hybrid's blocks would.
  size_t pos = 0;
  const size_t chunks[] = {1, 7, 64, 1000000};
  size_t ci = 0;
  while (pos < f.ws.count) {
    const size_t len = std::min(chunks[ci % 4], f.ws.count - pos);
    s.Append(f.ws, pos, len, dom);
    s.CheckInvariants();
    pos += len;
    ++ci;
  }
  EXPECT_EQ(s.size(), f.ws.count);
}

class SkyStructureDominance
    : public ::testing::TestWithParam<std::tuple<Distribution, int>> {};

TEST_P(SkyStructureDominance, MatchesBruteForceScan) {
  const auto [dist, d] = GetParam();
  Fixture f(dist, 1500, d, 77);
  // Probe points: random grid points (some dominated, some not).
  Dataset probes = GenerateSynthetic(dist, 500, d, 123);
  const auto pivot = SelectPivot(f.ws, PivotPolicy::kMedian, f.group, 1);
  const size_t half = f.ws.count / 2;
  // Per-probe (dts, skips) of each kernel flavour: the scalar and AVX2
  // scans must count identically, lane for lane.
  std::vector<std::pair<uint64_t, uint64_t>> counts[2];
  for (const bool use_simd : {false, true}) {
    DomCtx dom(f.ws.dims, f.ws.stride, use_simd);
    SkyStructure s(f.ws.dims, f.ws.stride, f.ws.count);
    // Append the first half as "known skyline".
    s.Append(f.ws, 0, half, dom);
    for (size_t i = 0; i < probes.count(); ++i) {
      const Value* q = probes.Row(i);
      const Mask qmask = dom.PartitionMask(q, pivot.data());
      bool expect = false;
      for (size_t j = 0; j < half && !expect; ++j) {
        expect = DominatesScalar(f.ws.Row(j), q, d);
      }
      uint64_t dts = 0, skips = 0;
      ASSERT_EQ(s.Dominated(q, qmask, dom, &dts, &skips), expect)
          << "probe " << i << " simd=" << use_simd;
      counts[use_simd].emplace_back(dts, skips);
    }
  }
  EXPECT_EQ(counts[0], counts[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkyStructureDominance,
    ::testing::Combine(::testing::Values(Distribution::kCorrelated,
                                         Distribution::kIndependent,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(2, 5, 8, 12)));

TEST(SkyStructure, MaskFiltersActuallySkipWork) {
  Fixture f(Distribution::kAnticorrelated, 3000, 8, 13);
  DomCtx dom(f.ws.dims, f.ws.stride, true);
  SkyStructure s(f.ws.dims, f.ws.stride, f.ws.count);
  s.Append(f.ws, 0, f.ws.count, dom);
  uint64_t dts = 0, skips = 0;
  // Probe with every skyline point itself: none is dominated, and the
  // structure should skip a decent share of partitions.
  for (size_t i = 0; i < f.ws.count; i += 3) {
    // Recompute the level-1 mask: ws.masks are level-1 (pre-append).
    ASSERT_FALSE(
        s.Dominated(f.ws.Row(i), f.ws.masks[i], dom, &dts, &skips));
  }
  EXPECT_GT(skips, 0u);
  // Without filters the scan would be ~ (count/3) * count tests.
  EXPECT_LT(dts, (f.ws.count / 3) * f.ws.count);
}

TEST(SkyStructure, RemoveSweepKeepsDominanceExactAndMirrorBitIdentical) {
  // Randomized removal property test: repeatedly drop a random ~quarter
  // of the stored points (pivots included, so partition promotion and
  // mask recomputation both fire) until the structure is empty. After
  // every sweep the partition map must validate, the SoA tile mirror
  // must be bit-identical to the packed rows (CheckInvariants verifies
  // both), LastAppended must be empty, and Dominated must agree with an
  // independent brute-force scan of the surviving rows, with identical
  // counters from the scalar and AVX2 batched scans.
  Fixture f(Distribution::kAnticorrelated, 1200, 5, 41);
  DomCtx dom(f.ws.dims, f.ws.stride, true);
  DomCtx scalar(f.ws.dims, f.ws.stride, /*use_simd=*/false);
  SkyStructure s(f.ws.dims, f.ws.stride, f.ws.count);
  s.Append(f.ws, 0, f.ws.count, dom);
  const auto pivot = SelectPivot(f.ws, PivotPolicy::kMedian, f.group, 1);
  const Dataset probes =
      GenerateSynthetic(Distribution::kAnticorrelated, 200, 5, 99);

  // Independent row lookup: original id -> working-set row pointer.
  std::vector<const Value*> row_of(f.ws.count, nullptr);
  for (size_t i = 0; i < f.ws.count; ++i) row_of[f.ws.ids[i]] = f.ws.Row(i);

  std::mt19937 rng(7);
  while (s.size() > 0) {
    const std::vector<PointId> current = s.ids();
    std::vector<PointId> drop;
    for (const PointId id : current) {
      if (rng() % 4 == 0) drop.push_back(id);
    }
    if (drop.empty()) drop.push_back(current[rng() % current.size()]);
    std::vector<PointId> survivors;
    for (const PointId id : current) {
      if (std::find(drop.begin(), drop.end(), id) == drop.end()) {
        survivors.push_back(id);
      }
    }

    EXPECT_EQ(s.Remove(drop, dom), drop.size());
    s.CheckInvariants();
    EXPECT_TRUE(s.LastAppended().empty());
    EXPECT_EQ(test::Sorted(s.ids()), test::Sorted(survivors));

    for (size_t i = 0; i < probes.count(); ++i) {
      const Value* q = probes.Row(i);
      const Mask qmask = dom.PartitionMask(q, pivot.data());
      bool expect = false;
      for (size_t k = 0; k < survivors.size() && !expect; ++k) {
        expect = dom.Dominates(row_of[survivors[k]], q);
      }
      uint64_t dts = 0, skips = 0;
      ASSERT_EQ(s.Dominated(q, qmask, dom, &dts, &skips), expect)
          << "probe " << i << " at size " << s.size();
      // The repacked tile mirror feeds both kernel flavours the same
      // lanes: their counters must agree exactly.
      uint64_t scalar_dts = 0, scalar_skips = 0;
      ASSERT_EQ(s.Dominated(q, qmask, scalar, &scalar_dts, &scalar_skips),
                expect);
      EXPECT_EQ(scalar_dts, dts) << "probe " << i << " at size " << s.size();
      EXPECT_EQ(scalar_skips, skips)
          << "probe " << i << " at size " << s.size();
    }
  }
  EXPECT_EQ(s.PartitionCount(), 0u);
}

TEST(SkyStructure, RemoveAbsentIdsIsANoOp) {
  Fixture f(Distribution::kIndependent, 300, 4, 17);
  DomCtx dom(f.ws.dims, f.ws.stride, true);
  SkyStructure s(f.ws.dims, f.ws.stride, f.ws.count);
  s.Append(f.ws, 0, f.ws.count, dom);
  const size_t before = s.size();
  const std::vector<PointId> ghost{1000000, 1000001};
  EXPECT_EQ(s.Remove(ghost, dom), 0u);
  EXPECT_EQ(s.size(), before);
  s.CheckInvariants();
}

TEST(SkyStructure, LastAppendedExposesProgressiveSpan) {
  Fixture f(Distribution::kIndependent, 500, 4, 3);
  DomCtx dom(f.ws.dims, f.ws.stride, true);
  SkyStructure s(f.ws.dims, f.ws.stride, f.ws.count);
  s.Append(f.ws, 0, 10, dom);
  EXPECT_EQ(s.LastAppended().size(), 10u);
  s.Append(f.ws, 10, 5, dom);
  EXPECT_EQ(s.LastAppended().size(), 5u);
  EXPECT_EQ(s.size(), 15u);
}

}  // namespace
}  // namespace sky
