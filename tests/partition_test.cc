// Copyright (c) SkyBench-NG contributors.
#include "data/partition.h"

#include <gtest/gtest.h>

#include "data/generator.h"
#include "test_util.h"

namespace sky {
namespace {

WorkingSet MakeWs(const Dataset& data, Executor::TaskGroup& group) {
  WorkingSet ws = WorkingSet::Load(data, group);
  ws.ComputeL1(group);
  return ws;
}

class PivotPolicies : public ::testing::TestWithParam<PivotPolicy> {};

TEST_P(PivotPolicies, ProducesFiniteInRangePivot) {
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 2000, 6, 21);
  WorkingSet ws = MakeWs(data, group);
  const auto pivot = SelectPivot(ws, GetParam(), group, 42);
  ASSERT_EQ(pivot.size(), static_cast<size_t>(ws.stride));
  for (int j = 0; j < ws.dims; ++j) {
    EXPECT_GE(pivot[static_cast<size_t>(j)], 0.0f);
    EXPECT_LE(pivot[static_cast<size_t>(j)], 1.0f);
  }
  for (int j = ws.dims; j < ws.stride; ++j) {
    EXPECT_EQ(pivot[static_cast<size_t>(j)], 0.0f) << "padding";
  }
}

INSTANTIATE_TEST_SUITE_P(All, PivotPolicies,
                         ::testing::Values(PivotPolicy::kMedian,
                                           PivotPolicy::kBalanced,
                                           PivotPolicy::kManhattan,
                                           PivotPolicy::kVolume,
                                           PivotPolicy::kRandom));

TEST(Pivot, ManhattanPicksMinL1SkylinePoint) {
  Executor::TaskGroup group(test::FourWayExecutor(), 1);
  Dataset data = test::MakeDataset({{5, 5}, {1, 2}, {4, 1}});
  WorkingSet ws = MakeWs(data, group);
  const auto pivot = SelectPivot(ws, PivotPolicy::kManhattan, group, 0);
  EXPECT_EQ(pivot[0], 1.0f);
  EXPECT_EQ(pivot[1], 2.0f);
}

TEST(Pivot, RandomPivotIsSkylinePoint) {
  Executor::TaskGroup group(test::FourWayExecutor(), 1);
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 800, 4, 9);
  const auto skyline = test::ReferenceSkyline(data);
  WorkingSet ws = MakeWs(data, group);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const auto pivot = SelectPivot(ws, PivotPolicy::kRandom, group, seed);
    bool found = false;
    for (const PointId id : skyline) {
      bool same = true;
      for (int j = 0; j < ws.dims; ++j) {
        same &= data.Row(id)[j] == pivot[static_cast<size_t>(j)];
      }
      found |= same;
    }
    EXPECT_TRUE(found) << "seed " << seed << ": pivot not a skyline point";
  }
}

TEST(Pivot, BalancedPivotIsSkylinePoint) {
  Executor::TaskGroup group(test::FourWayExecutor(), 1);
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 800, 4, 10);
  const auto skyline = test::ReferenceSkyline(data);
  WorkingSet ws = MakeWs(data, group);
  const auto pivot = SelectPivot(ws, PivotPolicy::kBalanced, group, 0);
  bool found = false;
  for (const PointId id : skyline) {
    bool same = true;
    for (int j = 0; j < ws.dims; ++j) {
      same &= data.Row(id)[j] == pivot[static_cast<size_t>(j)];
    }
    found |= same;
  }
  EXPECT_TRUE(found);
}

TEST(Pivot, MedianSplitsRoughlyInHalfPerDim) {
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 4000, 3, 13);
  WorkingSet ws = MakeWs(data, group);
  const auto pivot = SelectPivot(ws, PivotPolicy::kMedian, group, 0);
  for (int j = 0; j < ws.dims; ++j) {
    size_t below = 0;
    for (size_t i = 0; i < ws.count; ++i) {
      below += ws.Row(i)[j] < pivot[static_cast<size_t>(j)];
    }
    EXPECT_NEAR(static_cast<double>(below) / ws.count, 0.5, 0.05);
  }
}

TEST(AssignMasks, MatchesScalarDefinition) {
  Executor::TaskGroup group(test::FourWayExecutor(), 3);
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 1000, 7, 15);
  WorkingSet ws = MakeWs(data, group);
  const auto pivot = SelectPivot(ws, PivotPolicy::kMedian, group, 0);
  DomCtx dom(ws.dims, ws.stride, true);
  AssignMasks(ws, pivot.data(), dom, group);
  ASSERT_EQ(ws.masks.size(), ws.count);
  for (size_t i = 0; i < ws.count; ++i) {
    Mask expect = 0;
    for (int j = 0; j < ws.dims; ++j) {
      expect |= static_cast<Mask>(ws.Row(i)[j] >= pivot[static_cast<size_t>(j)])
                << j;
    }
    ASSERT_EQ(ws.masks[i], expect) << "point " << i;
  }
}

TEST(Pivot, ParsePolicyNames) {
  EXPECT_EQ(ParsePivotPolicy("median"), PivotPolicy::kMedian);
  EXPECT_EQ(ParsePivotPolicy("balanced"), PivotPolicy::kBalanced);
  EXPECT_THROW(ParsePivotPolicy("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace sky
