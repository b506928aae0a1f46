// Copyright (c) SkyBench-NG contributors.
#include "data/sorting.h"

#include <gtest/gtest.h>

#include "common/bits.h"
#include "data/generator.h"
#include "data/partition.h"
#include "dominance/dominance.h"
#include "test_util.h"

namespace sky {
namespace {

WorkingSet MakeWs(const Dataset& data, Executor::TaskGroup& group) {
  WorkingSet ws = WorkingSet::FromDataset(data, group);
  ws.ComputeL1(group);
  return ws;
}

class SortThreads : public ::testing::TestWithParam<int> {};

TEST_P(SortThreads, L1OrderIsNonDecreasing) {
  Executor::TaskGroup group(test::FourWayExecutor(), GetParam());
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 5000, 5, 3);
  WorkingSet ws = MakeWs(data, group);
  SortByL1(ws, group);
  EXPECT_TRUE(IsSortedByL1(ws));
  // Rows, ids and l1 must stay consistent after the permutation.
  for (size_t i = 0; i < ws.count; ++i) {
    float acc = 0;
    for (int j = 0; j < ws.dims; ++j) acc += ws.Row(i)[j];
    ASSERT_FLOAT_EQ(acc, ws.l1[i]);
    ASSERT_FLOAT_EQ(acc, [&] {
      float a = 0;
      for (int j = 0; j < data.dims(); ++j) a += data.Row(ws.ids[i])[j];
      return a;
    }());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SortThreads, ::testing::Values(1, 2, 4));

TEST(Sorting, L1SortGuaranteesNoBackwardDominance) {
  // Paper §V-A: if p precedes q in the sort order, q cannot dominate p.
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 1500, 4, 8);
  WorkingSet ws = MakeWs(data, group);
  SortByL1(ws, group);
  DomCtx dom(ws.dims, ws.stride, true);
  for (size_t i = 0; i < ws.count; i += 7) {
    for (size_t j = i + 1; j < ws.count; j += 13) {
      ASSERT_FALSE(dom.Dominates(ws.Row(j), ws.Row(i)))
          << "successor " << j << " dominates predecessor " << i;
    }
  }
}

TEST(Sorting, CompositeSortOrdersByLevelMaskThenL1) {
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 3000, 6, 5);
  WorkingSet ws = MakeWs(data, group);
  const auto pivot = SelectPivot(ws, PivotPolicy::kMedian, group, 0);
  DomCtx dom(ws.dims, ws.stride, true);
  AssignMasks(ws, pivot.data(), dom, group);
  SortByMaskThenL1(ws, group);
  for (size_t i = 1; i < ws.count; ++i) {
    const uint32_t ka = CompositeMaskKey(ws.masks[i - 1], ws.dims);
    const uint32_t kb = CompositeMaskKey(ws.masks[i], ws.dims);
    ASSERT_LE(ka, kb) << "composite key order violated at " << i;
    if (ka == kb) {
      ASSERT_LE(ws.l1[i - 1], ws.l1[i]) << "L1 tiebreak violated at " << i;
    }
  }
}

TEST(Sorting, CompositeSortKeepsNoBackwardDominance) {
  // The composite order must preserve the Q-Flow invariant: a successor
  // never dominates a predecessor (needed for block-append correctness).
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 1200, 5, 6);
  WorkingSet ws = MakeWs(data, group);
  const auto pivot = SelectPivot(ws, PivotPolicy::kMedian, group, 0);
  DomCtx dom(ws.dims, ws.stride, true);
  AssignMasks(ws, pivot.data(), dom, group);
  SortByMaskThenL1(ws, group);
  for (size_t i = 0; i < ws.count; i += 5) {
    for (size_t j = i + 1; j < ws.count; j += 11) {
      ASSERT_FALSE(dom.Dominates(ws.Row(j), ws.Row(i)));
    }
  }
}

TEST(Sorting, MinCoordOrderForSalsa) {
  Executor::TaskGroup group(test::FourWayExecutor(), 1);
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 2000, 3, 4);
  WorkingSet ws = MakeWs(data, group);
  SortByMinCoord(ws, group);
  const auto min_of = [&](size_t i) {
    float mn = ws.Row(i)[0];
    for (int j = 1; j < ws.dims; ++j) mn = std::min(mn, ws.Row(i)[j]);
    return mn;
  };
  for (size_t i = 1; i < ws.count; ++i) {
    ASSERT_LE(min_of(i - 1), min_of(i));
  }
}

TEST(Sorting, EmptyAndSingleton) {
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  Dataset single = test::MakeDataset({{1, 2}});
  WorkingSet ws = MakeWs(single, group);
  SortByL1(ws, group);
  EXPECT_EQ(ws.count, 1u);
  EXPECT_EQ(ws.ids[0], 0u);
}

}  // namespace
}  // namespace sky
