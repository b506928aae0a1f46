// Copyright (c) SkyBench-NG contributors.
#include "data/working_set.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace sky {
namespace {

TEST(WorkingSet, CopiesDatasetAndIds) {
  Dataset d = test::MakeDataset({{1, 2}, {3, 4}, {5, 6}});
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  WorkingSet ws = WorkingSet::FromDataset(d, group);
  ASSERT_EQ(ws.count, 3u);
  EXPECT_EQ(ws.ids, (std::vector<PointId>{0, 1, 2}));
  EXPECT_EQ(ws.Row(2)[1], 6.0f);
}

TEST(WorkingSet, ComputeL1) {
  Dataset d = test::MakeDataset({{1, 2}, {3, 4}});
  Executor::TaskGroup group(test::FourWayExecutor(), 1);
  WorkingSet ws = WorkingSet::FromDataset(d, group);
  ws.ComputeL1(group);
  EXPECT_FLOAT_EQ(ws.l1[0], 3.0f);
  EXPECT_FLOAT_EQ(ws.l1[1], 7.0f);
}

TEST(WorkingSet, PermuteByReordersEverything) {
  Dataset d = test::MakeDataset({{1, 0}, {2, 0}, {3, 0}});
  Executor::TaskGroup group(test::FourWayExecutor(), 1);
  WorkingSet ws = WorkingSet::FromDataset(d, group);
  ws.ComputeL1(group);
  ws.masks = {10, 20, 30};
  ws.PermuteBy({2, 0, 1});
  EXPECT_EQ(ws.Row(0)[0], 3.0f);
  EXPECT_EQ(ws.ids, (std::vector<PointId>{2, 0, 1}));
  EXPECT_FLOAT_EQ(ws.l1[0], 3.0f);
  EXPECT_EQ(ws.masks, (std::vector<Mask>{30, 10, 20}));
}

TEST(WorkingSet, CompressRangeDropsFlagged) {
  Dataset d = test::MakeDataset({{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}});
  Executor::TaskGroup group(test::FourWayExecutor(), 1);
  WorkingSet ws = WorkingSet::FromDataset(d, group);
  ws.ComputeL1(group);
  // Compress the middle range [1, 4): drop offsets 0 and 2 of the range.
  const uint8_t flags[] = {1, 0, 1};
  const size_t kept = ws.CompressRange(1, 4, flags);
  EXPECT_EQ(kept, 1u);
  EXPECT_EQ(ws.Row(1)[0], 3.0f);  // survivor shifted to range start
  EXPECT_EQ(ws.ids[1], 2u);
  EXPECT_EQ(ws.Row(4)[0], 5.0f);  // outside the range: untouched
}

TEST(WorkingSet, CompressRangeAllSurviveOrAllDie) {
  Dataset d = test::MakeDataset({{1, 0}, {2, 0}});
  Executor::TaskGroup group(test::FourWayExecutor(), 1);
  WorkingSet ws = WorkingSet::FromDataset(d, group);
  const uint8_t none[] = {0, 0};
  EXPECT_EQ(ws.CompressRange(0, 2, none), 2u);
  const uint8_t all[] = {1, 1};
  EXPECT_EQ(ws.CompressRange(0, 2, all), 0u);
}

}  // namespace
}  // namespace sky
