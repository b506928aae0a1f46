// Copyright (c) SkyBench-NG contributors.
#include "data/prefilter.h"

#include <gtest/gtest.h>

#include <set>

#include "data/generator.h"
#include "test_util.h"

namespace sky {
namespace {

class PrefilterSafety
    : public ::testing::TestWithParam<std::tuple<Distribution, int, int>> {};

TEST_P(PrefilterSafety, NeverRemovesSkylinePoints) {
  const auto [dist, threads, beta] = GetParam();
  Dataset data = GenerateSynthetic(dist, 3000, 5, 17);
  const auto skyline = test::ReferenceSkyline(data);
  const std::set<PointId> sky_set(skyline.begin(), skyline.end());

  Executor::TaskGroup group(test::FourWayExecutor(), threads);
  WorkingSet ws = WorkingSet::Load(data, group);
  ws.ComputeL1(group);
  DomCtx dom(ws.dims, ws.stride, true);
  const size_t removed = Prefilter(ws, group, beta, dom, nullptr);
  EXPECT_EQ(ws.count + removed, data.count());
  // Every skyline id must still be present.
  std::set<PointId> surviving(ws.ids.begin(), ws.ids.end());
  for (const PointId id : skyline) {
    EXPECT_TRUE(surviving.count(id)) << "skyline point " << id << " removed";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrefilterSafety,
    ::testing::Combine(::testing::Values(Distribution::kCorrelated,
                                         Distribution::kIndependent,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(1, 4),
                       ::testing::Values(1, 8, 32)));

TEST(Prefilter, RemovesMostOfCorrelatedData) {
  Dataset data = GenerateSynthetic(Distribution::kCorrelated, 20000, 8, 5);
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  WorkingSet ws = WorkingSet::Load(data, group);
  ws.ComputeL1(group);
  DomCtx dom(ws.dims, ws.stride, true);
  const size_t removed = Prefilter(ws, group, 8, dom, nullptr);
  // The paper's point: on correlated data the pre-filter nearly produces
  // the solution by itself.
  EXPECT_GT(removed, data.count() / 2);
}

TEST(Prefilter, DuplicatePointsSurvive) {
  // All-identical input: nothing dominates anything; nothing is removed.
  std::vector<float> flat;
  for (int i = 0; i < 100; ++i) {
    flat.push_back(1.0f);
    flat.push_back(2.0f);
  }
  Dataset data = Dataset::FromRowMajor(2, flat);
  Executor::TaskGroup group(test::FourWayExecutor(), 3);
  WorkingSet ws = WorkingSet::Load(data, group);
  ws.ComputeL1(group);
  DomCtx dom(ws.dims, ws.stride, true);
  EXPECT_EQ(Prefilter(ws, group, 8, dom, nullptr), 0u);
  EXPECT_EQ(ws.count, 100u);
}

TEST(Prefilter, BetaZeroDisables) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 500, 4, 3);
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  WorkingSet ws = WorkingSet::Load(data, group);
  ws.ComputeL1(group);
  DomCtx dom(ws.dims, ws.stride, true);
  EXPECT_EQ(Prefilter(ws, group, 0, dom, nullptr), 0u);
}

TEST(Prefilter, CountsDominanceTests) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 2000, 4, 3);
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  WorkingSet ws = WorkingSet::Load(data, group);
  ws.ComputeL1(group);
  DomCtx dom(ws.dims, ws.stride, true);
  DtCounter counter(true);
  Prefilter(ws, group, 8, dom, &counter);
  EXPECT_GT(counter.tests(), 0u);
}

}  // namespace
}  // namespace sky
