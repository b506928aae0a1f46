// Copyright (c) SkyBench-NG contributors.
#include "core/qflow.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "data/generator.h"
#include "test_util.h"

namespace sky {
namespace {

Options QFlowOpts(int threads, size_t alpha = 0) {
  Options o;
  o.algorithm = Algorithm::kQFlow;
  o.threads = threads;
  o.executor = &test::FourWayExecutor();
  o.alpha = alpha;
  return o;
}

TEST(QFlow, TinyHandPickedCase) {
  // Figure 1a of the paper: p(2,2), q(4,4), r(1,5), s(5,1), t(3,1.5)-ish.
  Dataset data = test::MakeDataset(
      {{2, 2}, {4, 4}, {1, 5}, {5, 1}, {3, 1.5}});
  Result r = QFlowCompute(data, QFlowOpts(2));
  // q=(4,4) is dominated by p=(2,2); everything else is skyline.
  EXPECT_EQ(test::Sorted(r.skyline), (std::vector<PointId>{0, 2, 3, 4}));
}

class QFlowAgainstOracle
    : public ::testing::TestWithParam<std::tuple<Distribution, int, int>> {};

TEST_P(QFlowAgainstOracle, MatchesReference) {
  const auto [dist, d, threads] = GetParam();
  Dataset data = GenerateSynthetic(dist, 4000, d, 19);
  Result r = QFlowCompute(data, QFlowOpts(threads));
  EXPECT_EQ(test::Sorted(r.skyline),
            test::Sorted(test::ReferenceSkyline(data)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QFlowAgainstOracle,
    ::testing::Combine(::testing::Values(Distribution::kCorrelated,
                                         Distribution::kIndependent,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(2, 6, 12),
                       ::testing::Values(1, 4)));

class QFlowAlphaEdge : public ::testing::TestWithParam<size_t> {};

TEST_P(QFlowAlphaEdge, AnyBlockSizeIsCorrect) {
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 777, 4, 5);
  Result r = QFlowCompute(data, QFlowOpts(3, GetParam()));
  EXPECT_EQ(test::Sorted(r.skyline),
            test::Sorted(test::ReferenceSkyline(data)));
}

// α = 1 degenerates into a fully sequential-ish scan, α larger than n
// makes a single block; both must stay correct.
INSTANTIATE_TEST_SUITE_P(Alphas, QFlowAlphaEdge,
                         ::testing::Values(1, 2, 63, 256, 100000));

TEST(QFlow, DuplicateSkylinePointsAllReported) {
  Dataset data = test::MakeDataset(
      {{1, 2}, {1, 2}, {2, 1}, {3, 3}, {1, 2}});
  Result r = QFlowCompute(data, QFlowOpts(2, 2));
  // (3,3) is dominated; all three copies of (1,2) and (2,1) remain.
  EXPECT_EQ(test::Sorted(r.skyline), (std::vector<PointId>{0, 1, 2, 4}));
}

TEST(QFlow, EmptyInput) {
  Dataset data;
  Result r = QFlowCompute(data, QFlowOpts(4));
  EXPECT_TRUE(r.skyline.empty());
}

TEST(QFlow, ProgressiveCallbackCoversExactlyTheSkyline) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 3000, 5, 23);
  Options o = QFlowOpts(4, 128);
  std::vector<PointId> streamed;
  o.progressive = [&](std::span<const PointId> chunk) {
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  };
  Result r = QFlowCompute(data, o);
  EXPECT_EQ(test::Sorted(streamed), test::Sorted(r.skyline));
}

TEST(QFlow, StatsAccounting) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 5000, 6, 29);
  Options o = QFlowOpts(2);
  o.count_dts = true;
  Result r = QFlowCompute(data, o);
  EXPECT_EQ(r.stats.skyline_size, r.skyline.size());
  EXPECT_GT(r.stats.dominance_tests, 0u);
  EXPECT_GT(r.stats.total_seconds, 0.0);
  EXPECT_LE(r.stats.init_seconds + r.stats.phase1_seconds +
                r.stats.phase2_seconds + r.stats.compress_seconds,
            r.stats.total_seconds + 1e-6);
}

TEST(QFlow, DeterministicResultAcrossThreadCounts) {
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 2500, 6, 31);
  const auto one = test::Sorted(QFlowCompute(data, QFlowOpts(1)).skyline);
  for (int t : {2, 3, 8}) {
    EXPECT_EQ(test::Sorted(QFlowCompute(data, QFlowOpts(t)).skyline), one);
  }
}

}  // namespace
}  // namespace sky
