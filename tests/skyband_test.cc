// Copyright (c) SkyBench-NG contributors.
#include "core/skyband.h"

#include <gtest/gtest.h>

#include <map>

#include "core/skyline.h"
#include "data/generator.h"
#include "dominance/batch.h"
#include "test_util.h"

namespace sky {
namespace {

/// Brute-force oracle: exact dominator counts for every point.
std::map<PointId, uint32_t> BruteForceCounts(const Dataset& data) {
  std::map<PointId, uint32_t> counts;
  const int d = data.dims();
  for (size_t i = 0; i < data.count(); ++i) {
    uint32_t c = 0;
    for (size_t j = 0; j < data.count(); ++j) {
      if (i == j) continue;
      const Value* p = data.Row(j);
      const Value* q = data.Row(i);
      bool all_le = true, some_lt = false;
      for (int k = 0; k < d; ++k) {
        all_le &= p[k] <= q[k];
        some_lt |= p[k] < q[k];
      }
      c += all_le && some_lt;
    }
    counts[static_cast<PointId>(i)] = c;
  }
  return counts;
}

TEST(Skyband, KOneEqualsSkyline) {
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 2000, 5, 3);
  Options o;
  o.threads = 3;
  const SkybandResult band = ComputeSkyband(data, 1, o);
  Options sky_opts;
  sky_opts.algorithm = Algorithm::kBnl;
  const Result sky = ComputeSkyline(data, sky_opts);
  EXPECT_EQ(test::Sorted(band.skyband), test::Sorted(sky.skyline));
  for (const uint32_t c : band.dominator_counts) EXPECT_EQ(c, 0u);
}

class SkybandSweep
    : public ::testing::TestWithParam<std::tuple<Distribution, uint32_t, int>> {
};

TEST_P(SkybandSweep, MembershipAndCountsMatchBruteForce) {
  const auto [dist, k, threads] = GetParam();
  Dataset data = GenerateSynthetic(dist, 1500, 4, 17);
  const auto truth = BruteForceCounts(data);
  Options o;
  o.threads = threads;
  o.alpha = 128;  // many small blocks: stress the two-phase counting
  const SkybandResult band = ComputeSkyband(data, k, o);
  // Membership: exactly the points with < k dominators.
  std::vector<PointId> expect;
  for (const auto& [id, c] : truth) {
    if (c < k) expect.push_back(id);
  }
  ASSERT_EQ(test::Sorted(band.skyband), expect);
  if (dist == Distribution::kAnticorrelated) {
    // Each block confirms at most alpha members, so a final band of at
    // least kBatchWindowMin + alpha means some block's Phase I started
    // with a window of kBatchWindowMin members and ran the tile kernels:
    // the batched count stays oracle-checked.
    EXPECT_GE(band.skyband.size(), kBatchWindowMin + o.alpha);
  }
  // Counts: exact for members.
  for (size_t i = 0; i < band.skyband.size(); ++i) {
    ASSERT_EQ(band.dominator_counts[i], truth.at(band.skyband[i]))
        << "member " << band.skyband[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkybandSweep,
    ::testing::Combine(::testing::Values(Distribution::kCorrelated,
                                         Distribution::kIndependent,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(1u, 2u, 3u, 8u),
                       ::testing::Values(1, 4)));

TEST(Skyband, DuplicatesDoNotDominateEachOther) {
  Dataset data = test::MakeDataset(
      {{1, 1}, {1, 1}, {2, 2}, {2, 2}, {3, 3}});
  // Dominator counts: the two (1,1) have 0; the two (2,2) have 2 (both
  // copies of (1,1)); (3,3) has 4.
  const SkybandResult k3 = ComputeSkyband(data, 3);
  EXPECT_EQ(test::Sorted(k3.skyband), (std::vector<PointId>{0, 1, 2, 3}));
  const SkybandResult k5 = ComputeSkyband(data, 5);
  EXPECT_EQ(k5.skyband.size(), 5u);
}

TEST(Skyband, GrowsMonotonicallyWithK) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 3000, 5, 23);
  size_t prev = 0;
  for (const uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
    const size_t size = ComputeSkyband(data, k).skyband.size();
    EXPECT_GE(size, prev) << "k=" << k;
    prev = size;
  }
  EXPECT_EQ(ComputeSkyband(data, static_cast<uint32_t>(data.count()))
                .skyband.size(),
            data.count());
}

TEST(Skyband, EmptyInput) {
  Dataset data;
  EXPECT_TRUE(ComputeSkyband(data, 3).skyband.empty());
}

TEST(Skyband, ThreadCountInvariance) {
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 2500, 6, 29);
  Options one;
  one.threads = 1;
  const auto base = ComputeSkyband(data, 4, one);
  for (int t : {2, 8}) {
    Options o;
    o.threads = t;
    const auto got = ComputeSkyband(data, 4, o);
    EXPECT_EQ(test::Sorted(got.skyband), test::Sorted(base.skyband));
  }
}

TEST(Skyband, CountsDominanceTestsWhenAsked) {
  // Phase I and Phase II report their tests, batched and one-vs-one
  // alike: non-zero, identical across serial runs, 0 when not asked.
  const Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 20'000, 8, 41);
  Options counting;
  counting.threads = 1;
  counting.count_dts = true;
  const SkybandResult a = ComputeSkyband(data, 4, counting);
  const SkybandResult b = ComputeSkyband(data, 4, counting);
  ASSERT_GE(a.skyband.size(), kBatchWindowMin);
  EXPECT_GT(a.stats.dominance_tests, 0u);
  EXPECT_EQ(a.stats.dominance_tests, b.stats.dominance_tests);
  Options wide = counting;
  wide.threads = 4;
  wide.executor = &test::FourWayExecutor();
  EXPECT_GT(ComputeSkyband(data, 4, wide).stats.dominance_tests, 0u);
  Options quiet;
  quiet.threads = 1;
  EXPECT_EQ(ComputeSkyband(data, 4, quiet).stats.dominance_tests, 0u);
}

}  // namespace
}  // namespace sky
