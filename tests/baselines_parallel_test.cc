// Copyright (c) SkyBench-NG contributors.
// Correctness of the parallel baselines: PSkyline, PSFS, PBSkyTree.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/apskyline.h"
#include "baselines/pbskytree.h"
#include "baselines/psfs.h"
#include "baselines/pskyline.h"
#include "data/generator.h"
#include "test_util.h"

namespace sky {
namespace {

using Compute = Result (*)(const Dataset&, const Options&);

struct AlgoCase {
  const char* name;
  Compute fn;
};

const AlgoCase kParallel[] = {
    {"APSkyline", APSkylineCompute},
    {"PSkyline", PSkylineCompute},
    {"PSFS", PsfsCompute},
    {"PBSkyTree", PBSkyTreeCompute},
};

class ParallelAlgos
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {
 protected:
  const AlgoCase& algo() const { return kParallel[std::get<0>(GetParam())]; }
  Options opts() const {
    Options o;
    o.threads = std::get<1>(GetParam());
    o.executor = &test::FourWayExecutor();
    return o;
  }
};

TEST_P(ParallelAlgos, PaperFigureOneExample) {
  Dataset data =
      test::MakeDataset({{2, 2}, {4, 4}, {1, 5}, {5, 1}, {3, 1.5}});
  Result r = algo().fn(data, opts());
  EXPECT_EQ(test::Sorted(r.skyline), (std::vector<PointId>{0, 2, 3, 4}))
      << algo().name;
}

TEST_P(ParallelAlgos, EmptyAndSingleton) {
  Dataset empty;
  EXPECT_TRUE(algo().fn(empty, opts()).skyline.empty()) << algo().name;
  Dataset one = test::MakeDataset({{1, 2}});
  EXPECT_EQ(algo().fn(one, opts()).skyline, (std::vector<PointId>{0}))
      << algo().name;
}

TEST_P(ParallelAlgos, MoreThreadsThanPoints) {
  Dataset data = test::MakeDataset({{1, 2}, {2, 1}, {3, 3}});
  Result r = algo().fn(data, opts());
  EXPECT_EQ(test::Sorted(r.skyline), (std::vector<PointId>{0, 1}))
      << algo().name;
}

TEST_P(ParallelAlgos, RandomAgainstOracleAllDistributions) {
  for (const auto dist :
       {Distribution::kCorrelated, Distribution::kIndependent,
        Distribution::kAnticorrelated}) {
    for (const int d : {2, 6, 10}) {
      Dataset data = GenerateSynthetic(dist, 2500, d, 211);
      Result r = algo().fn(data, opts());
      ASSERT_EQ(test::Sorted(r.skyline),
                test::Sorted(test::ReferenceSkyline(data)))
          << algo().name << " " << DistributionName(dist) << " d=" << d;
    }
  }
}

TEST_P(ParallelAlgos, DuplicateHeavyData) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 2000, 4, 7);
  for (size_t i = 0; i < data.count(); ++i) {
    for (int j = 0; j < 4; ++j) {
      data.MutableRow(i)[j] = std::floor(data.Row(i)[j] * 4.0f);
    }
  }
  Result r = algo().fn(data, opts());
  EXPECT_EQ(test::Sorted(r.skyline),
            test::Sorted(test::ReferenceSkyline(data)))
      << algo().name;
}

TEST_P(ParallelAlgos, ResultIndependentOfThreadCount) {
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 3000, 6, 8);
  Options one;
  one.threads = 1;
  const auto expect = test::Sorted(algo().fn(data, one).skyline);
  Result r = algo().fn(data, opts());
  EXPECT_EQ(test::Sorted(r.skyline), expect) << algo().name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelAlgos,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kParallel)),
                       ::testing::Values(1, 2, 4, 8)),
    [](const auto& info) {
      return std::string(kParallel[std::get<0>(info.param)].name) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PBSkyTree, BatchBoundaryStress) {
  // Dimensionality high enough that most mask groups fall under the
  // 64-point recursion halt: exercises batch flush paths heavily.
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 4000, 12, 9);
  Options o;
  o.threads = 4;
  o.executor = &test::FourWayExecutor();
  Result r = PBSkyTreeCompute(data, o);
  EXPECT_EQ(test::Sorted(r.skyline),
            test::Sorted(test::ReferenceSkyline(data)));
}

TEST(PSkyline, ManyMoreBlocksWhenOversubscribed) {
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 1000, 5, 10);
  Options o;
  o.threads = 32;  // 32 local skylines over 1000 points
  o.executor = &test::FourWayExecutor();
  Result r = PSkylineCompute(data, o);
  EXPECT_EQ(test::Sorted(r.skyline),
            test::Sorted(test::ReferenceSkyline(data)));
}

}  // namespace
}  // namespace sky
