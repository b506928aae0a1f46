// Copyright (c) SkyBench-NG contributors.
// Correctness of the sequential baselines: BNL, SFS, SaLSa, SSkyline,
// BSkyTree. Each is checked on hand-picked cases and against the
// independent brute-force oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "baselines/bnl.h"
#include "baselines/bskytree.h"
#include "baselines/bskytree_s.h"
#include "baselines/less.h"
#include "baselines/salsa.h"
#include "baselines/sfs.h"
#include "baselines/sskyline.h"
#include "common/random.h"
#include "data/generator.h"
#include "test_util.h"

namespace sky {
namespace {

// A std::function, so entry points over a Dataset and over a RowSource
// (which a Dataset converts to) sit in one table.
using Compute = std::function<Result(const Dataset&, const Options&)>;

struct AlgoCase {
  const char* name;
  Compute fn;
};

const AlgoCase kSequential[] = {
    {"BNL", BnlCompute},           {"SFS", SfsCompute},
    {"LESS", LessCompute},
    {"SaLSa", SalsaCompute},       {"SSkyline", SSkylineCompute},
    {"BSkyTree", BSkyTreeCompute}, {"BSkyTreeS", BSkyTreeSCompute},
};

class SequentialAlgos : public ::testing::TestWithParam<size_t> {
 protected:
  const AlgoCase& algo() const { return kSequential[GetParam()]; }
};

TEST_P(SequentialAlgos, PaperFigureOneExample) {
  Dataset data =
      test::MakeDataset({{2, 2}, {4, 4}, {1, 5}, {5, 1}, {3, 1.5}});
  Result r = algo().fn(data, Options{});
  EXPECT_EQ(test::Sorted(r.skyline), (std::vector<PointId>{0, 2, 3, 4}))
      << algo().name;
}

TEST_P(SequentialAlgos, EmptyInput) {
  Dataset data;
  Result r = algo().fn(data, Options{});
  EXPECT_TRUE(r.skyline.empty()) << algo().name;
}

TEST_P(SequentialAlgos, SinglePoint) {
  Dataset data = test::MakeDataset({{1, 2, 3}});
  Result r = algo().fn(data, Options{});
  EXPECT_EQ(r.skyline, (std::vector<PointId>{0})) << algo().name;
}

TEST_P(SequentialAlgos, TotallyOrderedChain) {
  // p0 < p1 < ... < p9: only p0 survives.
  std::vector<float> flat;
  for (int i = 0; i < 10; ++i) {
    flat.push_back(static_cast<float>(i));
    flat.push_back(static_cast<float>(i));
  }
  Dataset data = Dataset::FromRowMajor(2, flat);
  Result r = algo().fn(data, Options{});
  EXPECT_EQ(r.skyline, (std::vector<PointId>{0})) << algo().name;
}

TEST_P(SequentialAlgos, AllIdenticalPointsAreAllSkyline) {
  std::vector<float> flat(60, 2.5f);
  Dataset data = Dataset::FromRowMajor(3, flat);
  Result r = algo().fn(data, Options{});
  EXPECT_EQ(r.skyline.size(), 20u) << algo().name;
}

TEST_P(SequentialAlgos, OneDimensional) {
  Dataset data = test::MakeDataset({{3}, {1}, {2}, {1}});
  Result r = algo().fn(data, Options{});
  EXPECT_EQ(test::Sorted(r.skyline), (std::vector<PointId>{1, 3}))
      << algo().name;
}

TEST_P(SequentialAlgos, RandomAgainstOracleAllDistributions) {
  for (const auto dist :
       {Distribution::kCorrelated, Distribution::kIndependent,
        Distribution::kAnticorrelated}) {
    for (const int d : {2, 5, 9}) {
      Dataset data = GenerateSynthetic(dist, 1500, d, 101);
      Result r = algo().fn(data, Options{});
      ASSERT_EQ(test::Sorted(r.skyline),
                test::Sorted(test::ReferenceSkyline(data)))
          << algo().name << " " << DistributionName(dist) << " d=" << d;
    }
  }
}

TEST_P(SequentialAlgos, QuantisedDuplicateHeavyData) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 2000, 3, 7);
  for (size_t i = 0; i < data.count(); ++i) {
    for (int j = 0; j < 3; ++j) {
      data.MutableRow(i)[j] = std::floor(data.Row(i)[j] * 3.0f);
    }
  }
  Result r = algo().fn(data, Options{});
  EXPECT_EQ(test::Sorted(r.skyline),
            test::Sorted(test::ReferenceSkyline(data)))
      << algo().name;
}

TEST_P(SequentialAlgos, SignedZerosCompareEqual) {
  // Regression (found by the fuzz differential): -0 == +0, so (0, 0)
  // dominates (1, -0). SaLSa's min-coordinate sort key once ordered -0
  // strictly before +0, placed the dominated point first and kept it.
  Dataset data = test::MakeDataset({{1.0f, -0.0f}, {0.0f, 0.0f}});
  Result r = algo().fn(data, Options{});
  EXPECT_EQ(r.skyline, (std::vector<PointId>{1})) << algo().name;
}

INSTANTIATE_TEST_SUITE_P(All, SequentialAlgos,
                         ::testing::Range<size_t>(0, std::size(kSequential)),
                         [](const auto& info) {
                           return kSequential[info.param].name;
                         });

TEST(Salsa, EarlyTerminationDoesTerminateEarly) {
  // One all-small point dominates a large tail; SaLSa should stop long
  // before scanning everything.
  std::vector<float> flat = {0.01f, 0.01f};
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    flat.push_back(0.5f + 0.5f * rng.NextFloat());
    flat.push_back(0.5f + 0.5f * rng.NextFloat());
  }
  Dataset data = Dataset::FromRowMajor(2, flat);
  Options o;
  o.count_dts = true;
  Result r = SalsaCompute(data, o);
  EXPECT_EQ(r.skyline, (std::vector<PointId>{0}));
  EXPECT_LT(r.stats.dominance_tests, 200u)
      << "SaLSa scanned far more points than early termination allows";
}

TEST(BSkyTree, LargeAnticorrelatedMatchesBnl) {
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 6000, 7, 3);
  Result a = BSkyTreeCompute(data, Options{});
  Result b = BnlCompute(data, Options{});
  EXPECT_EQ(test::Sorted(a.skyline), test::Sorted(b.skyline));
}

TEST(SSkylineBlock, SubrangeOnly) {
  Dataset data = test::MakeDataset({{9, 9}, {1, 1}, {2, 2}, {0, 5}, {9, 0}});
  DomCtx dom(2, data.stride(), true);
  std::vector<PointId> idx = {0, 1, 2, 3, 4};
  // Skyline of rows 1..4: {1,1} dominates {2,2}; {0,5} and {9,0} survive.
  uint64_t dts = 0;
  const size_t k = SSkylineBlock(data, idx, 1, 5, dom, &dts);
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(idx[0], 0u) << "outside range must be untouched";
  std::vector<PointId> got(idx.begin() + 1, idx.begin() + 1 + k);
  EXPECT_EQ(test::Sorted(got), (std::vector<PointId>{1, 3, 4}));
}

}  // namespace
}  // namespace sky
