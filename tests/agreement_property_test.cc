// Copyright (c) SkyBench-NG contributors.
// Cross-algorithm agreement property: for every workload in the sweep,
// every algorithm must return exactly the same skyline id-set as BNL.
// This is the library's strongest end-to-end guarantee and the backbone
// of the "fair comparison" claim inherited from the paper's SkyBench.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/skyline.h"
#include "data/generator.h"
#include "test_util.h"

namespace sky {
namespace {

constexpr Algorithm kAll[] = {
    Algorithm::kBnl,      Algorithm::kSfs,       Algorithm::kSalsa,
    Algorithm::kLess,
    Algorithm::kSSkyline, Algorithm::kPSkyline,  Algorithm::kAPSkyline,
    Algorithm::kPsfs,
    Algorithm::kQFlow,    Algorithm::kHybrid,    Algorithm::kBSkyTree,
    Algorithm::kBSkyTreeS, Algorithm::kOsp,       Algorithm::kPBSkyTree,
};

// gtest names each case after a raw byte dump of the parameter, so the
// layout is spelled out with zeroed padding: implicit padding would hold
// stack garbage and give the same case a different name on every run.
struct Case {
  Case(Distribution dist, size_t n, int d, uint64_t seed)
      : dist(dist), n(n), d(d), seed(seed) {}
  Distribution dist;
  uint8_t pad0[7] = {};
  size_t n;
  int d;
  int32_t pad1 = 0;
  uint64_t seed;
};
static_assert(sizeof(Case) == 32 &&
                  std::has_unique_object_representations_v<Case>,
              "Case must have no implicit padding");

class Agreement : public ::testing::TestWithParam<Case> {};

TEST_P(Agreement, AllAlgorithmsAgreeWithBnl) {
  const Case c = GetParam();
  Dataset data = GenerateSynthetic(c.dist, c.n, c.d, c.seed);
  Options bnl_opts;
  bnl_opts.algorithm = Algorithm::kBnl;
  const auto expect =
      test::Sorted(ComputeSkyline(data, bnl_opts).skyline);
  for (const Algorithm algo : kAll) {
    Options o;
    o.algorithm = algo;
    o.threads = 3;
    Result r = ComputeSkyline(data, o);
    ASSERT_EQ(test::Sorted(r.skyline), expect)
        << AlgorithmName(algo) << " on " << DistributionName(c.dist)
        << " n=" << c.n << " d=" << c.d;
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return std::string(DistributionName(info.param.dist)) + "_n" +
         std::to_string(info.param.n) + "_d" + std::to_string(info.param.d);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Agreement,
    ::testing::Values(
        // distribution x size x dimensionality grid
        Case{Distribution::kCorrelated, 500, 2, 1},
        Case{Distribution::kCorrelated, 2000, 8, 2},
        Case{Distribution::kCorrelated, 5000, 12, 3},
        Case{Distribution::kIndependent, 500, 2, 4},
        Case{Distribution::kIndependent, 2000, 8, 5},
        Case{Distribution::kIndependent, 5000, 12, 6},
        Case{Distribution::kIndependent, 300, 16, 7},
        Case{Distribution::kAnticorrelated, 500, 2, 8},
        Case{Distribution::kAnticorrelated, 2000, 8, 9},
        Case{Distribution::kAnticorrelated, 1500, 12, 10},
        // tiny inputs stress block/batch boundaries
        Case{Distribution::kAnticorrelated, 3, 4, 11},
        Case{Distribution::kIndependent, 65, 6, 12},
        Case{Distribution::kIndependent, 1, 5, 13}),
    CaseName);

TEST(Agreement, NegativeCoordinatesRegression) {
  // Regression for a real bug: the packed sort keys were only
  // order-preserving for non-negative floats, so datasets with negated
  // "larger is better" dimensions silently broke the sort-based
  // algorithms. Negate half the dimensions and re-check everything.
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 2000, 6, 404);
  for (size_t i = 0; i < data.count(); ++i) {
    for (int j = 0; j < data.dims(); j += 2) {
      data.MutableRow(i)[j] = -data.Row(i)[j] * 100.0f;
    }
  }
  const auto expect = test::Sorted(test::ReferenceSkyline(data));
  for (const Algorithm algo : kAll) {
    Options o;
    o.algorithm = algo;
    o.threads = 2;
    ASSERT_EQ(test::Sorted(ComputeSkyline(data, o).skyline), expect)
        << AlgorithmName(algo) << " on negative coordinates";
  }
  // Also exercise every pivot policy on negative data (Volume pivot used
  // to take logs of negative values).
  for (const PivotPolicy p :
       {PivotPolicy::kMedian, PivotPolicy::kBalanced, PivotPolicy::kManhattan,
        PivotPolicy::kVolume, PivotPolicy::kRandom}) {
    Options o;
    o.algorithm = Algorithm::kHybrid;
    o.pivot = p;
    o.threads = 2;
    ASSERT_EQ(test::Sorted(ComputeSkyline(data, o).skyline), expect)
        << "Hybrid pivot policy " << PivotPolicyName(p);
  }
}

TEST(Agreement, VerifySkylineHelperAcceptsTruthRejectsLies) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 800, 5, 99);
  const auto truth = test::ReferenceSkyline(data);
  EXPECT_TRUE(VerifySkyline(data, truth));
  auto lie = truth;
  lie.pop_back();
  EXPECT_FALSE(VerifySkyline(data, lie));
}

}  // namespace
}  // namespace sky
