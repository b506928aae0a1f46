// Copyright (c) SkyBench-NG contributors.
// Edge cases and mathematical property tests that hold for the skyline
// operator itself: idempotence, invariance under monotone per-dimension
// transformations, and behavior at the supported limits (d=1, d=16,
// degenerate dimensions, extreme and infinite values, heavy
// oversubscription).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/algorithm_registry.h"
#include "core/skyband.h"
#include "core/skyline.h"
#include "data/generator.h"
#include "test_util.h"

namespace sky {
namespace {

const Algorithm kCore[] = {Algorithm::kQFlow, Algorithm::kHybrid,
                           Algorithm::kPSkyline, Algorithm::kBSkyTree,
                           Algorithm::kPBSkyTree};

Options Opt(Algorithm a, int threads = 2) {
  Options o;
  o.algorithm = a;
  o.threads = threads;
  return o;
}

TEST(EdgeCases, MaxDimensionalityMaskWidth) {
  // d=16 uses the full mask width (2^16 partitions possible).
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 600, 16, 1);
  const auto expect = test::Sorted(test::ReferenceSkyline(data));
  for (const Algorithm a : kCore) {
    ASSERT_EQ(test::Sorted(ComputeSkyline(data, Opt(a)).skyline), expect)
        << AlgorithmName(a);
  }
}

TEST(EdgeCases, SingleDimensionDegeneratesToMin) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 1000, 1, 2);
  float mn = data.Row(0)[0];
  for (size_t i = 1; i < data.count(); ++i) mn = std::min(mn, data.Row(i)[0]);
  for (const Algorithm a : kCore) {
    const Result r = ComputeSkyline(data, Opt(a));
    for (const PointId id : r.skyline) {
      ASSERT_EQ(data.Row(id)[0], mn) << AlgorithmName(a);
    }
    ASSERT_FALSE(r.skyline.empty()) << AlgorithmName(a);
  }
}

TEST(EdgeCases, ConstantDimensionIsIgnoredEffectively) {
  // One dimension constant for all points: it can never break a dominance
  // tie, so the skyline equals the skyline of the remaining dimensions.
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 1500, 4, 3);
  for (size_t i = 0; i < data.count(); ++i) data.MutableRow(i)[2] = 5.0f;
  const auto expect = test::Sorted(test::ReferenceSkyline(data));
  for (const Algorithm a : kCore) {
    ASSERT_EQ(test::Sorted(ComputeSkyline(data, Opt(a)).skyline), expect)
        << AlgorithmName(a);
  }
}

TEST(EdgeCases, ExtremeMagnitudes) {
  Dataset data = test::MakeDataset({{1e30f, 1e-30f},
                                    {1e-30f, 1e30f},
                                    {1e30f, 1e30f},
                                    {1e-30f, 1e-30f}});
  for (const Algorithm a : kCore) {
    // Point 3 dominates everything except... it dominates 0, 1, 2.
    ASSERT_EQ(test::Sorted(ComputeSkyline(data, Opt(a)).skyline),
              (std::vector<PointId>{3}))
        << AlgorithmName(a);
  }
}

TEST(EdgeCases, HeavyOversubscription) {
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 500, 5, 4);
  const auto expect = test::Sorted(test::ReferenceSkyline(data));
  for (const Algorithm a : kCore) {
    ASSERT_EQ(test::Sorted(ComputeSkyline(data, Opt(a, 64)).skyline), expect)
        << AlgorithmName(a) << " with 64 threads on 500 points";
  }
}

TEST(EdgeCases, TwoPointsAllRelations) {
  // dominates / dominated / incomparable / equal.
  struct Case {
    std::vector<float> a, b;
    std::vector<PointId> expect;
  };
  const Case cases[] = {
      {{1, 1}, {2, 2}, {0}},
      {{2, 2}, {1, 1}, {1}},
      {{1, 2}, {2, 1}, {0, 1}},
      {{1, 1}, {1, 1}, {0, 1}},
  };
  for (const Case& c : cases) {
    Dataset data = test::MakeDataset({c.a, c.b});
    for (const Algorithm a : kCore) {
      ASSERT_EQ(test::Sorted(ComputeSkyline(data, Opt(a)).skyline), c.expect)
          << AlgorithmName(a);
    }
  }
}

TEST(EdgeCases, InfiniteCoordinatesKeepEveryAlgorithmExact) {
  // Regression: every row with a -inf coordinate has L1 = -inf, so an
  // L1-only sort key tied each dominator with its victims and could put a
  // victim first; the L1-sorted algorithms and the k-skyband then kept
  // dominated rows. Victims are listed before their dominators.
  const float inf = std::numeric_limits<float>::infinity();
  const Dataset data = test::MakeDataset({{-inf, 1.0f, 0.5f},
                                          {-inf, 0.75f, 0.5f},
                                          {-inf, 0.5f, 0.5f},
                                          {0.5f, 0.5f, inf},
                                          {0.5f, 0.25f, inf},
                                          {0.25f, 0.25f, 0.25f}});
  const auto expect = test::Sorted(test::ReferenceSkyline(data));
  ASSERT_EQ(expect, (std::vector<PointId>{2, 5}));
  for (const AlgorithmDescriptor& desc : AlgorithmTable()) {
    for (const int threads : {1, 4}) {
      EXPECT_EQ(test::Sorted(ComputeSkyline(data, Opt(desc.algorithm,
                                                      threads))
                                 .skyline),
                expect)
          << desc.name << " threads=" << threads;
    }
  }
  // Dominator counts: row 0 has two (rows 1 and 2), row 3 has two
  // (rows 4 and 5), row 1 and row 4 have one each.
  for (const int threads : {1, 4}) {
    const SkybandResult band =
        ComputeSkyband(data, 2, Opt(Algorithm::kQFlow, threads));
    EXPECT_EQ(test::Sorted(band.skyband),
              (std::vector<PointId>{1, 2, 4, 5}))
        << "threads=" << threads;
  }
}

class SkylineProperties : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SkylineProperties, Idempotence) {
  // SKY(SKY(P)) == SKY(P).
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 2000, 6, 5);
  const Result first = ComputeSkyline(data, Opt(GetParam()));
  std::vector<float> flat;
  for (const PointId id : first.skyline) {
    for (int j = 0; j < data.dims(); ++j) flat.push_back(data.Row(id)[j]);
  }
  Dataset sky_only = Dataset::FromRowMajor(data.dims(), flat);
  const Result second = ComputeSkyline(sky_only, Opt(GetParam()));
  EXPECT_EQ(second.skyline.size(), first.skyline.size());
}

TEST_P(SkylineProperties, MonotoneTransformInvariance) {
  // Applying a strictly increasing function per dimension preserves all
  // dominance relations, hence the skyline id-set.
  Dataset data = GenerateSynthetic(Distribution::kAnticorrelated, 1500, 4, 6);
  const auto before =
      test::Sorted(ComputeSkyline(data, Opt(GetParam())).skyline);
  Dataset warped(data.dims(), data.count());
  for (size_t i = 0; i < data.count(); ++i) {
    warped.MutableRow(i)[0] = std::exp(data.Row(i)[0]);
    warped.MutableRow(i)[1] = data.Row(i)[1] * 1000.0f - 7.0f;
    warped.MutableRow(i)[2] = std::sqrt(data.Row(i)[2]);
    warped.MutableRow(i)[3] = std::atan(data.Row(i)[3]);
  }
  const auto after =
      test::Sorted(ComputeSkyline(warped, Opt(GetParam())).skyline);
  EXPECT_EQ(before, after);
}

TEST_P(SkylineProperties, AddingDominatedPointsChangesNothing) {
  Dataset data = GenerateSynthetic(Distribution::kIndependent, 1000, 5, 7);
  const auto base =
      test::Sorted(ComputeSkyline(data, Opt(GetParam())).skyline);
  // Append clearly dominated points (everything shifted up by +10).
  std::vector<float> flat;
  for (size_t i = 0; i < data.count(); ++i) {
    for (int j = 0; j < data.dims(); ++j) flat.push_back(data.Row(i)[j]);
  }
  for (size_t i = 0; i < 200; ++i) {
    for (int j = 0; j < data.dims(); ++j) {
      flat.push_back(data.Row(i)[j] + 10.0f);
    }
  }
  Dataset extended = Dataset::FromRowMajor(data.dims(), flat);
  const auto got =
      test::Sorted(ComputeSkyline(extended, Opt(GetParam())).skyline);
  EXPECT_EQ(got, base);
}

TEST_P(SkylineProperties, UnionUpperBound) {
  // SKY(A ∪ B) ⊆ SKY(A) ∪ SKY(B) (as point sets).
  Dataset a = GenerateSynthetic(Distribution::kIndependent, 800, 4, 8);
  Dataset b = GenerateSynthetic(Distribution::kAnticorrelated, 800, 4, 9);
  std::vector<float> flat;
  for (size_t i = 0; i < a.count(); ++i) {
    for (int j = 0; j < 4; ++j) flat.push_back(a.Row(i)[j]);
  }
  for (size_t i = 0; i < b.count(); ++i) {
    for (int j = 0; j < 4; ++j) flat.push_back(b.Row(i)[j]);
  }
  Dataset u = Dataset::FromRowMajor(4, flat);
  const auto sky_u = ComputeSkyline(u, Opt(GetParam())).skyline;
  const auto sky_a = test::Sorted(ComputeSkyline(a, Opt(GetParam())).skyline);
  const auto sky_b = test::Sorted(ComputeSkyline(b, Opt(GetParam())).skyline);
  for (const PointId id : sky_u) {
    if (id < a.count()) {
      EXPECT_TRUE(std::binary_search(sky_a.begin(), sky_a.end(), id));
    } else {
      EXPECT_TRUE(std::binary_search(sky_b.begin(), sky_b.end(),
                                     static_cast<PointId>(id - a.count())));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Core, SkylineProperties,
                         ::testing::Values(Algorithm::kQFlow,
                                           Algorithm::kHybrid,
                                           Algorithm::kPSkyline,
                                           Algorithm::kBSkyTree,
                                           Algorithm::kPBSkyTree),
                         [](const auto& info) {
                           std::string name = AlgorithmName(info.param);
                           std::erase_if(
                               name,
                               [](char c) { return !std::isalnum(c); });
                           return name;
                         });

}  // namespace
}  // namespace sky
