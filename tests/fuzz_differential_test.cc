// Copyright (c) SkyBench-NG contributors.
// Randomized differential testing: many small random configurations
// (size, dimensionality, distribution, value quantisation, sign flips,
// +-inf and -0 coordinates, thread count, block size) — every algorithm
// must match the independent brute-force oracle on all of them. Catches
// interaction bugs the structured parameter sweeps miss.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "core/skyline.h"
#include "data/generator.h"
#include "test_util.h"

namespace sky {
namespace {

constexpr Algorithm kAll[] = {
    Algorithm::kBnl,       Algorithm::kSfs,      Algorithm::kLess,
    Algorithm::kSalsa,     Algorithm::kSSkyline, Algorithm::kPSkyline,
    Algorithm::kAPSkyline,
    Algorithm::kPsfs,      Algorithm::kQFlow,    Algorithm::kHybrid,
    Algorithm::kBSkyTree,  Algorithm::kBSkyTreeS, Algorithm::kOsp,
    Algorithm::kPBSkyTree, Algorithm::kZonemap,
};

Dataset RandomConfigDataset(Rng& rng, std::string* description) {
  const size_t n = 1 + rng.NextBounded(500);
  const int d = 1 + static_cast<int>(rng.NextBounded(16));
  const auto dist = static_cast<Distribution>(rng.NextBounded(3));
  Dataset data = GenerateSynthetic(dist, n, d, rng.Next());
  // Random post-processing: quantise (duplicates), scale, negate dims.
  const bool quantise = rng.NextBounded(2) == 0;
  const int levels = 2 + static_cast<int>(rng.NextBounded(14));
  for (int j = 0; j < d; ++j) {
    const float scale = rng.NextBounded(2) ? 1.0f : (0.01f + 1000.0f *
                                                     rng.NextFloat());
    const float sign = rng.NextBounded(4) == 0 ? -1.0f : 1.0f;
    for (size_t i = 0; i < n; ++i) {
      float v = data.Row(i)[j];
      if (quantise) v = std::floor(v * levels) / levels;
      data.MutableRow(i)[j] = sign * scale * v;
    }
  }
  *description = std::string(DistributionName(dist)) + " n=" +
                 std::to_string(n) + " d=" + std::to_string(d) +
                 (quantise ? " quantised" : "");
  return data;
}

/// Overwrite about 1 coordinate in 50 of `data` with -inf, +inf or -0,
/// drawing from `rng`. An infinite coordinate makes a row's L1 norm
/// infinite, which the L1-sorted algorithms must still order correctly.
void SprinkleSpecials(Rng& rng, Dataset& data) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {-inf, inf, -0.0f};
  for (size_t i = 0; i < data.count(); ++i) {
    for (int j = 0; j < data.dims(); ++j) {
      if (rng.NextBounded(50) == 0) {
        data.MutableRow(i)[j] = specials[rng.NextBounded(3)];
      }
    }
  }
}

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferential, AllAlgorithmsMatchOracle) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
  std::string description;
  Dataset data = RandomConfigDataset(rng, &description);
  if (GetParam() % 3 == 2) {
    // Its own stream, so the draws below match the finite seeds'.
    Rng specials(GetParam() + 0x5eed);
    SprinkleSpecials(specials, data);
    description += " +-inf/-0";
  }
  const auto expect = test::Sorted(test::ReferenceSkyline(data));
  for (const Algorithm algo : kAll) {
    Options o;
    o.algorithm = algo;
    o.threads = 1 + static_cast<int>(rng.NextBounded(6));
    o.alpha = rng.NextBounded(2) ? 0 : 1 + rng.NextBounded(700);
    o.pivot = static_cast<PivotPolicy>(rng.NextBounded(5));
    o.prefilter_beta = static_cast<int>(rng.NextBounded(17));
    o.use_simd = rng.NextBounded(2) == 0;
    o.seed = rng.Next();
    ASSERT_EQ(test::Sorted(ComputeSkyline(data, o).skyline), expect)
        << AlgorithmName(algo) << " on {" << description
        << "} threads=" << o.threads << " alpha=" << o.alpha
        << " pivot=" << PivotPolicyName(o.pivot)
        << " beta=" << o.prefilter_beta << " simd=" << o.use_simd;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(0, 24));

}  // namespace
}  // namespace sky
