// Copyright (c) SkyBench-NG contributors.
// Differential accounting tests for RunStats::dominance_tests: the SIMD
// toggle changes only the kernel flavour, never the control flow, so
// scalar and AVX2 runs of the same algorithm must report bit-identical
// dominance-test counts — at the tile-kernel level (DomCtx::
// DominatedByAny / FilterTile), at the algorithm level (Q-Flow, Hybrid)
// and through the sharded engine (per-shard runs plus the M(S) merge).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/skyline.h"
#include "data/generator.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"
#include "query/engine.h"

namespace sky {
namespace {

std::vector<PointId> Sorted(std::vector<PointId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(DominanceAccountingTest, TileKernelsCountIdenticallyAcrossFlavours) {
  const int d = 6;
  const size_t n = 600;
  const size_t window = 64;
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, n, d, /*seed=*/17);
  TileBlock tiles(d, window);
  tiles.AppendRows(data.Row(0), data.stride(), window);

  const DomCtx scalar(d, data.stride(), /*use_simd=*/false);
  const DomCtx simd(d, data.stride(), /*use_simd=*/true);

  // One-vs-window: identical verdict and identical per-call test count
  // for every candidate, whichever kernel executes the lanes.
  for (size_t i = window; i < n; ++i) {
    uint64_t dts_scalar = 0, dts_simd = 0;
    const bool v_scalar =
        scalar.DominatedByAny(data.Row(i), tiles, window, &dts_scalar);
    const bool v_simd =
        simd.DominatedByAny(data.Row(i), tiles, window, &dts_simd);
    EXPECT_EQ(v_scalar, v_simd) << "candidate " << i;
    EXPECT_EQ(dts_scalar, dts_simd) << "candidate " << i;
  }

  // Many-vs-window: identical flags, flag count and test count.
  const size_t n_cand = n - window;
  std::vector<uint8_t> flags_scalar(n_cand, 0), flags_simd(n_cand, 0);
  uint64_t dts_scalar = 0, dts_simd = 0;
  const size_t dropped_scalar = scalar.FilterTile(
      data.Row(window), n_cand, tiles, flags_scalar.data(), &dts_scalar);
  const size_t dropped_simd = simd.FilterTile(
      data.Row(window), n_cand, tiles, flags_simd.data(), &dts_simd);
  EXPECT_EQ(dropped_scalar, dropped_simd);
  EXPECT_EQ(flags_scalar, flags_simd);
  EXPECT_EQ(dts_scalar, dts_simd);
  EXPECT_GT(dts_scalar, 0u);
}

TEST(DominanceAccountingTest, AlgorithmsCountIdenticallyAcrossSimdToggle) {
  for (const Distribution dist :
       {Distribution::kIndependent, Distribution::kAnticorrelated}) {
    const Dataset data = GenerateSynthetic(dist, 4000, 6, /*seed=*/29);
    for (const Algorithm algo : {Algorithm::kQFlow, Algorithm::kHybrid}) {
      Options opts;
      opts.algorithm = algo;
      opts.threads = 1;
      opts.count_dts = true;

      opts.use_simd = false;
      const Result scalar = ComputeSkyline(data, opts);
      opts.use_simd = true;
      const Result simd = ComputeSkyline(data, opts);

      EXPECT_EQ(Sorted(scalar.skyline), Sorted(simd.skyline))
          << AlgorithmName(algo);
      EXPECT_EQ(scalar.stats.dominance_tests, simd.stats.dominance_tests)
          << AlgorithmName(algo);
      EXPECT_GT(scalar.stats.dominance_tests, 0u);
    }
  }
}

TEST(DominanceAccountingTest, ShardedEngineCountsIdenticallyAcrossSimd) {
  // End-to-end through the serving layer: per-shard skylines plus the
  // union-then-filter merge, all with counting on. Fresh engines per
  // flavour keep the result cache out of the comparison.
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 3000, 4, /*seed=*/41);
  const auto run = [&](bool use_simd) {
    SkylineEngine::Config config;
    config.shards = 4;
    config.shard_policy = ShardPolicy::kMedianPivot;
    SkylineEngine engine(config);
    engine.RegisterDataset("pts", data.Clone());
    QuerySpec spec;
    spec.Constrain(0, 0.0f, 0.6f);
    Options opts;
    opts.threads = 1;
    opts.count_dts = true;
    opts.use_simd = use_simd;
    return engine.Execute("pts", spec, opts);
  };
  const QueryResult scalar = run(false);
  const QueryResult simd = run(true);
  EXPECT_EQ(Sorted(scalar.ids), Sorted(simd.ids));
  EXPECT_EQ(scalar.stats.dominance_tests, simd.stats.dominance_tests);
  EXPECT_GT(scalar.stats.dominance_tests, 0u);
}

}  // namespace
}  // namespace sky
