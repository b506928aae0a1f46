// Copyright (c) SkyBench-NG contributors.
// Differential suite for the plan/execute/merge pipeline: sharded
// execution (every K x policy x spec combination) must be row-for-row
// identical to the unsharded engine and to the independent brute-force
// oracle — including exact k-skyband dominator counts and top-k order —
// and the planner must provably prune shards whose bounding boxes miss
// the constraint box.
#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/generator.h"
#include "data/realistic.h"
#include "gtest/gtest.h"
#include "query/engine.h"
#include "query/planner.h"
#include "query/shard_map.h"
#include "query_test_util.h"
#include "test_util.h"

namespace sky::test {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 7};
constexpr ShardPolicy kPolicies[] = {ShardPolicy::kRoundRobin,
                                     ShardPolicy::kMedianPivot};

std::vector<OracleEntry> AsEntries(const QueryResult& r) {
  std::vector<OracleEntry> out(r.ids.size());
  for (size_t i = 0; i < r.ids.size(); ++i) {
    out[i] = OracleEntry{r.ids[i], r.dominator_counts[i]};
  }
  return out;
}

std::vector<OracleEntry> SortedById(std::vector<OracleEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const OracleEntry& a, const OracleEntry& b) {
              return a.id < b.id;
            });
  return entries;
}

std::vector<OracleEntry> SortedEntries(const QueryResult& r) {
  return SortedById(AsEntries(r));
}

/// Constrained and unconstrained, skyline and k-skyband, projections,
/// flips and ranked caps — every merge strategy the planner can pick.
std::vector<QuerySpec> ShardSpecs(int d) {
  std::vector<QuerySpec> specs;
  specs.push_back(QuerySpec{});  // unconstrained skyline, identity path

  QuerySpec boxed;
  boxed.Constrain(0, 0.2f, 0.8f);
  specs.push_back(boxed);

  QuerySpec last_dim;  // prunable under the median policy's mask order
  last_dim.Constrain(d - 1, 0.0f, 0.4f);
  specs.push_back(last_dim);

  QuerySpec mixed;
  mixed.SetPreference(1, Preference::kMax).Project({0, 1, 2}, d);
  specs.push_back(mixed);

  QuerySpec band;
  band.band_k = 3;
  specs.push_back(band);

  QuerySpec capped;
  capped.SetPreference(0, Preference::kMax);
  capped.band_k = 2;
  capped.top_k = 10;
  specs.push_back(capped);

  QuerySpec everything;
  everything.Constrain(1, 0.1f, 0.9f);
  everything.band_k = 3;
  everything.top_k = 7;
  specs.push_back(everything);

  return specs;
}

void ExpectShardedMatchesOracle(const Dataset& data, uint64_t seed) {
  for (const QuerySpec& spec : ShardSpecs(data.dims())) {
    const std::vector<OracleEntry> oracle = ReferenceQuery(data, spec);
    const QueryResult unsharded = RunQuery(data, spec);
    ASSERT_EQ(SortedEntries(unsharded), SortedById(oracle))
        << "unsharded engine disagrees with the oracle; spec key "
        << spec.Canonicalize(data.dims()).CanonicalKey();
    for (const size_t k : kShardCounts) {
      for (const ShardPolicy policy : kPolicies) {
        const ShardMap map = ShardMap::Build(data, k, policy, seed);
        const QueryResult sharded = RunShardedQuery(map, spec);
        const std::string label =
            "K=" + std::to_string(k) + " policy=" + ShardPolicyName(policy) +
            " spec=" + spec.Canonicalize(data.dims()).CanonicalKey();
        EXPECT_EQ(sharded.matched_rows, unsharded.matched_rows) << label;
        if (spec.top_k > 0) {
          // Ranked results are fully deterministic: compare in order.
          EXPECT_EQ(AsEntries(sharded), oracle) << label;
          EXPECT_EQ(AsEntries(sharded), AsEntries(unsharded)) << label;
        } else {
          EXPECT_EQ(SortedEntries(sharded), oracle) << label;
          EXPECT_EQ(SortedEntries(sharded), SortedEntries(unsharded))
              << label;
        }
      }
    }
  }
}

TEST(QueryShardPropertyTest, IndependentDataMatchesOracle) {
  ExpectShardedMatchesOracle(
      GenerateSynthetic(Distribution::kIndependent, 500, 4, 17), 17);
}

TEST(QueryShardPropertyTest, AnticorrelatedDataMatchesOracle) {
  ExpectShardedMatchesOracle(
      GenerateSynthetic(Distribution::kAnticorrelated, 400, 5, 29), 29);
}

TEST(QueryShardPropertyTest, HouseLikeHeavyTieDataMatchesOracle) {
  // Realistic data with duplicated coordinates: coincident points across
  // different shards must all survive the M(S) merge, exactly like the
  // unsharded run reports them.
  ExpectShardedMatchesOracle(GenerateHouseLike(300, 7), 7);
}

TEST(QueryShardPropertyTest, ShardMapPartitionsRowsWithTightBoxes) {
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 257, 4, 5);
  for (const size_t k : kShardCounts) {
    for (const ShardPolicy policy : kPolicies) {
      const ShardMap map = ShardMap::Build(data, k, policy, 5);
      ASSERT_EQ(map.shard_count(), k);
      EXPECT_EQ(map.total_count(), data.count());
      std::vector<bool> seen(data.count(), false);
      for (size_t s = 0; s < map.shard_count(); ++s) {
        const Shard& shard = map.shard(s);
        ASSERT_EQ(shard.rows().count(), shard.row_ids.size());
        // Shard sizes differ by at most one.
        EXPECT_LE(shard.rows().count(), data.count() / k + 1);
        for (size_t w = 0; w < shard.row_ids.size(); ++w) {
          const PointId orig = shard.row_ids[w];
          ASSERT_LT(orig, data.count());
          EXPECT_FALSE(seen[orig]) << "row in two shards";
          seen[orig] = true;
          // Shard rows are bit-exact copies inside the shard box.
          for (int j = 0; j < data.dims(); ++j) {
            EXPECT_EQ(shard.rows().Row(w)[j], data.Row(orig)[j]);
            EXPECT_GE(shard.rows().Row(w)[j],
                      shard.box_lo[static_cast<size_t>(j)]);
            EXPECT_LE(shard.rows().Row(w)[j],
                      shard.box_hi[static_cast<size_t>(j)]);
          }
        }
      }
      EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                              [](bool b) { return b; }));
    }
  }
}

/// Two well-separated clusters: the median-pivot policy must put them in
/// disjoint-box shards, and the planner must prune deterministically.
Dataset TwoClusters() {
  std::vector<float> flat;
  for (int i = 0; i < 60; ++i) {
    const float v = 0.05f + 0.002f * static_cast<float>(i % 30);
    const float base = i < 30 ? 0.0f : 0.8f;  // cluster A low, B high
    flat.push_back(base + v);
    flat.push_back(base + 0.15f - v);
    flat.push_back(base + v * 0.5f);
  }
  return Dataset::FromRowMajor(3, flat);
}

TEST(QueryShardPropertyTest, PlannerPrunesNonIntersectingShards) {
  const Dataset data = TwoClusters();
  const ShardMap map =
      ShardMap::Build(data, 2, ShardPolicy::kMedianPivot, 11);
  ASSERT_EQ(map.shard_count(), 2u);

  QuerySpec low;
  low.Constrain(0, 0.0f, 0.3f);  // covers cluster A only
  const ExecutionPlan plan =
      PlanQuery(map, low.Canonicalize(data.dims()));
  EXPECT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.pruned, 1u);
  EXPECT_EQ(plan.merge, MergeStrategy::kNone);

  // The unconstrained plan executes everything and merges.
  const ExecutionPlan full =
      PlanQuery(map, QuerySpec{}.Canonicalize(data.dims()));
  EXPECT_EQ(full.shards.size(), 2u);
  EXPECT_EQ(full.pruned, 0u);
  EXPECT_EQ(full.merge, MergeStrategy::kSkylineUnion);

  QuerySpec banded = low;
  banded.band_k = 2;
  EXPECT_EQ(PlanQuery(map, banded.Canonicalize(data.dims())).merge,
            MergeStrategy::kNone);
  QuerySpec full_band;
  full_band.band_k = 2;
  EXPECT_EQ(PlanQuery(map, full_band.Canonicalize(data.dims())).merge,
            MergeStrategy::kSkybandUnion);

  // A box in the gap between the clusters prunes everything.
  QuerySpec gap;
  gap.Constrain(0, 0.4f, 0.7f);
  const ExecutionPlan none = PlanQuery(map, gap.Canonicalize(data.dims()));
  EXPECT_TRUE(none.shards.empty());
  EXPECT_EQ(none.pruned, 2u);
  const QueryResult empty = RunShardedQuery(map, gap);
  EXPECT_TRUE(empty.ids.empty());
  EXPECT_EQ(empty.matched_rows, 0u);
  EXPECT_EQ(empty.shards_executed, 0u);
  EXPECT_EQ(empty.shards_pruned, 2u);
  EXPECT_EQ(AsEntries(empty), ReferenceQuery(data, gap));
}

TEST(QueryShardPropertyTest, EnginePrunesAndStaysOracleIdentical) {
  SkylineEngine::Config config;
  config.shards = 2;
  config.shard_policy = ShardPolicy::kMedianPivot;
  SkylineEngine engine(config);
  const Dataset data = TwoClusters();
  engine.RegisterDataset("clusters", data.Clone());
  ASSERT_NE(engine.FindShards("clusters"), nullptr);
  EXPECT_EQ(engine.FindShards("clusters")->shard_count(), 2u);

  QuerySpec low;
  low.Constrain(0, 0.0f, 0.3f);
  const QueryResult r = engine.Execute("clusters", low);
  EXPECT_EQ(r.shards_executed, 1u);
  EXPECT_EQ(r.shards_pruned, 1u);
  EXPECT_EQ(SortedEntries(r), ReferenceQuery(data, low));

  // Round-robin shards interleave the clusters: nothing can be pruned,
  // the result is identical anyway.
  engine.RegisterDataset("clusters", data.Clone(), 2,
                         ShardPolicy::kRoundRobin);
  const QueryResult rr = engine.Execute("clusters", low);
  EXPECT_EQ(rr.shards_executed, 2u);
  EXPECT_EQ(rr.shards_pruned, 0u);
  EXPECT_EQ(SortedEntries(rr), ReferenceQuery(data, low));

  // Explicit shards=1 falls back to the unsharded fast path.
  engine.RegisterDataset("clusters", data.Clone(), 1,
                         ShardPolicy::kMedianPivot);
  EXPECT_EQ(engine.FindShards("clusters"), nullptr);
  const QueryResult one = engine.Execute("clusters", low);
  EXPECT_EQ(one.shards_executed, 1u);
  EXPECT_EQ(one.shards_pruned, 0u);
  EXPECT_EQ(SortedEntries(one), ReferenceQuery(data, low));
}

TEST(QueryShardPropertyTest, LoneShardViewBuildsIdenticallyAtEveryWidth) {
  // Two clusters, each several view chunks long, and a box inside the low
  // one: the plan keeps a single shard (kNone), whose view builds on the
  // caller's full budget. Four threads must answer exactly as one.
  std::vector<float> flat;
  Rng rng(17);
  for (int i = 0; i < 24'000; ++i) {
    const float base = i < 12'000 ? 0.0f : 0.8f;
    for (int j = 0; j < 3; ++j) {
      flat.push_back(base + 0.15f * static_cast<float>(rng.NextDouble()));
    }
  }
  const Dataset data = Dataset::FromRowMajor(3, flat);
  QuerySpec spec;
  spec.SetPreference(1, Preference::kMax);
  spec.Constrain(0, 0.0f, 0.04f);
  spec.band_k = 2;

  std::vector<QueryResult> results;
  for (const int threads : {1, 4}) {
    SkylineEngine::Config config;
    config.shards = 2;
    config.shard_policy = ShardPolicy::kMedianPivot;
    config.executor_threads = 4;
    SkylineEngine engine(config);
    engine.RegisterDataset("clusters", data.Clone());
    Options opts;
    opts.threads = threads;
    results.push_back(engine.Execute("clusters", spec, opts));
    EXPECT_EQ(results.back().shards_executed, 1u) << "threads=" << threads;
    EXPECT_EQ(results.back().shards_pruned, 1u) << "threads=" << threads;
  }
  EXPECT_EQ(results[1].matched_rows, results[0].matched_rows);
  EXPECT_EQ(SortedEntries(results[1]), SortedEntries(results[0]));
  EXPECT_EQ(SortedEntries(results[0]), ReferenceQuery(data, spec));
}

TEST(QueryShardPropertyTest, PerShardViewsReusedAcrossDepthSweep) {
  SkylineEngine::Config config;
  config.shards = 2;
  SkylineEngine engine(config);
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 400, 4, 13);
  engine.RegisterDataset("ds", data.Clone());

  QuerySpec base;
  base.SetPreference(0, Preference::kMax);  // non-identity, no pruning
  engine.Execute("ds", base);
  auto views = engine.view_cache_counters();
  EXPECT_EQ(views.misses, 2u);  // one materialization per executed shard
  EXPECT_EQ(views.entries, 2u);

  QuerySpec deeper = base;
  deeper.band_k = 2;
  const QueryResult r = engine.Execute("ds", deeper);
  views = engine.view_cache_counters();
  EXPECT_EQ(views.hits, 2u);  // same ViewKey: both shard views reused
  EXPECT_EQ(views.misses, 2u);
  EXPECT_EQ(SortedEntries(r), ReferenceQuery(data, deeper));
}

TEST(QueryShardPropertyTest, ProgressiveStreamsConfirmedIdsFromMerge) {
  // Multi-shard plans report progressively from the merge stage: the
  // union of streamed batches must be exactly the final answer, in
  // caller row space.
  SkylineEngine::Config config;
  config.shards = 3;
  SkylineEngine engine(config);
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 400, 4, 37);
  engine.RegisterDataset("ds", data.Clone());

  QuerySpec spec;
  spec.SetPreference(1, Preference::kMax);  // non-identity, no pruning
  Options opts;
  opts.algorithm = Algorithm::kQFlow;
  std::mutex mu;
  std::vector<PointId> reported;
  opts.progressive = [&](std::span<const PointId> ids) {
    std::lock_guard<std::mutex> lock(mu);
    reported.insert(reported.end(), ids.begin(), ids.end());
  };
  const QueryResult r = engine.Execute("ds", spec, opts);
  EXPECT_EQ(r.shards_executed, 3u);
  std::vector<PointId> got = reported;
  std::vector<PointId> want = r.ids;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(QueryShardPropertyTest, NanRowsNeverSatisfyConstraintsAnyShardCount) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Dataset data = MakeDataset({
      {0.1f, 0.2f},
      {nan, 0.1f},  // NaN fails every closed interval, and stays out of
      {0.3f, nan},  // the shard bounding boxes
      {0.2f, 0.3f},
      {0.4f, 0.4f},
  });
  QuerySpec boxed;
  boxed.Constrain(0, 0.0f, 1.0f).Constrain(1, 0.0f, 1.0f);
  const std::vector<OracleEntry> oracle = ReferenceQuery(data, boxed);
  for (const size_t k : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const ShardPolicy policy : kPolicies) {
      const ShardMap map = ShardMap::Build(data, k, policy, 3);
      EXPECT_EQ(SortedEntries(RunShardedQuery(map, boxed)), oracle)
          << "K=" << k << " policy=" << ShardPolicyName(policy);
    }
  }
}

}  // namespace
}  // namespace sky::test
