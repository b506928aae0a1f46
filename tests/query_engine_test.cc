// Copyright (c) SkyBench-NG contributors.
// SkylineEngine unit tests: registry lifecycle, result-cache behavior,
// version invalidation, top-k ranking and error paths.
#include "query/engine.h"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "data/generator.h"
#include "gtest/gtest.h"
#include "query/view.h"
#include "query_test_util.h"
#include "test_util.h"

namespace sky::test {
namespace {

std::vector<OracleEntry> AsEntries(const QueryResult& r) {
  std::vector<OracleEntry> out(r.ids.size());
  for (size_t i = 0; i < r.ids.size(); ++i) {
    out[i] = OracleEntry{r.ids[i], r.dominator_counts[i]};
  }
  return out;
}

std::vector<OracleEntry> SortedEntries(const QueryResult& r) {
  auto out = AsEntries(r);
  std::sort(out.begin(), out.end(),
            [](const OracleEntry& a, const OracleEntry& b) {
              return a.id < b.id;
            });
  return out;
}

TEST(RunQueryTest, MatchesOracleOnHandData) {
  const Dataset data = MakeDataset({
      {0.2f, 0.8f},
      {0.8f, 0.2f},
      {0.5f, 0.5f},
      {0.9f, 0.9f},  // dominated in the all-min question
  });
  const QueryResult r = RunQuery(data, QuerySpec{});
  EXPECT_EQ(SortedEntries(r), ReferenceQuery(data, QuerySpec{}));
  EXPECT_EQ(r.matched_rows, 4u);
  EXPECT_FALSE(r.cache_hit);
}

TEST(RunQueryTest, MaxPreferenceFlipsTheSkyline) {
  const Dataset data = MakeDataset({
      {0.2f, 0.8f},
      {0.8f, 0.2f},
      {0.5f, 0.5f},
      {0.9f, 0.9f},
  });
  QuerySpec spec;
  spec.SetPreference(0, Preference::kMax).SetPreference(1, Preference::kMax);
  const QueryResult r = RunQuery(data, spec);
  // Under maximize-everything, (0.9, 0.9) dominates every other point.
  EXPECT_EQ(SortedEntries(r), (std::vector<OracleEntry>{{3, 0}}));
  EXPECT_EQ(SortedEntries(r), ReferenceQuery(data, spec));
}

TEST(RunQueryTest, BandReportsExactDominatorCounts) {
  const Dataset data = MakeDataset({
      {0.1f, 0.1f},  // skyline
      {0.2f, 0.2f},  // 1 dominator
      {0.3f, 0.3f},  // 2 dominators
      {0.4f, 0.4f},  // 3 dominators — outside band_k=3
  });
  QuerySpec spec;
  spec.band_k = 3;
  const QueryResult r = RunQuery(data, spec);
  EXPECT_EQ(SortedEntries(r),
            (std::vector<OracleEntry>{{0, 0}, {1, 1}, {2, 2}}));
  EXPECT_EQ(SortedEntries(r), ReferenceQuery(data, spec));
}

TEST(RunQueryTest, TopKRanksByCountScoreId) {
  const Dataset data = MakeDataset({
      {0.5f, 0.5f},  // skyline, score 1.0
      {0.1f, 0.8f},  // skyline, score 0.9 — best score
      {0.8f, 0.1f},  // skyline, score 0.9 — tie, larger id
      {0.6f, 0.6f},  // 1 dominator
  });
  QuerySpec spec;
  spec.band_k = 2;
  spec.top_k = 3;
  const QueryResult r = RunQuery(data, spec);
  // Skyline members first (count 0) by score then id, then the band point.
  ASSERT_EQ(r.ids.size(), 3u);
  EXPECT_EQ(r.ids, (std::vector<PointId>{1, 2, 0}));
  EXPECT_EQ(r.dominator_counts, (std::vector<uint32_t>{0, 0, 0}));
  const auto oracle = ReferenceQuery(data, spec);
  EXPECT_EQ(AsEntries(r), oracle);
}

TEST(RunQueryTest, EmptyConstraintBoxYieldsEmptyResult) {
  const Dataset data = MakeDataset({{0.5f, 0.5f}});
  QuerySpec spec;
  spec.Constrain(0, 2.0f, 3.0f);
  const QueryResult r = RunQuery(data, spec);
  EXPECT_TRUE(r.ids.empty());
  EXPECT_EQ(r.matched_rows, 0u);
}

TEST(RunQueryTest, ProgressiveCallbackReportsOriginalIds) {
  // A constraint shifts view row numbers away from original ids; the
  // progressive callback must still deliver caller-space ids, and their
  // union must be exactly the final skyline.
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 400, 4, 31);
  QuerySpec spec;
  spec.Constrain(0, 0.3f, 1.0f);
  Options opts;
  opts.algorithm = Algorithm::kQFlow;
  opts.threads = 2;
  std::mutex mu;
  std::vector<PointId> reported;
  opts.progressive = [&](std::span<const PointId> ids) {
    std::lock_guard<std::mutex> lock(mu);
    reported.insert(reported.end(), ids.begin(), ids.end());
  };
  const QueryResult r = RunQuery(data, spec, opts);
  std::vector<PointId> got = reported;
  std::vector<PointId> want = r.ids;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(RunQueryTest, VerifyQueryAcceptsGoodAndRejectsCorrupted) {
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 400, 4, 11);
  QuerySpec spec;
  spec.SetPreference(1, Preference::kMax);
  spec.band_k = 2;
  QueryResult r = RunQuery(data, spec);
  EXPECT_TRUE(VerifyQuery(data, spec, r));
  ASSERT_FALSE(r.ids.empty());
  r.ids.pop_back();
  r.dominator_counts.pop_back();
  EXPECT_FALSE(VerifyQuery(data, spec, r));
}

TEST(SkylineEngineTest, RegistryLifecycle) {
  SkylineEngine engine;
  EXPECT_EQ(engine.Find("a"), nullptr);
  engine.RegisterDataset("a", MakeDataset({{1.0f, 2.0f}}));
  engine.RegisterDataset("b", MakeDataset({{1.0f}, {2.0f}}));
  ASSERT_NE(engine.Find("a"), nullptr);
  EXPECT_EQ(engine.Find("a")->count(), 1u);
  EXPECT_EQ(engine.DatasetNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(engine.EvictDataset("a"));
  EXPECT_FALSE(engine.EvictDataset("a"));
  EXPECT_EQ(engine.Find("a"), nullptr);
  EXPECT_EQ(engine.DatasetNames(), (std::vector<std::string>{"b"}));
}

TEST(SkylineEngineTest, ExecuteUnknownDatasetThrows) {
  SkylineEngine engine;
  EXPECT_THROW(engine.Execute("nope", QuerySpec{}), std::runtime_error);
}

TEST(SkylineEngineTest, SecondIdenticalQueryIsACacheHit) {
  SkylineEngine engine;
  engine.RegisterDataset(
      "ds", GenerateSynthetic(Distribution::kIndependent, 300, 3, 5));
  const QueryResult first = engine.Execute("ds", QuerySpec{});
  EXPECT_FALSE(first.cache_hit);
  const QueryResult second = engine.Execute("ds", QuerySpec{});
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(SortedEntries(first), SortedEntries(second));
  const auto counters = engine.cache_counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.entries, 1u);
}

TEST(SkylineEngineTest, EquivalentSpellingsHitTheSameEntry) {
  SkylineEngine engine;
  engine.RegisterDataset(
      "ds", GenerateSynthetic(Distribution::kIndependent, 200, 3, 5));
  QuerySpec spelled;
  spelled.preferences.assign(3, Preference::kMin);
  engine.Execute("ds", QuerySpec{});
  const QueryResult r = engine.Execute("ds", spelled);
  EXPECT_TRUE(r.cache_hit);
}

TEST(SkylineEngineTest, ReRegisteringInvalidatesCachedResults) {
  SkylineEngine engine;
  engine.RegisterDataset("ds", MakeDataset({{0.1f, 0.9f}, {0.9f, 0.1f}}));
  const QueryResult before = engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(before.ids.size(), 2u);

  engine.RegisterDataset(
      "ds", MakeDataset({{0.1f, 0.1f}, {0.9f, 0.9f}, {0.5f, 0.5f}}));
  // The old generation's entry is purged, not just unreachable.
  EXPECT_EQ(engine.cache_counters().entries, 0u);
  const QueryResult after = engine.Execute("ds", QuerySpec{});
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.ids, (std::vector<PointId>{0}));
}

TEST(SkylineEngineTest, EvictPurgesTheDatasetsCachedResults) {
  SkylineEngine engine;
  engine.RegisterDataset("keep", MakeDataset({{1.0f}}));
  engine.RegisterDataset("drop", MakeDataset({{2.0f}}));
  QuerySpec band;
  band.band_k = 2;
  engine.Execute("keep", QuerySpec{});
  engine.Execute("drop", QuerySpec{});
  engine.Execute("drop", band);
  EXPECT_EQ(engine.cache_counters().entries, 3u);
  EXPECT_TRUE(engine.EvictDataset("drop"));
  EXPECT_EQ(engine.cache_counters().entries, 1u);
  // The survivor is still served from cache.
  EXPECT_TRUE(engine.Execute("keep", QuerySpec{}).cache_hit);
}

TEST(SkylineEngineTest, ZeroCapacityDisablesCaching) {
  SkylineEngine engine(SkylineEngine::Config{0});
  engine.RegisterDataset("ds", MakeDataset({{1.0f}}));
  engine.Execute("ds", QuerySpec{});
  const QueryResult again = engine.Execute("ds", QuerySpec{});
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(engine.cache_counters().entries, 0u);
}

TEST(SkylineEngineTest, LruEvictsLeastRecentlyUsed) {
  SkylineEngine engine(SkylineEngine::Config{2});
  engine.RegisterDataset(
      "ds", GenerateSynthetic(Distribution::kIndependent, 100, 3, 5));
  QuerySpec band2;
  band2.band_k = 2;
  QuerySpec band3;
  band3.band_k = 3;
  engine.Execute("ds", QuerySpec{});  // A
  engine.Execute("ds", band2);       // B — cache {B, A}
  engine.Execute("ds", QuerySpec{});  // touch A — {A, B}
  engine.Execute("ds", band3);       // C evicts B — {C, A}
  EXPECT_TRUE(engine.Execute("ds", QuerySpec{}).cache_hit);
  EXPECT_FALSE(engine.Execute("ds", band2).cache_hit);  // was evicted
  EXPECT_EQ(engine.cache_counters().evictions, 2u);     // B, then C
}

TEST(SkylineEngineTest, ClearCacheForcesRecompute) {
  SkylineEngine engine;
  engine.RegisterDataset("ds", MakeDataset({{1.0f}}));
  engine.Execute("ds", QuerySpec{});
  engine.ClearCache();
  EXPECT_FALSE(engine.Execute("ds", QuerySpec{}).cache_hit);
}

Dataset ThreeIncomparable() {
  return MakeDataset({{0.1f, 0.9f}, {0.5f, 0.5f}, {0.9f, 0.1f}});
}

TEST(SkylineEngineTest, ByteBudgetEvictsLruFirst) {
  // Three incomparable points: every band query returns all three rows,
  // so every cached result prices identically and the byte budget holds
  // exactly two of them.
  const size_t one =
      QueryResultBytes(RunQuery(ThreeIncomparable(), QuerySpec{}));

  SkylineEngine::Config config;
  config.result_cache_capacity = 128;  // entry cap never binds here
  config.result_cache_bytes = 2 * one;
  SkylineEngine engine(config);
  engine.RegisterDataset("ds", ThreeIncomparable());
  QuerySpec band2;
  band2.band_k = 2;
  QuerySpec band3;
  band3.band_k = 3;
  engine.Execute("ds", QuerySpec{});  // A
  engine.Execute("ds", band2);        // B — {B, A}, at budget
  auto counters = engine.cache_counters();
  EXPECT_EQ(counters.entries, 2u);
  EXPECT_EQ(counters.bytes, 2 * one);
  EXPECT_EQ(counters.byte_evictions, 0u);

  engine.Execute("ds", band3);  // C — evicts A, the LRU entry
  counters = engine.cache_counters();
  EXPECT_EQ(counters.entries, 2u);
  EXPECT_LE(counters.bytes, config.result_cache_bytes);
  EXPECT_EQ(counters.byte_evictions, 1u);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_TRUE(engine.Execute("ds", band3).cache_hit);
  EXPECT_TRUE(engine.Execute("ds", band2).cache_hit);
  EXPECT_FALSE(engine.Execute("ds", QuerySpec{}).cache_hit);  // was evicted
}

TEST(SkylineEngineTest, ResultLargerThanByteBudgetIsNotRetained) {
  const size_t one =
      QueryResultBytes(RunQuery(ThreeIncomparable(), QuerySpec{}));

  SkylineEngine::Config config;
  config.result_cache_bytes = one - 1;
  SkylineEngine engine(config);
  engine.RegisterDataset("ds", ThreeIncomparable());
  engine.Execute("ds", QuerySpec{});
  const auto counters = engine.cache_counters();
  EXPECT_EQ(counters.entries, 0u);
  EXPECT_EQ(counters.bytes, 0u);
  EXPECT_FALSE(engine.Execute("ds", QuerySpec{}).cache_hit);
}

TEST(SkylineEngineTest, InvalidSpecSurfacesAsException) {
  SkylineEngine engine;
  engine.RegisterDataset("ds", MakeDataset({{1.0f, 2.0f}}));
  QuerySpec bad;
  bad.preferences.assign(2, Preference::kIgnore);
  EXPECT_THROW(engine.Execute("ds", bad), std::runtime_error);
}

TEST(SkylineEngineTest, ResultCacheTtlExpiresLazily) {
  SkylineEngine::Config config;
  config.result_cache_ttl = 0.05;  // 50 ms
  SkylineEngine engine(config);
  engine.RegisterDataset("ds", ThreeIncomparable());

  EXPECT_FALSE(engine.Execute("ds", QuerySpec{}).cache_hit);
  EXPECT_TRUE(engine.Execute("ds", QuerySpec{}).cache_hit);  // fresh
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Expired now: Get lazily erases the entry, counts it, and recomputes.
  EXPECT_FALSE(engine.Execute("ds", QuerySpec{}).cache_hit);
  const auto counters = engine.cache_counters();
  EXPECT_EQ(counters.ttl_evictions, 1u);
  EXPECT_GE(counters.evictions, 1u);
  // The recompute re-populated the cache; it serves again until expiry.
  EXPECT_TRUE(engine.Execute("ds", QuerySpec{}).cache_hit);
}

TEST(SkylineEngineTest, ZeroTtlNeverExpires) {
  SkylineEngine engine;  // default config: TTL off
  engine.RegisterDataset("ds", ThreeIncomparable());
  engine.Execute("ds", QuerySpec{});
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(engine.Execute("ds", QuerySpec{}).cache_hit);
  EXPECT_EQ(engine.cache_counters().ttl_evictions, 0u);
}

}  // namespace
}  // namespace sky::test
