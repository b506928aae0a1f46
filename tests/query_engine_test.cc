// Copyright (c) SkyBench-NG contributors.
// SkylineEngine unit tests: registry lifecycle, result-cache behavior,
// version invalidation, top-k ranking and error paths.
#include "query/engine.h"

#include <chrono>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/cancel.h"
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

/// A result-cache series, read through the engine's registry.
double CacheMetric(const SkylineEngine& engine, const std::string& series) {
  return engine.Metrics().Snapshot().Value("sky_result_cache_" + series);
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
  EXPECT_EQ(CacheMetric(engine, "hits_total"), 1.0);
  EXPECT_EQ(CacheMetric(engine, "misses_total"), 1.0);
  EXPECT_EQ(CacheMetric(engine, "entries"), 1.0);
  // The hit saved the compute the entry recorded.
  EXPECT_GT(first.stats.total_seconds, 0.0);
  EXPECT_EQ(CacheMetric(engine, "saved_seconds_total"),
            first.stats.total_seconds);
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
  EXPECT_EQ(CacheMetric(engine, "entries"), 0.0);
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
  EXPECT_EQ(CacheMetric(engine, "entries"), 3.0);
  EXPECT_TRUE(engine.EvictDataset("drop"));
  EXPECT_EQ(CacheMetric(engine, "entries"), 1.0);
  // The survivor is still served from cache.
  EXPECT_TRUE(engine.Execute("keep", QuerySpec{}).cache_hit);
}

TEST(SkylineEngineTest, ZeroCapacityDisablesCaching) {
  SkylineEngine engine(SkylineEngine::Config{0});
  engine.RegisterDataset("ds", MakeDataset({{1.0f}}));
  engine.Execute("ds", QuerySpec{});
  const QueryResult again = engine.Execute("ds", QuerySpec{});
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(CacheMetric(engine, "entries"), 0.0);
}

// Which entry the cache evicts depends on measured compute times, so the
// engine tests check only what holds under any victim order; the order
// itself is pinned with explicit costs in result_cache_test.cc.
TEST(SkylineEngineTest, EntryCapBoundsResidentResults) {
  SkylineEngine engine(SkylineEngine::Config{2});
  engine.RegisterDataset(
      "ds", GenerateSynthetic(Distribution::kIndependent, 100, 3, 5));
  QuerySpec band2;
  band2.band_k = 2;
  QuerySpec band3;
  band3.band_k = 3;
  engine.Execute("ds", QuerySpec{});  // A
  engine.Execute("ds", band2);       // B
  EXPECT_TRUE(engine.Execute("ds", QuerySpec{}).cache_hit);
  engine.Execute("ds", band3);  // C — one of A, B, C is evicted
  EXPECT_EQ(CacheMetric(engine, "entries"), 2.0);
  EXPECT_EQ(CacheMetric(engine, "evictions_total"), 1.0);
  for (const QuerySpec& q : {QuerySpec{}, band2, band3}) {
    engine.Execute("ds", q);
    EXPECT_EQ(CacheMetric(engine, "entries"), 2.0);
  }
  // Every miss is inserted, so every miss beyond the resident two has
  // cost exactly one eviction.
  EXPECT_EQ(CacheMetric(engine, "evictions_total"),
            CacheMetric(engine, "misses_total") - 2.0);
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

TEST(SkylineEngineTest, ByteBudgetBoundsResidentBytes) {
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
  engine.Execute("ds", band2);        // B — at budget
  EXPECT_EQ(CacheMetric(engine, "entries"), 2.0);
  EXPECT_EQ(CacheMetric(engine, "bytes"), static_cast<double>(2 * one));
  EXPECT_EQ(CacheMetric(engine, "byte_evictions_total"), 0.0);

  engine.Execute("ds", band3);  // C — one of A, B, C is evicted
  EXPECT_EQ(CacheMetric(engine, "entries"), 2.0);
  EXPECT_EQ(CacheMetric(engine, "bytes"), static_cast<double>(2 * one));
  EXPECT_EQ(CacheMetric(engine, "byte_evictions_total"), 1.0);
  EXPECT_EQ(CacheMetric(engine, "evictions_total"), 1.0);
  for (const QuerySpec& q : {QuerySpec{}, band2, band3}) {
    engine.Execute("ds", q);
    EXPECT_LE(CacheMetric(engine, "bytes"),
              static_cast<double>(config.result_cache_bytes));
  }
  EXPECT_EQ(CacheMetric(engine, "byte_evictions_total"),
            CacheMetric(engine, "misses_total") - 2.0);
}

TEST(SkylineEngineTest, ResultLargerThanByteBudgetIsNotRetained) {
  const size_t one =
      QueryResultBytes(RunQuery(ThreeIncomparable(), QuerySpec{}));

  SkylineEngine::Config config;
  config.result_cache_bytes = one - 1;
  SkylineEngine engine(config);
  engine.RegisterDataset("ds", ThreeIncomparable());
  engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(CacheMetric(engine, "entries"), 0.0);
  EXPECT_EQ(CacheMetric(engine, "bytes"), 0.0);
  EXPECT_EQ(CacheMetric(engine, "byte_evictions_total"), 1.0);
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
  EXPECT_EQ(CacheMetric(engine, "ttl_evictions_total"), 1.0);
  EXPECT_GE(CacheMetric(engine, "evictions_total"), 1.0);
  // The recompute re-populated the cache; it serves again until expiry.
  EXPECT_TRUE(engine.Execute("ds", QuerySpec{}).cache_hit);
}

TEST(SkylineEngineTest, ZeroTtlNeverExpires) {
  SkylineEngine engine;  // default config: TTL off
  engine.RegisterDataset("ds", ThreeIncomparable());
  engine.Execute("ds", QuerySpec{});
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(engine.Execute("ds", QuerySpec{}).cache_hit);
  EXPECT_EQ(CacheMetric(engine, "ttl_evictions_total"), 0.0);
}

/// Registry snapshot after one fixed serving sequence — a miss on a
/// 4-shard map, its cache hit, a shed probe, a deadline-truncated
/// progressive query, an insert and a delete — plus the plan the miss
/// ran, so the planner tallies can be checked against it.
struct PinnedRun {
  obs::MetricsSnapshot snap;
  ExecutionPlan plan;
};

PinnedRun RunPinnedSequence(bool metrics) {
  SkylineEngine::Config config;
  config.metrics = metrics;
  config.max_inflight = 1;
  config.executor_threads = 2;
  SkylineEngine engine(config);
  engine.RegisterDataset(
      "ds", GenerateSynthetic(Distribution::kIndependent, 2'000, 4, 7),
      /*shards=*/4, ShardPolicy::kMedianPivot);
  engine.RegisterDataset(
      "flat", GenerateSynthetic(Distribution::kAnticorrelated, 20'000, 6, 19));

  QuerySpec boxed;
  boxed.Constrain(3, 0.0f, 0.4f);
  PinnedRun run;
  run.plan = PlanQuery(*engine.FindShards("ds"), boxed.Canonicalize(4));
  Options hybrid;
  hybrid.algorithm = Algorithm::kHybrid;
  hybrid.threads = 2;
  EXPECT_FALSE(engine.Execute("ds", boxed, hybrid).cache_hit);
  EXPECT_TRUE(engine.Execute("ds", boxed, hybrid).cache_hit);

  // The progressive query holds the only admission slot while its
  // callback runs, so the probe issued from there is shed; the callback
  // then trips the query's own budget, truncating it after one batch.
  CancelToken token;
  bool probed = false;
  Options progressive;
  progressive.algorithm = Algorithm::kQFlow;
  progressive.alpha = 512;
  progressive.threads = 1;
  progressive.cancel = &token;
  progressive.progressive = [&](std::span<const PointId>) {
    if (!probed) {
      probed = true;
      QuerySpec probe;
      probe.Constrain(0, 0.0f, 0.7f);
      EXPECT_EQ(engine.Execute("ds", probe).status, Status::kOverloaded);
    }
    token.Cancel(Status::kDeadlineExceeded);
  };
  const QueryResult cut = engine.Execute("flat", QuerySpec{}, progressive);
  EXPECT_TRUE(probed);
  EXPECT_EQ(cut.status, Status::kDeadlineExceeded);
  EXPECT_TRUE(cut.truncated);

  // Inserted rows fall inside the miss's box, so its entry is erased.
  Dataset rows = GenerateSynthetic(Distribution::kIndependent, 16, 4, 8);
  for (size_t i = 0; i < rows.count(); ++i) rows.MutableRow(i)[3] *= 0.4f;
  engine.InsertPoints("ds", rows);
  const std::vector<PointId> drop = {0, 1, 2};
  engine.DeletePoints("ds", drop);
  run.snap = engine.Metrics().Snapshot();
  return run;
}

uint64_t HistogramCount(const obs::MetricsSnapshot& snap,
                        const std::string& name) {
  const obs::MetricValue* m = snap.Find(name);
  return m == nullptr ? 0 : m->histogram.count;
}

/// The series every engine reports whatever Config::metrics says: the
/// result cache's and the executor's own counters, and the dataset gauge.
bool AlwaysReported(const std::string& name) {
  return name.rfind("sky_result_cache_", 0) == 0 ||
         name.rfind("sky_executor_", 0) == 0 || name == "sky_datasets";
}

void ExpectAlwaysReportedSeries(const obs::MetricsSnapshot& snap) {
  EXPECT_EQ(snap.Value("sky_result_cache_hits_total"), 1.0);
  EXPECT_EQ(snap.Value("sky_result_cache_misses_total"), 3.0);
  EXPECT_EQ(snap.Value("sky_result_cache_entries"), 0.0);
  EXPECT_EQ(snap.Value("sky_datasets"), 2.0);
  EXPECT_EQ(snap.Value("sky_executor_workers"), 2.0);
  EXPECT_GT(snap.Value("sky_executor_tasks_total") +
                snap.Value("sky_executor_inline_runs_total"),
            0.0);
}

TEST(EngineMetricsTest, ServingSequenceFeedsExactSeries) {
  const PinnedRun run = RunPinnedSequence(/*metrics=*/true);
  const obs::MetricsSnapshot& snap = run.snap;
  const size_t executed = run.plan.shards.size();
  ASSERT_GT(executed, 1u);  // the miss merges several shards...
  ASSERT_GT(run.plan.pruned, 0u);  // ...after pruning some

  // Miss, hit, shed probe, truncated query.
  EXPECT_EQ(snap.Value("sky_engine_queries_total"), 4.0);
  EXPECT_EQ(HistogramCount(snap, "sky_query_latency_seconds"), 4u);
  EXPECT_EQ(HistogramCount(snap, "sky_query_compute_seconds"), 1u);
  EXPECT_EQ(snap.Value("sky_query_shed_total"), 1.0);
  EXPECT_EQ(snap.Value("sky_query_degraded_total"), 1.0);
  EXPECT_EQ(snap.Value("sky_query_deadline_exceeded_total"), 1.0);

  // Only the fresh compute tallies algorithms: one per executed shard.
  double algorithm_total = 0.0;
  for (const obs::MetricValue& m : snap.metrics) {
    if (m.name == "sky_engine_algorithm_total") algorithm_total += m.value;
  }
  EXPECT_EQ(algorithm_total, static_cast<double>(executed));
  EXPECT_EQ(snap.Value("sky_engine_algorithm_total",
                       {{"algo", AlgorithmName(Algorithm::kHybrid)}}),
            static_cast<double>(executed));

  // Both computes planned: the 4-shard miss and the one-shard
  // truncated query (shed probes never reach the planner).
  EXPECT_EQ(snap.Value("sky_planner_plans_total"), 2.0);
  EXPECT_EQ(snap.Value("sky_planner_shards_executed_total"),
            static_cast<double>(executed + 1));
  EXPECT_EQ(snap.Value("sky_planner_shards_pruned_total"),
            static_cast<double>(run.plan.pruned));
  EXPECT_EQ(snap.Value("sky_planner_merge_total",
                       {{"strategy", "skyline-union"}}),
            1.0);
  EXPECT_EQ(snap.Value("sky_planner_merge_total", {{"strategy", "none"}}),
            1.0);
  EXPECT_EQ(snap.Value("sky_planner_merge_total",
                       {{"strategy", "skyband-union"}}),
            0.0);

  EXPECT_EQ(snap.Value("sky_mutation_inserts_total"), 1.0);
  EXPECT_EQ(snap.Value("sky_mutation_deletes_total"), 1.0);
  EXPECT_EQ(snap.Value("sky_mutation_rows_inserted_total"), 16.0);
  EXPECT_EQ(snap.Value("sky_mutation_rows_deleted_total"), 3.0);
  EXPECT_EQ(HistogramCount(snap, "sky_mutation_seconds"), 2u);
  EXPECT_EQ(snap.Value("sky_invalidated_results_total"), 1.0);
  ExpectAlwaysReportedSeries(snap);
}

TEST(EngineMetricsTest, MetricsOffLeavesEngineSeriesAtZero) {
  const PinnedRun run = RunPinnedSequence(/*metrics=*/false);
  size_t engine_series = 0;
  for (const obs::MetricValue& m : run.snap.metrics) {
    if (AlwaysReported(m.name)) continue;
    ++engine_series;
    EXPECT_EQ(m.value, 0.0) << m.name;
    EXPECT_EQ(m.histogram.count, 0u) << m.name;
  }
  EXPECT_GT(engine_series, 20u);  // the interned series are all present
  ExpectAlwaysReportedSeries(run.snap);
}

}  // namespace
}  // namespace sky::test
