// Copyright (c) SkyBench-NG contributors.
// Robust-serving tests: deadlines and cooperative cancellation through
// the engine and the library dispatch, admission control / load
// shedding, serve-stale fallbacks, truncated progressive partials, and
// the failpoint differential suite — no injected fault may ever produce
// a wrong answer, only a clean error Status, a flagged degraded answer,
// or the exact one.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "core/skyline.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "query/engine.h"
#include "query_test_util.h"
#include "test_util.h"

namespace sky::test {
namespace {

std::vector<PointId> OracleIds(const Dataset& data, const QuerySpec& spec) {
  std::vector<PointId> ids;
  for (const OracleEntry& e : ReferenceQuery(data, spec)) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

class RobustEngineTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::Instance().DisarmAll(); }
};

TEST_F(RobustEngineTest, LibraryDeadlineBoundAcrossCheckpointGranularities) {
  // The overrun bound: a deadlined run must return within deadline + one
  // checkpoint granule. The granule is the block size, so the bound has
  // to hold at every alpha, not just the default — a generous absolute
  // slack keeps the assertion CI-safe while still catching a path that
  // ignores its token (this workload runs far longer than the bound).
  const Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 150'000, 8, 7);
  for (const size_t alpha : {size_t{512}, size_t{4096}, size_t{32768}}) {
    Options opts;
    opts.algorithm = Algorithm::kQFlow;
    opts.threads = 4;
    opts.alpha = alpha;
    opts.deadline_ms = 10;
    const auto start = std::chrono::steady_clock::now();
    try {
      const Result r = ComputeSkyline(data, opts);
      // Finishing under the deadline is legal (fast machine); the result
      // must then be complete and correct-sized, not silently truncated.
      EXPECT_GT(r.skyline.size(), 0u) << "alpha=" << alpha;
    } catch (const CancelledError& err) {
      EXPECT_EQ(err.reason(), Status::kDeadlineExceeded) << "alpha=" << alpha;
    }
    EXPECT_LT(ElapsedMs(start), 1000.0) << "alpha=" << alpha;
  }
}

TEST_F(RobustEngineTest, EngineDeadlineReturnsCleanStatusNotRows) {
  SkylineEngine engine;
  engine.RegisterDataset(
      "ds", GenerateSynthetic(Distribution::kAnticorrelated, 60'000, 8, 7));
  Options opts;
  opts.algorithm = Algorithm::kQFlow;
  opts.threads = 2;
  opts.alpha = 512;
  opts.deadline_ms = 1e-3;  // expires at the first checkpoint
  const auto start = std::chrono::steady_clock::now();
  const QueryResult r = engine.Execute("ds", QuerySpec{}, opts);
  EXPECT_LT(ElapsedMs(start), 1000.0);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_FALSE(r.truncated);
  EXPECT_TRUE(r.ids.empty());
  // Nothing partial or failed is ever cached: the same query without a
  // deadline recomputes and serves the full answer.
  Options full;
  full.algorithm = Algorithm::kQFlow;
  full.threads = 2;
  const QueryResult ok = engine.Execute("ds", QuerySpec{}, full);
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_FALSE(ok.cache_hit);
  EXPECT_GT(ok.ids.size(), 0u);
  EXPECT_GE(engine.Metrics().Snapshot().Value(
                "sky_query_deadline_exceeded_total"),
            1.0);
}

TEST_F(RobustEngineTest, ZonemapPathHonorsDeadline) {
  // The zonemap-direct route (box-only constrained spec, kZonemap) has
  // its own traversal loop; it must poll the same per-query token.
  SkylineEngine engine;
  engine.RegisterDataset(
      "ds", GenerateSynthetic(Distribution::kAnticorrelated, 60'000, 6, 11));
  QuerySpec boxed;
  boxed.Constrain(0, 0.0f, 0.9f);
  Options opts;
  opts.algorithm = Algorithm::kZonemap;
  opts.deadline_ms = 1e-3;
  const QueryResult r = engine.Execute("ds", boxed, opts);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_TRUE(r.ids.empty());
}

TEST_F(RobustEngineTest, ExternalCancelTokenStopsTheQuery) {
  SkylineEngine engine;
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 2'000, 4, 3);
  engine.RegisterDataset("ds", data.Clone());

  CancelToken token;
  token.Cancel();  // pre-cancelled: the query must not do the work
  Options opts;
  opts.cancel = &token;
  const QueryResult r = engine.Execute("ds", QuerySpec{}, opts);
  EXPECT_EQ(r.status, Status::kCancelled);
  EXPECT_TRUE(r.ids.empty());

  // The caller's token is chained, not consumed: a fresh run without it
  // still serves exactly.
  const QueryResult ok = engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_EQ(Sorted(ok.ids), OracleIds(data, QuerySpec{}));
}

TEST_F(RobustEngineTest, CancelledTokenStopsTheViewBuild) {
  // The view build polls the query token once per row chunk, so a
  // cancelled query stops before any view exists: nothing is built,
  // counted or cached.
  SkylineEngine engine;
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 80'000, 4, 21);
  engine.RegisterDataset("ds", data.Clone());
  QuerySpec spec;
  spec.SetPreference(0, Preference::kMax);
  spec.Constrain(1, 0.0f, 0.02f);
  const auto view_builds = [&] {
    return engine.Metrics().Snapshot().Value("sky_engine_view_builds_total");
  };
  const double builds_before = view_builds();
  const auto views_before = engine.view_cache_counters();

  CancelToken token;
  token.Cancel();
  Options opts;
  opts.threads = 4;
  opts.cancel = &token;
  const QueryResult r = engine.Execute("ds", spec, opts);
  EXPECT_EQ(r.status, Status::kCancelled);
  EXPECT_TRUE(r.ids.empty());
  EXPECT_EQ(view_builds(), builds_before);
  const auto views_after = engine.view_cache_counters();
  EXPECT_EQ(views_after.entries, views_before.entries);
  EXPECT_EQ(views_after.bytes, views_before.bytes);

  Options full;
  full.threads = 4;
  const QueryResult ok = engine.Execute("ds", spec, full);
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_EQ(Sorted(ok.ids), OracleIds(data, spec));
  EXPECT_EQ(view_builds(), builds_before + 1);
}

TEST_F(RobustEngineTest, ProgressiveDeadlineServesTruncatedPrefix) {
  // A progressive consumer that trips the budget mid-stream must get a
  // well-formed partial: status kDeadlineExceeded, truncated flag, and
  // every returned id a true skyline member (a confirmed prefix, never a
  // torn superset).
  SkylineEngine engine;
  const Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 20'000, 6, 19);
  engine.RegisterDataset("ds", data.Clone());
  const std::vector<PointId> full = OracleIds(data, QuerySpec{});

  CancelToken token;
  std::atomic<size_t> streamed{0};
  Options opts;
  opts.algorithm = Algorithm::kQFlow;
  opts.alpha = 512;
  opts.cancel = &token;
  opts.progressive = [&](std::span<const PointId> ids) {
    if (streamed.fetch_add(ids.size()) + ids.size() > 0) {
      token.Cancel(Status::kDeadlineExceeded);
    }
  };
  const QueryResult r = engine.Execute("ds", QuerySpec{}, opts);
  ASSERT_EQ(r.status, Status::kDeadlineExceeded);
  ASSERT_TRUE(r.truncated);
  ASSERT_FALSE(r.ids.empty());
  EXPECT_LT(r.ids.size(), full.size());
  EXPECT_EQ(r.dominator_counts.size(), r.ids.size());
  for (const PointId id : r.ids) {
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), id))
        << "truncated prefix leaked non-member id " << id;
  }
  // Partial answers are never cached.
  const QueryResult ok = engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_FALSE(ok.cache_hit);
  EXPECT_EQ(Sorted(ok.ids), full);
}

TEST_F(RobustEngineTest, AdmissionControlShedsOverCapQueries) {
  SkylineEngine::Config config;
  config.max_inflight = 1;
  SkylineEngine engine(config);
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 3'000, 4, 5);
  engine.RegisterDataset("ds", data.Clone());

  // The blocker holds the only admission slot inside a 400 ms injected
  // view-build delay; probes during that window must shed immediately.
  FailPoints::Instance().Arm("view_build", FailPoints::Mode::kDelay,
                             /*probability=*/1.0, /*delay_ms=*/400);
  QuerySpec blocked;
  blocked.Constrain(0, 0.0f, 0.8f);
  std::thread blocker([&] { engine.Execute("ds", blocked, Options{}); });

  bool shed = false;
  for (int attempt = 0; attempt < 15 && !shed; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    QuerySpec probe;  // distinct constraint per attempt: no cache hits
    probe.Constrain(0, 0.0f, 0.5f + 0.01f * static_cast<float>(attempt));
    const QueryResult r = engine.Execute("ds", probe, Options{});
    if (r.status == Status::kOverloaded) {
      EXPECT_TRUE(r.ids.empty());
      shed = true;
    }
  }
  blocker.join();
  EXPECT_TRUE(shed) << "no probe was shed while the slot was held";
  EXPECT_GE(engine.Metrics().Snapshot().Value("sky_query_shed_total"), 1.0);

  // Capacity released: the engine serves exactly again.
  FailPoints::Instance().DisarmAll();
  const QueryResult after = engine.Execute("ds", blocked, Options{});
  EXPECT_EQ(after.status, Status::kOk);
  EXPECT_EQ(Sorted(after.ids), OracleIds(data, blocked));
}

TEST_F(RobustEngineTest, ServeStaleAnswersTimedOutQueryFromExpiredEntry) {
  SkylineEngine::Config config;
  config.result_cache_ttl = 0.05;  // 50 ms: entries expire quickly
  config.serve_stale = true;
  SkylineEngine engine(config);
  const Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 20'000, 6, 23);
  engine.RegisterDataset("ds", data.Clone());

  QuerySpec boxed;
  boxed.Constrain(0, 0.0f, 0.9f);
  Options opts;
  opts.algorithm = Algorithm::kQFlow;
  opts.alpha = 512;
  const QueryResult fresh = engine.Execute("ds", boxed, opts);
  ASSERT_EQ(fresh.status, Status::kOk);
  ASSERT_FALSE(fresh.stale);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // Recompute now times out; the expired entry answers, flagged stale.
  Options doomed = opts;
  doomed.deadline_ms = 1e-3;
  const QueryResult stale = engine.Execute("ds", boxed, doomed);
  EXPECT_EQ(stale.status, Status::kOk);
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.cache_hit);
  EXPECT_EQ(Sorted(stale.ids), Sorted(fresh.ids));
  EXPECT_GE(engine.Metrics().Snapshot().Value("sky_query_degraded_total"),
            1.0);

  // A successful recompute refreshes the entry in place.
  const QueryResult recomputed = engine.Execute("ds", boxed, opts);
  EXPECT_EQ(recomputed.status, Status::kOk);
  EXPECT_FALSE(recomputed.stale);
  EXPECT_EQ(Sorted(recomputed.ids), OracleIds(data, boxed));
}

TEST_F(RobustEngineTest, WithoutServeStaleDeadlineCarriesNoFallback) {
  SkylineEngine::Config config;
  config.result_cache_ttl = 0.05;
  config.serve_stale = false;  // policy off: expired entries are erased
  SkylineEngine engine(config);
  engine.RegisterDataset(
      "ds", GenerateSynthetic(Distribution::kAnticorrelated, 20'000, 6, 23));
  QuerySpec boxed;
  boxed.Constrain(0, 0.0f, 0.9f);
  Options opts;
  opts.algorithm = Algorithm::kQFlow;
  opts.alpha = 512;
  ASSERT_EQ(engine.Execute("ds", boxed, opts).status, Status::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Options doomed = opts;
  doomed.deadline_ms = 1e-3;
  const QueryResult r = engine.Execute("ds", boxed, doomed);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_FALSE(r.stale);
  EXPECT_TRUE(r.ids.empty());
}

TEST_F(RobustEngineTest, FailpointDifferentialNoFaultProducesWrongAnswer) {
  // Every serving-path site × every mode: the answer is either exactly
  // right (possibly slower, possibly uncached) or a clean error Status —
  // never a wrong non-empty result. After disarming, the same engine
  // must serve exactly (registry and caches stayed consistent).
  SkylineEngine::Config config;
  config.shards = 4;
  config.shard_policy = ShardPolicy::kMedianPivot;
  SkylineEngine engine(config);
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 2'000, 4, 29);
  engine.RegisterDataset("ds", data.Clone());

  QuerySpec boxed;  // exercises view build, shard fan-out and the merge
  boxed.Constrain(0, 0.1f, 0.9f);
  const std::vector<PointId> oracle = OracleIds(data, boxed);
  Options opts;
  opts.threads = 2;

  using Mode = FailPoints::Mode;
  const char* sites[] = {"view_build", "shard_execute", "merge_union",
                         "executor_task", "result_cache_put"};
  const Mode modes[] = {Mode::kThrow, Mode::kBadAlloc, Mode::kError,
                        Mode::kDelay};
  for (const char* site : sites) {
    for (const Mode mode : modes) {
      SCOPED_TRACE(std::string(site) + ":" + FailPoints::ModeName(mode));
      FailPoints::Instance().DisarmAll();
      FailPoints::Instance().Arm(site, mode, /*probability=*/1.0,
                                 /*delay_ms=*/5);
      engine.ClearCache();
      const QueryResult r = engine.Execute("ds", boxed, opts);
      if (mode == Mode::kDelay) {
        EXPECT_EQ(r.status, Status::kOk);
        EXPECT_EQ(Sorted(r.ids), oracle);
      } else if (r.status == Status::kOk) {
        // A cache-put failure (or a site off this query's path) still
        // serves the exact answer.
        EXPECT_EQ(Sorted(r.ids), oracle);
      } else {
        EXPECT_EQ(r.status, Status::kInternalError);
        EXPECT_TRUE(r.ids.empty());
      }
      // Containment check: the engine recovers without a rebuild.
      FailPoints::Instance().DisarmAll();
      engine.ClearCache();
      const QueryResult after = engine.Execute("ds", boxed, opts);
      EXPECT_EQ(after.status, Status::kOk);
      EXPECT_EQ(Sorted(after.ids), oracle);
    }
  }
}

TEST_F(RobustEngineTest, ResultCachePutFailureServesUncached) {
  SkylineEngine engine;
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 1'500, 4, 31);
  engine.RegisterDataset("ds", data.Clone());
  FailPoints::Instance().Arm("result_cache_put", FailPoints::Mode::kThrow);
  const QueryResult first = engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(Sorted(first.ids), OracleIds(data, QuerySpec{}));
  // The put was injected away, so the identical query recomputes.
  const QueryResult second = engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_FALSE(second.cache_hit);
  FailPoints::Instance().DisarmAll();
  const QueryResult third = engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(third.status, Status::kOk);
  const QueryResult cached = engine.Execute("ds", QuerySpec{});
  EXPECT_TRUE(cached.cache_hit);
}

TEST_F(RobustEngineTest, ShardRepairFailureAbortsMutationPrePublish) {
  SkylineEngine::Config config;
  config.shards = 4;
  SkylineEngine engine(config);
  const Dataset base =
      GenerateSynthetic(Distribution::kIndependent, 1'200, 4, 37);
  engine.RegisterDataset("ds", base.Clone());
  const std::vector<PointId> before = OracleIds(base, QuerySpec{});
  const Dataset batch =
      GenerateSynthetic(Distribution::kIndependent, 60, 4, 38);

  FailPoints::Instance().Arm("shard_repair", FailPoints::Mode::kThrow);
  EXPECT_THROW(engine.InsertPoints("ds", batch), std::exception);
  // Pre-publish abort: the registry still holds the untouched
  // generation, no version bump, queries serve the old answer exactly.
  EXPECT_EQ(engine.MinorVersion("ds"), 0u);
  const QueryResult old = engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(old.status, Status::kOk);
  EXPECT_EQ(Sorted(old.ids), before);

  FailPoints::Instance().DisarmAll();
  engine.InsertPoints("ds", batch);
  EXPECT_EQ(engine.MinorVersion("ds"), 1u);
  // Post-repair oracle: base rows then batch rows, ids appended in order.
  std::vector<float> flat;
  for (size_t i = 0; i < base.count(); ++i) {
    flat.insert(flat.end(), base.Row(i), base.Row(i) + 4);
  }
  for (size_t i = 0; i < batch.count(); ++i) {
    flat.insert(flat.end(), batch.Row(i), batch.Row(i) + 4);
  }
  const Dataset combined = Dataset::FromRowMajor(4, flat);
  const QueryResult now = engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(now.status, Status::kOk);
  EXPECT_EQ(Sorted(now.ids), OracleIds(combined, QuerySpec{}));
}

TEST_F(RobustEngineTest, WorkerBadAllocIsContainedAsInternalError) {
  // The nastiest containment case: a worker task dies with bad_alloc
  // inside the sharded fan-out. The group must capture it, cancel the
  // siblings, and the engine must map it to a status — not terminate.
  SkylineEngine::Config config;
  config.shards = 4;
  SkylineEngine engine(config);
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 2'000, 4, 41);
  engine.RegisterDataset("ds", data.Clone());
  FailPoints::Instance().Arm("shard_execute", FailPoints::Mode::kBadAlloc);
  Options opts;
  opts.threads = 4;
  const QueryResult r = engine.Execute("ds", QuerySpec{}, opts);
  EXPECT_EQ(r.status, Status::kInternalError);
  EXPECT_TRUE(r.ids.empty());
  FailPoints::Instance().DisarmAll();
  const QueryResult after = engine.Execute("ds", QuerySpec{}, opts);
  EXPECT_EQ(after.status, Status::kOk);
  EXPECT_EQ(Sorted(after.ids), OracleIds(data, QuerySpec{}));
}

}  // namespace
}  // namespace sky::test
