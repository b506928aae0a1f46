// Copyright (c) SkyBench-NG contributors.
// Concurrency stress for the serving layer: many threads hammer one
// SkylineEngine with a mix of queries (cache hits, misses, LRU churn)
// while another thread registers/evicts datasets. Every returned result
// is checked against the sequentially precomputed answer. Run under TSan
// by the scheduled CI job.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "query/engine.h"
#include "test_util.h"

namespace sky::test {
namespace {

std::vector<QuerySpec> MixedSpecs() {
  std::vector<QuerySpec> specs;
  specs.push_back(QuerySpec{});  // native all-min question

  QuerySpec flipped;
  flipped.SetPreference(0, Preference::kMax);
  specs.push_back(flipped);

  QuerySpec projected;
  projected.Project({1, 2}, 4);
  specs.push_back(projected);

  QuerySpec boxed;
  boxed.Constrain(0, 0.1f, 0.8f).Constrain(3, 0.0f, 0.9f);
  specs.push_back(boxed);

  QuerySpec banded;
  banded.band_k = 3;
  specs.push_back(banded);

  QuerySpec capped;
  capped.SetPreference(2, Preference::kMax);
  capped.top_k = 25;
  specs.push_back(capped);

  return specs;
}

TEST(QueryEngineStressTest, ConcurrentMixedQueriesOneDataset) {
  // Tiny LRU so hits, misses and evictions all happen under contention.
  SkylineEngine engine(SkylineEngine::Config{4});
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 1500, 4, /*seed=*/77);
  engine.RegisterDataset("ds", data.Clone());

  const std::vector<QuerySpec> specs = MixedSpecs();
  std::vector<std::vector<PointId>> expected;
  for (const QuerySpec& spec : specs) {
    expected.push_back(Sorted(RunQuery(data, spec).ids));
  }

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 24;
  std::atomic<int> mismatches{0};
  test::RunConcurrentClients(kThreads, [&](int worker) {
    Options opts;
    opts.threads = 1;
    // Deterministic per-worker sequence, offset so different specs are in
    // flight at once.
    for (int round = 0; round < kRoundsPerThread; ++round) {
      const size_t q =
          (static_cast<size_t>(worker) * 7 + static_cast<size_t>(round)) %
          specs.size();
      const QueryResult r = engine.Execute("ds", specs[q], opts);
      if (Sorted(r.ids) != expected[q]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);

  const obs::MetricsSnapshot snap = engine.Metrics().Snapshot();
  EXPECT_GT(snap.Value("sky_result_cache_hits_total"), 0.0);
  EXPECT_GT(snap.Value("sky_result_cache_misses_total"), 0.0);
  EXPECT_LE(snap.Value("sky_result_cache_entries"), 4.0);
}

TEST(QueryEngineStressTest, ConcurrentShardedExecutionStaysExact) {
  // Sharded plan/execute/merge under contention: many threads run the
  // mixed workload against a 4-shard dataset (per-shard pools, M(S)
  // merges and the view cache all active at once) while a churn thread
  // re-registers the same content under alternating shard policies —
  // every served result must still match the unsharded answer.
  SkylineEngine::Config config;
  config.result_cache_capacity = 4;  // force recomputation under load
  config.shards = 4;
  config.shard_policy = ShardPolicy::kMedianPivot;
  SkylineEngine engine(config);
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 1200, 4, /*seed=*/21);
  engine.RegisterDataset("ds", data.Clone());

  const std::vector<QuerySpec> specs = MixedSpecs();
  std::vector<std::vector<PointId>> expected;
  for (const QuerySpec& spec : specs) {
    expected.push_back(Sorted(RunQuery(data, spec).ids));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread churn([&] {
    for (int i = 0; i < 12; ++i) {
      engine.RegisterDataset("ds", data.Clone(), 4,
                             i % 2 ? ShardPolicy::kRoundRobin
                                   : ShardPolicy::kMedianPivot);
    }
    stop.store(true, std::memory_order_release);
  });

  constexpr int kThreads = 6;
  test::RunConcurrentClients(kThreads, [&](int worker) {
    Options opts;
    opts.threads = 2;  // per-query shard parallelism under contention
    int round = 0;
    do {
      const size_t q =
          (static_cast<size_t>(worker) * 5 + static_cast<size_t>(round)) %
          specs.size();
      const QueryResult r = engine.Execute("ds", specs[q], opts);
      if (Sorted(r.ids) != expected[q]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      ++round;
    } while (!stop.load(std::memory_order_acquire) || round < 12);
  });
  churn.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_NE(engine.FindShards("ds"), nullptr);
}

TEST(QueryEngineStressTest, ConcurrentAutoSelectionSurvivesSketchChurn) {
  // Auto-selected sharded serving while a churn thread re-registers the
  // same content (rebuilding every per-shard sketch and the dataset
  // sketch each time, under alternating policies): every cost-model
  // decision must resolve against a consistent registration generation
  // and every served result must still match the unsharded answer.
  SkylineEngine::Config config;
  config.result_cache_capacity = 4;  // force recomputation under load
  config.shards = 4;
  config.shard_policy = ShardPolicy::kMedianPivot;
  config.auto_algorithm = true;  // fleet-wide kAuto
  SkylineEngine engine(config);
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 1200, 4, /*seed=*/33);
  engine.RegisterDataset("ds", data.Clone());

  const std::vector<QuerySpec> specs = MixedSpecs();
  std::vector<std::vector<PointId>> expected;
  for (const QuerySpec& spec : specs) {
    expected.push_back(Sorted(RunQuery(data, spec).ids));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> unresolved{0};
  std::thread churn([&] {
    for (int i = 0; i < 12; ++i) {
      engine.RegisterDataset("ds", data.Clone(), 4,
                             i % 2 ? ShardPolicy::kRoundRobin
                                   : ShardPolicy::kMedianPivot);
    }
    stop.store(true, std::memory_order_release);
  });

  constexpr int kThreads = 6;
  test::RunConcurrentClients(kThreads, [&](int worker) {
    Options opts;
    opts.threads = 2;  // per-query shard parallelism under contention
    int round = 0;
    do {
      const size_t q =
          (static_cast<size_t>(worker) * 5 + static_cast<size_t>(round)) %
          specs.size();
      const QueryResult r = engine.Execute("ds", specs[q], opts);
      if (Sorted(r.ids) != expected[q]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      for (const Algorithm a : r.shard_algorithms) {
        if (a == Algorithm::kAuto) {
          unresolved.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ++round;
    } while (!stop.load(std::memory_order_acquire) || round < 12);
  });
  churn.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(unresolved.load(), 0);
}

TEST(QueryEngineStressTest, ConcurrentMutationsDuringQueries) {
  // Readers hammer a sharded, auto-selected engine while one writer
  // applies a deterministic insert/delete script. Linearizability check:
  // every served result must be exact for SOME minor version that
  // existed — each reader answer has to match one of the precomputed
  // per-version oracles, never a torn mix of two versions.
  SkylineEngine::Config config;
  config.result_cache_capacity = 8;
  config.shards = 4;
  config.shard_policy = ShardPolicy::kMedianPivot;
  config.auto_algorithm = true;
  SkylineEngine engine(config);
  const Dataset base =
      GenerateSynthetic(Distribution::kAnticorrelated, 600, 3, 51);
  engine.RegisterDataset("ds", base.Clone());

  // Model of the row state (compact-index semantics) used to precompute
  // the mutation payloads and each version's expected answers.
  std::vector<std::vector<Value>> model;
  for (size_t i = 0; i < base.count(); ++i) {
    model.emplace_back(base.Row(i), base.Row(i) + 3);
  }
  const auto build_model = [&] {
    std::vector<float> flat;
    for (const auto& row : model) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    return Dataset::FromRowMajor(3, flat);
  };

  // The spec mix must include a constrained spec: identity specs never
  // materialize per-shard views, and the view cache under a racing
  // mutation is exactly where a stale reader could compose a view built
  // from a different shard generation (the Shard::epoch check guards it).
  QuerySpec banded;
  banded.band_k = 2;
  QuerySpec boxed;
  boxed.Constrain(0, 0.1f, 0.8f);
  const std::vector<QuerySpec> specs{QuerySpec{}, banded, boxed};

  constexpr int kSteps = 10;
  std::vector<Dataset> insert_batches;
  std::vector<std::vector<PointId>> delete_batches;
  // expected[s][v]: sorted (id, count) pairs of spec s at version v.
  std::vector<std::vector<std::vector<std::pair<PointId, uint32_t>>>>
      expected(specs.size());
  const auto snapshot_expected = [&] {
    const Dataset now = build_model();
    for (size_t s = 0; s < specs.size(); ++s) {
      const QueryResult r = RunQuery(now, specs[s]);
      std::vector<std::pair<PointId, uint32_t>> entries;
      for (size_t i = 0; i < r.ids.size(); ++i) {
        entries.emplace_back(r.ids[i], r.dominator_counts[i]);
      }
      std::sort(entries.begin(), entries.end());
      expected[s].push_back(std::move(entries));
    }
  };
  snapshot_expected();  // version 0
  std::mt19937 rng(4242);
  for (int step = 0; step < kSteps; ++step) {
    if (step % 2 == 0) {
      Dataset batch = GenerateSynthetic(Distribution::kAnticorrelated, 40, 3,
                                        1000 + static_cast<uint64_t>(step));
      for (size_t i = 0; i < batch.count(); ++i) {
        model.emplace_back(batch.Row(i), batch.Row(i) + 3);
      }
      insert_batches.push_back(std::move(batch));
    } else {
      std::vector<PointId> drop;
      for (int k = 0; k < 60; ++k) {
        drop.push_back(static_cast<PointId>(rng() % model.size()));
      }
      std::sort(drop.begin(), drop.end());
      drop.erase(std::unique(drop.begin(), drop.end()), drop.end());
      for (auto it = drop.rbegin(); it != drop.rend(); ++it) {
        model.erase(model.begin() + *it);
      }
      delete_batches.push_back(std::move(drop));
    }
    snapshot_expected();
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread writer([&] {
    size_t ins = 0, del = 0;
    for (int step = 0; step < kSteps; ++step) {
      if (step % 2 == 0) {
        engine.InsertPoints("ds", insert_batches[ins++]);
      } else {
        engine.DeletePoints("ds", delete_batches[del++]);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    stop.store(true, std::memory_order_release);
  });

  constexpr int kThreads = 4;
  test::RunConcurrentClients(kThreads, [&](int worker) {
    Options opts;
    opts.threads = 1;
    std::mt19937 pick(static_cast<uint32_t>(worker) * 31 + 7);
    int round = 0;
    do {
      // Zipfian-ish spec choice: the plain skyline dominates traffic,
      // the banded and boxed specs split the tail.
      const uint32_t roll = pick() % 10;
      const size_t s = roll < 6 ? 0 : (roll < 8 ? 1 : 2);
      const QueryResult r = engine.Execute("ds", specs[s], opts);
      std::vector<std::pair<PointId, uint32_t>> got;
      for (size_t i = 0; i < r.ids.size(); ++i) {
        got.emplace_back(r.ids[i], r.dominator_counts[i]);
      }
      std::sort(got.begin(), got.end());
      bool matched = false;
      for (const auto& version : expected[s]) {
        if (got == version) {
          matched = true;
          break;
        }
      }
      if (!matched) torn.fetch_add(1, std::memory_order_relaxed);
      ++round;
    } while (!stop.load(std::memory_order_acquire) || round < 20);
  });
  writer.join();
  EXPECT_EQ(torn.load(), 0);
  // Settled state: the final version must now be served exactly.
  const QueryResult final_r = engine.Execute("ds", specs[0]);
  std::vector<std::pair<PointId, uint32_t>> final_got;
  for (size_t i = 0; i < final_r.ids.size(); ++i) {
    final_got.emplace_back(final_r.ids[i], final_r.dominator_counts[i]);
  }
  std::sort(final_got.begin(), final_got.end());
  EXPECT_EQ(final_got, expected[0].back());
  ASSERT_NE(engine.Find("ds"), nullptr);
  EXPECT_EQ(engine.Find("ds")->count(), model.size());
  EXPECT_EQ(engine.MinorVersion("ds"), static_cast<uint64_t>(kSteps));
}

TEST(QueryEngineStressTest, FailpointChurnNeverServesWrongAnswer) {
  // Probabilistic fault injection under concurrency: readers hammer a
  // sharded engine with deadlines racing a writer's insert/delete script
  // while every serving-path failpoint fires with low probability. The
  // invariant is the robustness contract itself — each served kOk result
  // must match SOME minor version's oracle exactly; failures must be
  // clean statuses; and after disarming, the engine must serve the final
  // version exactly.
  FailPoints::Instance().DisarmAll();
  SkylineEngine::Config config;
  config.result_cache_capacity = 8;
  config.shards = 4;
  config.shard_policy = ShardPolicy::kMedianPivot;
  SkylineEngine engine(config);
  const Dataset base =
      GenerateSynthetic(Distribution::kAnticorrelated, 500, 3, 71);
  engine.RegisterDataset("ds", base.Clone());

  std::vector<std::vector<Value>> model;
  for (size_t i = 0; i < base.count(); ++i) {
    model.emplace_back(base.Row(i), base.Row(i) + 3);
  }
  const auto build_model = [&] {
    std::vector<float> flat;
    for (const auto& row : model) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    return Dataset::FromRowMajor(3, flat);
  };

  QuerySpec boxed;
  boxed.Constrain(0, 0.1f, 0.8f);
  const std::vector<QuerySpec> specs{QuerySpec{}, boxed};

  constexpr int kSteps = 6;
  std::vector<Dataset> insert_batches;
  std::vector<std::vector<std::vector<PointId>>> expected(specs.size());
  const auto snapshot_expected = [&] {
    const Dataset now = build_model();
    for (size_t s = 0; s < specs.size(); ++s) {
      expected[s].push_back(Sorted(RunQuery(now, specs[s]).ids));
    }
  };
  snapshot_expected();
  for (int step = 0; step < kSteps; ++step) {
    Dataset batch = GenerateSynthetic(Distribution::kAnticorrelated, 30, 3,
                                      2000 + static_cast<uint64_t>(step));
    for (size_t i = 0; i < batch.count(); ++i) {
      model.emplace_back(batch.Row(i), batch.Row(i) + 3);
    }
    insert_batches.push_back(std::move(batch));
    snapshot_expected();
  }

  // Low-probability faults on every serving site; the writer retries a
  // step until it lands so every insert batch publishes exactly once.
  FailPoints::Instance().Arm("view_build", FailPoints::Mode::kThrow, 0.02);
  FailPoints::Instance().Arm("shard_execute", FailPoints::Mode::kBadAlloc,
                             0.02);
  FailPoints::Instance().Arm("merge_union", FailPoints::Mode::kError, 0.02);
  FailPoints::Instance().Arm("result_cache_put", FailPoints::Mode::kThrow,
                             0.05);
  FailPoints::Instance().Arm("shard_repair", FailPoints::Mode::kThrow, 0.1);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> clean_failures{0};
  std::thread writer([&] {
    for (int step = 0; step < kSteps; ++step) {
      for (;;) {
        try {
          engine.InsertPoints("ds", insert_batches[static_cast<size_t>(step)]);
          break;  // published; a retry would double-insert
        } catch (const std::exception&) {
          // Pre-publish abort: same batch, same target state — retry.
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true, std::memory_order_release);
  });

  constexpr int kThreads = 4;
  test::RunConcurrentClients(kThreads, [&](int worker) {
    Options opts;
    opts.threads = 1;
    int round = 0;
    do {
      const size_t s = static_cast<size_t>(worker + round) % specs.size();
      if (round % 7 == 0) opts.deadline_ms = 0.05;  // occasional budget
      const QueryResult r = engine.Execute("ds", specs[s], opts);
      opts.deadline_ms = 0;
      if (r.status != Status::kOk) {
        EXPECT_TRUE(r.ids.empty());
        clean_failures.fetch_add(1, std::memory_order_relaxed);
      } else {
        const std::vector<PointId> got = Sorted(r.ids);
        bool matched = false;
        for (const auto& version : expected[s]) {
          if (got == version) {
            matched = true;
            break;
          }
        }
        if (!matched) torn.fetch_add(1, std::memory_order_relaxed);
      }
      ++round;
    } while (!stop.load(std::memory_order_acquire) || round < 30);
  });
  writer.join();
  EXPECT_EQ(torn.load(), 0);

  FailPoints::Instance().DisarmAll();
  engine.ClearCache();
  for (size_t s = 0; s < specs.size(); ++s) {
    const QueryResult final_r = engine.Execute("ds", specs[s]);
    EXPECT_EQ(final_r.status, Status::kOk);
    EXPECT_EQ(Sorted(final_r.ids), expected[s].back());
  }
  EXPECT_EQ(engine.MinorVersion("ds"), static_cast<uint64_t>(kSteps));
}

TEST(QueryEngineStressTest, QueriesRaceRegistrationAndEviction) {
  SkylineEngine engine;
  engine.RegisterDataset(
      "stable", GenerateSynthetic(Distribution::kIndependent, 800, 3, 5));
  const std::vector<PointId> expected =
      Sorted(engine.Execute("stable", QuerySpec{}).ids);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Churn thread: registers, queries and evicts a second dataset, and
  // repeatedly replaces "stable" with identical content (bumping its
  // version and invalidating cache entries mid-flight).
  std::thread churn([&] {
    for (int i = 0; i < 40; ++i) {
      engine.RegisterDataset(
          "temp", GenerateSynthetic(Distribution::kCorrelated, 300, 3,
                                    static_cast<uint64_t>(i)));
      engine.Execute("temp", QuerySpec{});
      engine.EvictDataset("temp");
      engine.RegisterDataset(
          "stable", GenerateSynthetic(Distribution::kIndependent, 800, 3, 5));
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      QuerySpec band;
      band.band_k = 2;
      while (!stop.load(std::memory_order_acquire)) {
        if (Sorted(engine.Execute("stable", QuerySpec{}).ids) != expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        engine.Execute("stable", band);
        // "temp" may or may not exist right now; both outcomes are fine,
        // the engine just must not crash or corrupt state.
        try {
          engine.Execute("temp", QuerySpec{});
        } catch (const std::runtime_error&) {
        }
      }
    });
  }
  churn.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_NE(engine.Find("stable"), nullptr);
}

}  // namespace
}  // namespace sky::test
