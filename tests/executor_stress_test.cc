// Copyright (c) SkyBench-NG contributors.
// Concurrency stress for the shared work-stealing executor
// (parallel/executor.h). Two layers: the raw scheduler hammered by many
// external submitters with nested groups, and a full engine where 8
// concurrent clients run sharded queries while a writer mutates the
// dataset — every served answer must match one of the precomputed
// per-version oracles. Run under TSan by the scheduled CI job.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "gtest/gtest.h"
#include "parallel/executor.h"
#include "query/engine.h"
#include "test_util.h"

namespace sky::test {
namespace {

TEST(ExecutorStressTest, ManyExternalSubmittersOneScheduler) {
  // 8 external threads each run repeated fork-joins (some nested) on one
  // 4-wide executor — the engine's serving shape, where every client
  // thread is a foreign submitter that must inject, help and wait without
  // losing tasks or racing the parking protocol.
  Executor exec(4);
  constexpr int kClients = 8;
  constexpr int kRounds = 40;
  std::atomic<uint64_t> grand_total{0};
  test::RunConcurrentClients(kClients, [&](int client) {
    std::mt19937 rng(static_cast<uint32_t>(client) * 97 + 11);
    for (int round = 0; round < kRounds; ++round) {
      const size_t n = 100 + rng() % 900;
      std::atomic<uint64_t> sum{0};
      Executor::TaskGroup group(exec, 1 + static_cast<int>(rng() % 4));
      group.ParallelFor(n, 16, [&](size_t begin, size_t end) {
        uint64_t local = 0;
        for (size_t i = begin; i < end; ++i) local += i + 1;
        if ((begin % 128) == 0) {
          // Occasionally fork a nested group from inside a task.
          std::atomic<uint64_t> inner{0};
          Executor::TaskGroup sub(exec, 2);
          sub.ParallelFor(64, 8, [&](size_t lo, size_t hi) {
            inner.fetch_add(hi - lo, std::memory_order_relaxed);
          });
          sub.Wait();
          local += inner.load() / 64;  // always 1
        }
        sum.fetch_add(local, std::memory_order_relaxed);
      });
      const uint64_t base = static_cast<uint64_t>(n) * (n + 1) / 2;
      EXPECT_GE(sum.load(), base);
      grand_total.fetch_add(sum.load(), std::memory_order_relaxed);
    }
  });
  EXPECT_GT(grand_total.load(), 0u);
  EXPECT_EQ(exec.Counters().queue_depth, 0u);
}

TEST(ExecutorStressTest, EightShardedClientsWithConcurrentMutations) {
  // The ISSUE's acceptance stress: one engine with a 4-wide shared
  // executor, 8 client threads running sharded queries (per-query
  // parallelism borrowed from the executor as capped task groups) while
  // a writer applies a deterministic insert/delete script. Every served
  // result must be exact for SOME minor version that existed — never a
  // torn mix — and the settled state must serve the final version.
  SkylineEngine::Config config;
  config.result_cache_capacity = 8;
  config.shards = 4;
  config.shard_policy = ShardPolicy::kMedianPivot;
  config.executor_threads = 4;
  SkylineEngine engine(config);
  const Dataset base =
      GenerateSynthetic(Distribution::kAnticorrelated, 600, 3, 61);
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

  // Include a constrained spec so per-shard views (the cache most
  // exposed to racing mutations) are exercised on the executor path.
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
  std::mt19937 rng(6161);
  for (int step = 0; step < kSteps; ++step) {
    if (step % 2 == 0) {
      Dataset batch = GenerateSynthetic(Distribution::kAnticorrelated, 40, 3,
                                        2000 + static_cast<uint64_t>(step));
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

  constexpr int kClients = 8;
  test::RunConcurrentClients(kClients, [&](int worker) {
    Options opts;
    opts.threads = 2;  // per-query cap on the shared executor
    std::mt19937 pick(static_cast<uint32_t>(worker) * 41 + 3);
    int round = 0;
    do {
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
  EXPECT_EQ(engine.MinorVersion("ds"), static_cast<uint64_t>(kSteps));

  // The whole run shared the engine's one scheduler: work actually
  // flowed through it and it is quiescent again.
  const auto counters = engine.executor().Counters();
  EXPECT_EQ(counters.queue_depth, 0u);
}

}  // namespace
}  // namespace sky::test
