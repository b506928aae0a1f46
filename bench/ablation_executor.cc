// Copyright (c) SkyBench-NG contributors.
// Executor scaling: how does sharded serving on the shared work-stealing
// scheduler scale with concurrent clients? A concurrent-clients x shards
// grid over the same sharded dataset, every query submitting capped task
// groups to one persistent executor sized to the hardware. Each client
// runs a fixed script of distinct ~1%-selectivity boxes (plans and
// computes every time; no result cache in this path), and the cell
// reports aggregate queries/second.
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "parallel/executor.h"
#include "query/engine.h"
#include "query/shard_map.h"

namespace sky {
namespace {

constexpr float kBoxWidth = 0.01f;  // ~1% selectivity on a uniform dim

/// One grid cell: `clients` concurrent threads each run `queries_each`
/// constrained sharded queries against `map`, asking `executor` for
/// `threads`-wide cross-shard parallelism. Returns aggregate
/// queries/second (median of repeats).
double CellQps(const ShardMap& map, int clients, int threads,
               Executor* executor, int queries_each, int repeats) {
  std::vector<double> qps;
  for (int rep = 0; rep < std::max(repeats, 3); ++rep) {
    WallTimer timer;
    {
      std::vector<std::jthread> client_threads;  // joined at scope exit
      for (int client = 0; client < clients; ++client) {
        client_threads.emplace_back([&, client] {
          Options opts;
          opts.threads = threads;
          opts.executor = executor;
          for (int q = 0; q < queries_each; ++q) {
            QuerySpec spec;
            const float lo = 0.05f + 0.01f * static_cast<float>(
                                             (client * 31 + q + rep) % 80);
            spec.Constrain(0, lo, lo + kBoxWidth);
            RunShardedQuery(map, spec, opts);
          }
        });
      }
    }
    const double secs = std::max(timer.Seconds(), 1e-12);
    qps.push_back(static_cast<double>(clients) *
                  static_cast<double>(queries_each) / secs);
  }
  return Median(std::move(qps));
}

void Run(const BenchConfig& cfg) {
  const size_t n =
      cfg.n_override ? cfg.n_override : (cfg.full ? 1'000'000 : 100'000);
  const int d = cfg.d_override ? cfg.d_override : 8;
  const int queries_each = cfg.full ? 32 : 8;
  std::printf(
      "== Ablation: shared work-stealing executor (anti, n=%zu, d=%d, "
      "%d queries/client, executor width %d) ==\n",
      n, d, queries_each, Executor::DefaultThreads());

  WorkloadSpec wspec{Distribution::kAnticorrelated, n, d, cfg.seed};
  const Dataset& data = WorkloadCache::Instance().Get(wspec);
  Executor exec(Executor::DefaultThreads());

  Table grid({"shards", "clients", "executor (q/s)", "vs 1 client"});
  for (const size_t shards : {size_t{4}, size_t{8}}) {
    const ShardMap map = ShardMap::Build(data, shards,
                                         ShardPolicy::kMedianPivot, cfg.seed);
    // Each query asks for cross-shard parallelism up to the shard count —
    // the request a serving client would make, which the executor treats
    // as a cap.
    const int threads = static_cast<int>(shards);
    double one_client = 0.0;
    for (const int clients : {1, 2, 4, 8}) {
      const double qps =
          CellQps(map, clients, threads, &exec, queries_each, cfg.repeats);
      if (clients == 1) one_client = qps;
      char scale[32];
      std::snprintf(scale, sizeof(scale), "%.2fx", qps / one_client);
      grid.AddRow({std::to_string(shards), std::to_string(clients),
                   Table::Num(qps), scale});
    }
  }
  std::printf("\n-- sharded serving throughput on the shared executor --\n");
  Emit(grid, cfg);
  std::printf(
      "\nExpected shape: throughput grows with clients until the executor's "
      "workers are saturated, then holds flat — admission caps keep C "
      "clients from oversubscribing the machine.\n");
}

}  // namespace
}  // namespace sky

int main(int argc, char** argv) {
  sky::Run(sky::BenchConfig::Parse(argc, argv));
  return 0;
}
