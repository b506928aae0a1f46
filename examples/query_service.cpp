// Copyright (c) SkyBench-NG contributors.
// Query service: a long-lived SkylineEngine serving mixed preference /
// projection / constraint / k-band queries over registered datasets from
// many threads at once — the shape of a real skyline backend, as opposed
// to the one-shot ComputeSkyline call of the quickstart. Service health
// is read from the engine's metrics registry (obs/metrics.h): per-round
// snapshots report throughput, cache hit rates and latency quantiles,
// and the final snapshot can be written out as JSON for scraping.
//
//   $ ./query_service [n_points] [n_threads] [rounds] [shards] [stats.json]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "data/generator.h"
#include "data/realistic.h"
#include "obs/export.h"
#include "query/engine.h"

namespace {

/// The mixed query workload: every worker cycles through these against the
/// two registered datasets. Repetitions across workers are intentional —
/// they exercise the result cache exactly like repeated user traffic.
std::vector<std::pair<const char*, sky::QuerySpec>> BuildWorkload() {
  using sky::Preference;
  std::vector<std::pair<const char*, sky::QuerySpec>> queries;

  // "hotels" is house-like data: d=0 price, d=1..: quality-ish columns.
  sky::QuerySpec cheap_best;
  cheap_best.SetPreference(1, Preference::kMax)
      .SetPreference(2, Preference::kMax);
  queries.emplace_back("hotels", cheap_best);

  sky::QuerySpec budget_band = cheap_best;
  budget_band.Constrain(0, 0.0f, 0.35f);  // price cap
  budget_band.band_k = 3;                 // top-3 alternatives per trade-off
  queries.emplace_back("hotels", budget_band);

  sky::QuerySpec two_dims;
  two_dims.Project({0, 3}, 6);
  queries.emplace_back("hotels", two_dims);

  sky::QuerySpec shortlist;
  shortlist.SetPreference(1, Preference::kMax);
  shortlist.top_k = 10;
  queries.emplace_back("hotels", shortlist);

  // "flights" is anticorrelated synthetic data: all-min full skyline plus
  // a constrained subspace variant.
  queries.emplace_back("flights", sky::QuerySpec{});

  sky::QuerySpec window;
  window.Project({0, 1, 2}, 6).Constrain(0, 0.2f, 0.8f);
  queries.emplace_back("flights", window);

  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 50'000;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 8;
  const int rounds = argc > 3 ? std::atoi(argv[3]) : 4;
  const size_t shards = argc > 4 ? static_cast<size_t>(std::atoll(argv[4])) : 4;
  const std::string stats_json = argc > 5 ? argv[5] : "";

  // Datasets are sharded at registration: constrained queries plan
  // against per-shard bounding boxes and skip shards outside the box,
  // everything else fans out and merges with M(S). Median-pivot
  // assignment keeps hotel shards spatially tight (prunable); the flights
  // registration exercises the round-robin policy. auto_algorithm lets
  // the cost model pick the algorithm per query and per shard from the
  // registration-time sketches; the result cache carries a TTL like a
  // long-lived deployment would.
  sky::SkylineEngine::Config config;
  config.result_cache_capacity = 64;
  config.result_cache_ttl = 300.0;  // refresh-heavy service: 5 min
  config.shards = shards;
  config.shard_policy = sky::ShardPolicy::kMedianPivot;
  config.auto_algorithm = true;
  sky::SkylineEngine engine(config);
  engine.RegisterDataset("hotels", sky::GenerateHouseLike(n, /*seed=*/7));
  engine.RegisterDataset(
      "flights",
      sky::GenerateSynthetic(sky::Distribution::kAnticorrelated, n, 6,
                             /*seed=*/42),
      shards, sky::ShardPolicy::kRoundRobin);
  std::printf("registered datasets (shards=%zu):", shards);
  for (const std::string& name : engine.DatasetNames()) {
    std::printf(" %s(n=%zu)", name.c_str(), engine.Find(name)->count());
  }
  std::printf("\n");

  const auto workload = BuildWorkload();
  std::atomic<size_t> returned_points{0};
  std::atomic<size_t> shards_pruned{0};
  std::atomic<size_t> query_errors{0};

  // Every client thread is an independent "frontend thread" hammering the
  // shared engine with the mixed workload, offset so distinct queries are
  // in flight at the same time. After each round the engine's metrics
  // registry is snapshotted for a health line — exactly what a periodic
  // scraper would read off a deployment.
  sky::WallTimer wall;
  for (int round = 0; round < rounds; ++round) {
    const auto client = [&](int worker) {
      sky::Options opts;
      opts.threads = 1;  // per-query parallelism off: parallel across queries
      for (size_t q = 0; q < workload.size(); ++q) {
        const auto& [name, spec] =
            workload[(q + static_cast<size_t>(worker)) % workload.size()];
        // A failed query must never take the service down: runtime
        // outcomes come back as QueryResult::status, and anything the
        // engine still throws (it shouldn't, for a registered dataset
        // and valid spec) is logged and counted, not propagated.
        try {
          const sky::QueryResult r = engine.Execute(name, spec, opts);
          if (r.status != sky::Status::kOk) {
            query_errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          returned_points.fetch_add(r.ids.size(), std::memory_order_relaxed);
          shards_pruned.fetch_add(r.shards_pruned,
                                  std::memory_order_relaxed);
        } catch (const std::exception& e) {
          query_errors.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "query %s failed: %s\n", name, e.what());
        }
      }
    };
    {
      std::vector<std::jthread> clients;  // joined at scope exit
      for (int w = 0; w < threads; ++w) clients.emplace_back(client, w);
    }
    const sky::obs::MetricsSnapshot snap = engine.Metrics().Snapshot();
    const sky::obs::MetricValue* latency =
        snap.Find("sky_query_latency_seconds");
    std::printf(
        "round %d: served=%.0f hits=%.0f misses=%.0f errors=%zu p50=%.0fus "
        "p99=%.0fus\n",
        round + 1, snap.Value("sky_engine_queries_total"),
        snap.Value("sky_result_cache_hits_total"),
        snap.Value("sky_result_cache_misses_total"), query_errors.load(),
        latency != nullptr ? latency->histogram.Quantile(0.5) * 1e6 : 0.0,
        latency != nullptr ? latency->histogram.Quantile(0.99) * 1e6 : 0.0);
  }
  const double seconds = wall.Seconds();

  const sky::obs::MetricsSnapshot snap = engine.Metrics().Snapshot();
  const double served = snap.Value("sky_engine_queries_total");
  std::printf("served %.0f queries from %d threads in %.3f s (%.0f q/s)\n",
              served, threads, seconds, served / seconds);
  std::printf("returned points : %zu\n", returned_points.load());
  std::printf("result cache    : %.0f hits / %.0f misses (%.0f entries)\n",
              snap.Value("sky_result_cache_hits_total"),
              snap.Value("sky_result_cache_misses_total"),
              snap.Value("sky_result_cache_entries"));
  std::printf("shards pruned   : %zu (constraint boxes missed the shard)\n",
              shards_pruned.load());
  std::printf("query errors    : %zu (logged, service kept serving)\n",
              query_errors.load());
  // The cost model's per-shard decisions, read from the registry's
  // sky_engine_algorithm_total{algo=...} family instead of a hand-rolled
  // tally: the engine counts one bump per executed shard.
  std::printf("auto decisions  :");
  for (const sky::obs::MetricValue& m : snap.metrics) {
    if (m.name != "sky_engine_algorithm_total" || m.value == 0.0) continue;
    for (const auto& [key, label] : m.labels) {
      if (key == "algo") std::printf(" %s=%.0f", label.c_str(), m.value);
    }
  }
  std::printf("\n");

  // A dataset refresh: re-registering bumps the version, so the very next
  // identical query recomputes against the new data instead of the cache.
  engine.RegisterDataset(
      "flights", sky::GenerateSynthetic(sky::Distribution::kAnticorrelated, n,
                                        6, /*seed=*/43));
  const sky::QueryResult after = engine.Execute("flights", sky::QuerySpec{});
  std::printf("after refresh   : |sky(flights)|=%zu cache_hit=%s\n",
              after.ids.size(), after.cache_hit ? "true" : "false");

  if (!stats_json.empty()) {
    sky::obs::WriteTextFile(stats_json,
                            sky::obs::RenderJson(engine.Metrics().Snapshot()));
    std::printf("wrote metrics snapshot to %s\n", stats_json.c_str());
  }
  return 0;
}
