// Copyright (c) SkyBench-NG contributors.
// Perf smoke: a fixed, small (distribution x n x d) grid plus dominance
// kernel micro-measurements, emitted as machine-readable JSON so CI
// finally records a perf trajectory (BENCH_perf_smoke.json). Each entry
// carries {name, ns_per_op, dom_tests_per_s}. With --check the run also
// gates the batched-kernel win: at d <= 8 the one-vs-many tile scan must
// deliver >= 2x the dominance-test throughput of the one-vs-one AVX2
// kernel (skipped when the host lacks AVX2 — there is nothing to gate).
// A second gate holds the mutation path to its promise: a 64-row
// incremental insert must be >= 50x faster than rebuilding the same
// engine state from scratch (re-register + per-shard skyline bootstrap).
// A third gate covers the zonemap index: a 1%-box constrained query at
// anti n=200k d=8 served through the cached index must be >= 2x faster
// than the materialize-view + sequential-scan baseline. A fourth gate
// holds the shared work-stealing executor's win: 8 clients serving
// sharded 1%-box queries through one persistent executor must deliver
// >= 1.3x the throughput of the per-query-ThreadPool baseline. The
// algorithm layer has a gate too: batched Hybrid at anti n=20000 d=8
// must run >= 1.5x faster than its own use_batch=false path (skipped
// without AVX2).
//
//   perf_smoke [--out=PATH] [--check]
//
// Wall-clock entries are medians of --repeats runs (default 3); kernel
// entries auto-calibrate to ~0.2s of work. Numbers are only comparable
// on the same host, which is exactly what a CI trajectory needs.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <algorithm>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"
#include "parallel/thread_pool.h"
#include "query/delta.h"
#include "query/engine.h"
#include "query/shard_map.h"

namespace sky {
namespace {

struct Entry {
  std::string name;
  double ns_per_op = 0.0;        // wall time per unit of work
  double dom_tests_per_s = 0.0;  // dominance tests per second
};

Dataset RandomData(int d, size_t n, uint64_t seed) {
  Dataset data(d, n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) data.MutableRow(i)[j] = rng.NextFloat();
  }
  return data;
}

/// Time `body`, which performs one window-scan repetition and returns
/// the number of dominance tests it executed; auto-calibrates the
/// repetition count to ~0.2s and reports per-test throughput.
template <typename Fn>
Entry TimeScan(const std::string& name, Fn&& body) {
  body();  // warm up
  WallTimer cal;
  body();
  const double once = std::max(cal.Seconds(), 1e-9);
  const int reps = std::max(1, static_cast<int>(0.2 / once));
  WallTimer timer;
  uint64_t dts = 0;
  for (int r = 0; r < reps; ++r) dts += body();
  const double elapsed = std::max(timer.Seconds(), 1e-12);
  const double ops = static_cast<double>(std::max<uint64_t>(dts, 1));
  return {name, elapsed / ops * 1e9, ops / elapsed};
}

/// One-vs-one vs batched window-scan throughput at dimensionality d:
/// the exact Phase-I shape (each candidate scans the window until its
/// first dominator), counting the dominance tests actually performed.
std::pair<Entry, Entry> KernelPair(int d) {
  constexpr size_t kWindow = 4096;
  constexpr size_t kCands = 512;
  Dataset window = RandomData(d, kWindow, 7);
  Dataset cands = RandomData(d, kCands, 11);
  TileBlock tiles(d, kWindow);
  tiles.AppendRows(window.Row(0), window.stride(), kWindow);
  DomCtx dom(d, window.stride(), /*use_simd=*/true);
  const std::string suffix = "/d=" + std::to_string(d);
  Entry one = TimeScan("kernel/one_vs_one_avx2" + suffix, [&]() -> uint64_t {
    uint64_t dts = 0;
    for (size_t c = 0; c < kCands; ++c) {
      const Value* q = cands.Row(c);
      for (size_t s = 0; s < kWindow; ++s) {
        ++dts;
        if (dom.Dominates(window.Row(s), q)) break;
      }
    }
    return dts;
  });
  Entry batched = TimeScan("kernel/batched_tile" + suffix,
                           [&]() -> uint64_t {
                             uint64_t dts = 0;
                             for (size_t c = 0; c < kCands; ++c) {
                               dom.DominatedByAny(cands.Row(c), tiles,
                                                  kWindow, &dts);
                             }
                             return dts;
                           });
  return {one, batched};
}

/// Median-of-repeats wall clock for one algorithm cell of the fixed
/// grid, with dominance-test counting on. `use_batch=false` runs the
/// one-vs-one paths and appends "/nobatch" to the name.
Entry AlgoCell(Algorithm algo, Distribution dist, const char* dist_name,
               size_t n, int d, bool use_batch, int repeats) {
  WorkloadSpec spec{dist, n, d, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);
  Options o;
  o.algorithm = algo;
  o.threads = 1;
  o.count_dts = true;
  o.use_batch = use_batch;
  const RunStats st = RunTimed(data, o, repeats, /*verify=*/false).stats;
  char name[128];
  std::snprintf(name, sizeof(name), "%s/%s/n=%zu/d=%d%s",
                AlgorithmName(algo), dist_name, n, d,
                use_batch ? "" : "/nobatch");
  const double secs = std::max(st.total_seconds, 1e-12);
  return {name, secs * 1e9,
          static_cast<double>(st.dominance_tests) / secs};
}

/// Batched Hybrid vs the same run with use_batch=false (anti n=20000
/// d=8, t=1). The arms alternate run by run, so a slow stretch on a
/// shared host hits both; each entry is the median of at least 5 runs.
/// Returns {batched, nobatch}.
std::pair<Entry, Entry> HybridBatchPair(int repeats) {
  const int reps = std::max(repeats, 5);
  std::vector<Entry> arms[2];  // [use_batch]
  for (int r = 0; r < reps; ++r) {
    for (const bool batch : {true, false}) {
      arms[batch].push_back(AlgoCell(Algorithm::kHybrid,
                                     Distribution::kAnticorrelated, "anti",
                                     20000, 8, batch, /*repeats=*/1));
    }
  }
  const auto median = [](std::vector<Entry> v) {
    std::sort(v.begin(), v.end(), [](const Entry& a, const Entry& b) {
      return a.ns_per_op < b.ns_per_op;
    });
    return v[v.size() / 2];
  };
  return {median(arms[1]), median(arms[0])};
}

/// Incremental mutation vs full rebuild on the serving layer: a 64-row
/// InsertPoints batch repairs only the touched shards' maintained
/// skylines in place. Reproducing the same engine state from scratch
/// means re-registering the whole n-row dataset (shard build + sketches)
/// AND recomputing every shard's maintained skyline — that pair is the
/// baseline the delta path must beat by a wide margin.
/// Returns {incremental, rebuild}; ns_per_op is the whole operation.
std::pair<Entry, Entry> MutationPair(int repeats) {
  constexpr size_t kN = 200'000;
  constexpr int kD = 8;
  constexpr size_t kBatch = 64;
  WorkloadSpec spec{Distribution::kAnticorrelated, kN, kD, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);
  const Dataset batch = RandomData(kD, kBatch, 99);

  SkylineEngine::Config cfg;
  cfg.shards = 4;
  cfg.shard_policy = ShardPolicy::kMedianPivot;
  SkylineEngine engine(cfg);
  engine.RegisterDataset("smoke", data.Clone());
  // Warm-up batch: the first insert on each shard pays the one-time
  // skyline bootstrap; steady-state churn is what the row measures.
  engine.InsertPoints("smoke", batch);

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const int reps = std::max(repeats, 3);
  std::vector<double> insert_s;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    engine.InsertPoints("smoke", batch);
    insert_s.push_back(std::max(t.Seconds(), 1e-12));
  }
  std::vector<double> reg_s;
  for (int r = 0; r < reps; ++r) {
    Dataset copy = data.Clone();  // clone outside the timed region
    WallTimer t;
    engine.RegisterDataset("smoke", std::move(copy));
    const std::shared_ptr<const ShardMap> shards =
        engine.FindShards("smoke");
    for (size_t s = 0; s < shards->shard_count(); ++s) {
      // The state the delta path maintains incrementally: without this,
      // the next mutation on a fresh registration pays the bootstrap.
      ComputeShardSkyline(shards->shard(s).rows());
    }
    reg_s.push_back(std::max(t.Seconds(), 1e-12));
  }
  char name[128];
  std::snprintf(name, sizeof(name),
                "engine/incremental_insert/anti/n=%zu/d=%d/batch=%zu", kN, kD,
                kBatch);
  Entry inc{name, median(insert_s) * 1e9, 0.0};
  std::snprintf(name, sizeof(name), "engine/full_rebuild/anti/n=%zu/d=%d",
                kN, kD);
  Entry reg{name, median(reg_s) * 1e9, 0.0};
  return {inc, reg};
}

/// Metrics overhead on the serving hot path: the same engine-served query
/// with Config::metrics on vs off (the off engine skips every registry
/// update). The result cache is disabled so each Execute actually plans
/// and computes — a cache-hit-only loop would understate the per-query
/// instrument cost relative to real work. Returns {metrics_on,
/// metrics_off}; ns_per_op is one Execute call (median of repeats).
std::pair<Entry, Entry> MetricsOverheadPair(int repeats) {
  constexpr size_t kN = 20'000;
  constexpr int kD = 8;
  WorkloadSpec spec{Distribution::kAnticorrelated, kN, kD, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  // Median of at least 5: the gate asserts a <= 3% delta, tighter than
  // typical single-run CI noise at this problem size.
  const int reps = std::max(repeats, 5);
  const auto measure = [&](bool metrics) {
    SkylineEngine::Config cfg;
    cfg.result_cache_capacity = 0;  // every Execute computes
    cfg.metrics = metrics;
    SkylineEngine engine(cfg);
    engine.RegisterDataset("smoke", data.Clone());
    Options o;
    o.algorithm = Algorithm::kHybrid;
    o.threads = 1;
    engine.Execute("smoke", QuerySpec{}, o);  // warm up
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
      WallTimer t;
      engine.Execute("smoke", QuerySpec{}, o);
      secs.push_back(std::max(t.Seconds(), 1e-12));
    }
    return median(secs);
  };
  char name[128];
  std::snprintf(name, sizeof(name), "engine/metrics_on/anti/n=%zu/d=%d", kN,
                kD);
  Entry on{name, measure(true) * 1e9, 0.0};
  std::snprintf(name, sizeof(name), "engine/metrics_off/anti/n=%zu/d=%d", kN,
                kD);
  Entry off{name, measure(false) * 1e9, 0.0};
  return {on, off};
}

/// Cooperative-cancellation overhead: the same engine-served query once
/// with no deadline (no token armed, checkpoints are a single untaken
/// branch) and once under a deadline far too generous to ever fire (a
/// token is armed, so every checkpoint actually polls the steady
/// clock). Q-Flow is the algorithm with the finest checkpoint cadence
/// (every alpha-sized window pass), making this the worst-case arm.
/// Returns {armed, off}; ns_per_op is one Execute call (median of
/// repeats).
std::pair<Entry, Entry> CancelOverheadPair(int repeats) {
  constexpr size_t kN = 20'000;
  constexpr int kD = 8;
  WorkloadSpec spec{Distribution::kAnticorrelated, kN, kD, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const int reps = std::max(repeats, 5);
  const auto measure = [&](double deadline_ms) {
    SkylineEngine::Config cfg;
    cfg.result_cache_capacity = 0;  // every Execute computes
    SkylineEngine engine(cfg);
    engine.RegisterDataset("smoke", data.Clone());
    Options o;
    o.algorithm = Algorithm::kQFlow;
    o.threads = 1;
    o.deadline_ms = deadline_ms;
    engine.Execute("smoke", QuerySpec{}, o);  // warm up
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
      WallTimer t;
      engine.Execute("smoke", QuerySpec{}, o);
      secs.push_back(std::max(t.Seconds(), 1e-12));
    }
    return median(secs);
  };
  char name[128];
  std::snprintf(name, sizeof(name), "engine/cancel_armed/anti/n=%zu/d=%d",
                kN, kD);
  Entry armed{name, measure(/*deadline_ms=*/1e9) * 1e9, 0.0};
  std::snprintf(name, sizeof(name), "engine/cancel_off/anti/n=%zu/d=%d", kN,
                kD);
  Entry off{name, measure(/*deadline_ms=*/0.0) * 1e9, 0.0};
  return {armed, off};
}

/// Index-accelerated constrained skyline vs the non-indexed scan path:
/// the same engine-served query — anti n=200k d=8 under a 1%-selectivity
/// dim-0 box — once with --algo=zonemap (block AABB pruning over the
/// cached clustered index) and once forcing the classic materialize-view
/// + sequential-scan skyline (SSkyline). The result cache is off and the
/// boxes differ per repeat, so every Execute plans and computes; the
/// warm-up query pays the one-time index build, leaving the rows to
/// measure steady-state serving. Returns {zonemap, scan}; ns_per_op is
/// one Execute call (median of repeats).
std::pair<Entry, Entry> ZonemapPair(int repeats) {
  constexpr size_t kN = 200'000;
  constexpr int kD = 8;
  WorkloadSpec spec{Distribution::kAnticorrelated, kN, kD, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const int reps = std::max(repeats, 5);
  const auto measure = [&](Algorithm algo) {
    SkylineEngine::Config cfg;
    cfg.result_cache_capacity = 0;  // every Execute computes
    SkylineEngine engine(cfg);
    engine.RegisterDataset("smoke", data.Clone());
    Options o;
    o.algorithm = algo;
    o.threads = 1;
    QuerySpec warm;
    warm.Constrain(0, 0.05f, 0.06f);
    engine.Execute("smoke", warm, o);  // builds and caches the index
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
      QuerySpec q;
      const float lo = 0.10f + 0.01f * static_cast<float>(r);
      q.Constrain(0, lo, lo + 0.01f);
      WallTimer t;
      engine.Execute("smoke", q, o);
      secs.push_back(std::max(t.Seconds(), 1e-12));
    }
    return median(secs);
  };
  char name[128];
  std::snprintf(name, sizeof(name),
                "engine/zonemap_constrained/anti/n=%zu/d=%d/box=1pct", kN,
                kD);
  Entry zm{name, measure(Algorithm::kZonemap) * 1e9, 0.0};
  std::snprintf(name, sizeof(name),
                "engine/scan_constrained/anti/n=%zu/d=%d/box=1pct", kN, kD);
  Entry scan{name, measure(Algorithm::kSSkyline) * 1e9, 0.0};
  return {zm, scan};
}

/// Concurrent sharded serving: 8 client threads hammer one engine with
/// ~0.1%-box queries over an 8-shard anti n=200k d=8 registration, once
/// with Config::shared_executor off (the seed's per-query ThreadPool:
/// every request spawns and joins its own workers) and once on the
/// engine's persistent work-stealing executor (requests submit capped
/// task groups). Steady state: the result cache is off so every Execute
/// plans, computes and merges, while the fixed box set keeps the shard
/// view cache warm — the rows time the serving stack, not the one-time
/// O(n) view filters, which are identical in both arms. Returns
/// {pooled, executor}; ns_per_op is one served query (aggregate wall
/// time / queries, median of repeats).
std::pair<Entry, Entry> ConcurrentServingPair(int repeats) {
  constexpr size_t kN = 200'000;
  constexpr int kD = 8;
  constexpr size_t kShards = 8;
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 8;
  WorkloadSpec spec{Distribution::kAnticorrelated, kN, kD, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);

  // Narrow boxes: the point-lookup-flavoured end of the serving mix,
  // where per-query compute is small and the per-request scheduling cost
  // the two arms differ in is actually visible.
  std::vector<QuerySpec> boxes;
  for (int b = 0; b < 4; ++b) {
    QuerySpec q;
    const float lo = 0.10f + 0.01f * static_cast<float>(b);
    q.Constrain(0, lo, lo + 0.001f);
    boxes.push_back(q);
  }

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const int reps = std::max(repeats, 3);
  const auto measure = [&](bool shared) {
    SkylineEngine::Config cfg;
    cfg.result_cache_capacity = 0;  // every Execute computes and merges
    cfg.view_cache_capacity = 64;   // all shard x box views stay warm
    cfg.shards = kShards;
    cfg.shard_policy = ShardPolicy::kMedianPivot;
    cfg.shared_executor = shared;
    SkylineEngine engine(cfg);
    engine.RegisterDataset("smoke", data.Clone());
    Options warm;
    warm.threads = static_cast<int>(kShards);
    for (const QuerySpec& box : boxes) {
      engine.Execute("smoke", box, warm);  // builds the per-shard views
    }
    std::vector<double> per_query_s;
    for (int rep = 0; rep < reps; ++rep) {
      ThreadPool client_pool(kClients);
      WallTimer t;
      client_pool.RunOnAll([&](int client) {
        Options o;
        o.threads = static_cast<int>(kShards);  // the request's ask: a cap
                                                // vs threads to spawn
        for (int q = 0; q < kQueriesEach; ++q) {
          engine.Execute("smoke", boxes[(client + q) % boxes.size()], o);
        }
      });
      per_query_s.push_back(std::max(t.Seconds(), 1e-12) /
                            (kClients * kQueriesEach));
    }
    return median(per_query_s);
  };
  char name[128];
  std::snprintf(name, sizeof(name),
                "engine/concurrent_serving_pooled/anti/n=%zu/d=%d/shards=%zu/"
                "clients=%d",
                kN, kD, kShards, kClients);
  Entry pooled{name, measure(false) * 1e9, 0.0};
  std::snprintf(name, sizeof(name),
                "engine/concurrent_serving_executor/anti/n=%zu/d=%d/"
                "shards=%zu/clients=%d",
                kN, kD, kShards, kClients);
  Entry shared{name, measure(true) * 1e9, 0.0};
  return {pooled, shared};
}

void WriteJson(const std::string& path, const std::vector<Entry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_smoke: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"skybench-perf-smoke-v1\",\n");
  std::fprintf(f, "  \"avx2\": %s,\n", CpuHasAvx2() ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"dom_tests_per_s\": %.3e}%s\n",
                 entries[i].name.c_str(), entries[i].ns_per_op,
                 entries[i].dom_tests_per_s,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  std::string out = "BENCH_perf_smoke.json";
  bool check = false;
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--repeats=", 10) == 0) {
      repeats = std::max(1, std::atoi(argv[i] + 10));
    } else {
      std::fprintf(stderr,
                   "usage: perf_smoke [--out=PATH] [--check] "
                   "[--repeats=R]\n");
      return 2;
    }
  }

  std::vector<Entry> entries;
  bool gate_ok = true;

  // ---- Kernel micro: one-vs-one AVX2 vs batched tile scan.
  for (const int d : {4, 8, 16}) {
    const auto [one, batched] = KernelPair(d);
    entries.push_back(one);
    entries.push_back(batched);
    const double ratio = batched.dom_tests_per_s / one.dom_tests_per_s;
    std::printf("%-32s %10.1f ns/op  %10.3e tests/s\n", one.name.c_str(),
                one.ns_per_op, one.dom_tests_per_s);
    std::printf("%-32s %10.1f ns/op  %10.3e tests/s  (%.2fx)\n",
                batched.name.c_str(), batched.ns_per_op,
                batched.dom_tests_per_s, ratio);
    if (check && CpuHasAvx2() && d <= 8 && ratio < 2.0) {
      std::fprintf(stderr,
                   "perf_smoke: GATE FAILED at d=%d: batched kernel "
                   "%.2fx one-vs-one (need >= 2x)\n",
                   d, ratio);
      gate_ok = false;
    }
  }

  // ---- Fixed algorithm grid (fig12/fig13-flavoured Hybrid cells plus a
  // Q-Flow reference), small enough for CI, large enough that the
  // window scans dominate.
  struct Cell {
    Algorithm algo;
    Distribution dist;
    const char* dist_name;
    size_t n;
    int d;
  };
  const Cell cells[] = {
      {Algorithm::kHybrid, Distribution::kIndependent, "indep", 20000, 4},
      {Algorithm::kHybrid, Distribution::kIndependent, "indep", 20000, 8},
      {Algorithm::kHybrid, Distribution::kIndependent, "indep", 50000, 8},
      {Algorithm::kQFlow, Distribution::kAnticorrelated, "anti", 20000, 8},
  };
  for (const Cell& c : cells) {
    entries.push_back(AlgoCell(c.algo, c.dist, c.dist_name, c.n, c.d,
                               /*use_batch=*/true, repeats));
    const Entry& e = entries.back();
    std::printf("%-32s %10.0f ns/op  %10.3e tests/s\n", e.name.c_str(),
                e.ns_per_op, e.dom_tests_per_s);
  }

  // ---- Algorithm layer: batched Hybrid (the fused masked-range M(S)
  // scans) vs its own one-vs-one path. Skipped without AVX2, like the
  // kernel gate.
  {
    const auto [batched, nobatch] = HybridBatchPair(repeats);
    entries.push_back(batched);
    entries.push_back(nobatch);
    const double speedup = nobatch.ns_per_op / batched.ns_per_op;
    std::printf("%-32s %10.0f ns/op  %10.3e tests/s\n", nobatch.name.c_str(),
                nobatch.ns_per_op, nobatch.dom_tests_per_s);
    std::printf("%-32s %10.0f ns/op  %10.3e tests/s  (%.2fx)\n",
                batched.name.c_str(), batched.ns_per_op,
                batched.dom_tests_per_s, speedup);
    if (check && CpuHasAvx2() && speedup < 1.5) {
      std::fprintf(stderr,
                   "perf_smoke: GATE FAILED: batched Hybrid only %.2fx its "
                   "one-vs-one path at anti n=20000 d=8 (need >= 1.5x)\n",
                   speedup);
      gate_ok = false;
    }
  }

  // ---- Mutation path: incremental insert vs full re-registration.
  {
    const auto [inc, reg] = MutationPair(repeats);
    entries.push_back(inc);
    entries.push_back(reg);
    const double speedup = reg.ns_per_op / inc.ns_per_op;
    std::printf("%-48s %12.0f ns/op\n", inc.name.c_str(), inc.ns_per_op);
    std::printf("%-48s %12.0f ns/op  (insert %.0fx faster)\n",
                reg.name.c_str(), reg.ns_per_op, speedup);
    if (check && speedup < 50.0) {
      std::fprintf(stderr,
                   "perf_smoke: GATE FAILED: incremental insert only "
                   "%.1fx faster than re-registration (need >= 50x)\n",
                   speedup);
      gate_ok = false;
    }
  }

  // ---- Zonemap index: constrained serving vs the non-indexed scan.
  {
    const auto [zm, scan] = ZonemapPair(repeats);
    entries.push_back(zm);
    entries.push_back(scan);
    const double speedup = scan.ns_per_op / zm.ns_per_op;
    std::printf("%-48s %12.0f ns/op\n", zm.name.c_str(), zm.ns_per_op);
    std::printf("%-48s %12.0f ns/op  (zonemap %.2fx faster)\n",
                scan.name.c_str(), scan.ns_per_op, speedup);
    if (check && speedup < 2.0) {
      std::fprintf(stderr,
                   "perf_smoke: GATE FAILED: zonemap-served constrained "
                   "query only %.2fx the scan baseline (need >= 2x)\n",
                   speedup);
      gate_ok = false;
    }
  }

  // ---- Shared executor: concurrent sharded serving vs per-query pools.
  {
    const auto [pooled, shared] = ConcurrentServingPair(repeats);
    entries.push_back(pooled);
    entries.push_back(shared);
    const double speedup = pooled.ns_per_op / shared.ns_per_op;
    std::printf("%-48s %12.0f ns/op\n", pooled.name.c_str(),
                pooled.ns_per_op);
    std::printf("%-48s %12.0f ns/op  (executor %.2fx faster)\n",
                shared.name.c_str(), shared.ns_per_op, speedup);
    if (check && speedup < 1.3) {
      std::fprintf(stderr,
                   "perf_smoke: GATE FAILED: shared-executor concurrent "
                   "serving only %.2fx the per-query-pool baseline "
                   "(need >= 1.3x)\n",
                   speedup);
      gate_ok = false;
    }
  }

  // ---- Observability overhead: metrics-on vs metrics-off serving.
  {
    const auto [on, off] = MetricsOverheadPair(repeats);
    entries.push_back(on);
    entries.push_back(off);
    const double ratio = on.ns_per_op / off.ns_per_op;
    std::printf("%-48s %12.0f ns/op\n", off.name.c_str(), off.ns_per_op);
    std::printf("%-48s %12.0f ns/op  (%.3fx baseline)\n", on.name.c_str(),
                on.ns_per_op, ratio);
    if (check && ratio > 1.03) {
      std::fprintf(stderr,
                   "perf_smoke: GATE FAILED: metrics-on serving %.3fx "
                   "metrics-off (need <= 1.03x)\n",
                   ratio);
      gate_ok = false;
    }
  }

  // ---- Cancellation overhead: armed deadline token vs no token.
  {
    const auto [armed, off] = CancelOverheadPair(repeats);
    entries.push_back(armed);
    entries.push_back(off);
    const double ratio = armed.ns_per_op / off.ns_per_op;
    std::printf("%-48s %12.0f ns/op\n", off.name.c_str(), off.ns_per_op);
    std::printf("%-48s %12.0f ns/op  (%.3fx baseline)\n", armed.name.c_str(),
                armed.ns_per_op, ratio);
    if (check && ratio > 1.03) {
      std::fprintf(stderr,
                   "perf_smoke: GATE FAILED: deadline-armed serving %.3fx "
                   "the no-deadline baseline (need <= 1.03x)\n",
                   ratio);
      gate_ok = false;
    }
  }

  WriteJson(out, entries);
  std::printf("perf_smoke: wrote %zu entries to %s\n", entries.size(),
              out.c_str());
  if (!gate_ok) return 1;
  return 0;
}

}  // namespace
}  // namespace sky

int main(int argc, char** argv) { return sky::Main(argc, argv); }
