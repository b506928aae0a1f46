// Copyright (c) SkyBench-NG contributors.
// Perf smoke: a fixed, small (distribution x n x d) grid plus dominance
// kernel micro-measurements, emitted as machine-readable JSON so CI
// finally records a perf trajectory (BENCH_perf_smoke.json). Each entry
// carries {name, ns_per_op, dom_tests_per_s}; a second list, "ratios",
// holds each pair's ratio as its gate reads it. With --check the run also
// gates the batched-kernel win: at d <= 8 the one-vs-many tile scan must
// deliver >= 2x the dominance-test throughput of the one-vs-one AVX2
// kernel (skipped when the host lacks AVX2 — there is nothing to gate).
// A second gate holds the mutation path to its promise: a 64-row
// incremental insert must be >= 50x faster than rebuilding the same
// engine state from scratch (re-register + per-shard skyline bootstrap).
// A third gate covers the zonemap index: a 1%-box constrained query at
// anti n=200k d=8 served through the shard's index must be >= 2x faster
// than the materialize-view + sequential-scan baseline.
// A fourth gate covers the query-view load: for a 3%-wide one-dimension
// box over HouseLike n=500k at t=1, the RowSource load through a warm
// zonemap index must be >= 1.5x faster than MaterializeView followed by
// the WorkingSet copy of the view.
// A fifth gate covers the result cache's victim pick: a Put that evicts
// (plus a Get) into a full cache of 65536 entries must cost at most
// kCacheScaleBound times the same op at 128 entries.
//
//   perf_smoke [--out=PATH] [--check]
//
// Wall-clock entries are medians of --repeats runs (default 3). Every
// ratio pair alternates its two arms run by run, at least 5 runs each,
// reports each arm's median and gates on the median per-round ratio;
// kernel runs calibrate to ~0.05s of work. Numbers are only comparable
// on the same host, which is exactly what a CI trajectory needs.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <algorithm>
#include <memory>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/realistic.h"
#include "data/row_source.h"
#include "data/working_set.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"
#include "index/zonemap.h"
#include "parallel/executor.h"
#include "query/delta.h"
#include "query/engine.h"
#include "query/result_cache.h"
#include "query/shard_map.h"
#include "query/view.h"

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

/// The run of one arm with the median ns_per_op.
Entry MedianEntry(std::vector<Entry> runs) {
  std::sort(runs.begin(), runs.end(), [](const Entry& a, const Entry& b) {
    return a.ns_per_op < b.ns_per_op;
  });
  return runs[runs.size() / 2];
}

/// The two arms of a ratio gate: each arm's median run, and the ratio
/// the gate reads, first.ns_per_op / second.ns_per_op.
struct ArmPair {
  Entry first;
  Entry second;
  double ratio = 0.0;
};

/// Times the two arms of a ratio gate alternately, at least 5 runs each,
/// in ABBA order, so a slow stretch on a shared host hits both arms
/// alike. `arm(i)` performs and times one run of arm i. The ratio is the
/// median over rounds of the two arms' adjacent runs: on a host whose
/// speed flips between two levels, each arm's own median can land on
/// either level, while the ratio of runs taken side by side cannot.
template <typename Arm>
ArmPair AlternatePair(int repeats, Arm&& arm) {
  const int reps = std::max(repeats, 5);
  std::vector<Entry> runs[2];
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    for (const int i : {r % 2, 1 - r % 2}) runs[i].push_back(arm(i));
    ratios.push_back(runs[0].back().ns_per_op / runs[1].back().ns_per_op);
  }
  std::sort(ratios.begin(), ratios.end());
  return {MedianEntry(std::move(runs[0])), MedianEntry(std::move(runs[1])),
          ratios[ratios.size() / 2]};
}

/// Bound on the result cache's per-op cost at 65536 entries over its
/// cost at 128 (cache/put_evict). The O(log n) victim index measures
/// 5.4-6.6x on a 4-core x86 host, most of it cache misses that an O(1)
/// LRU list also pays (4.3x there); a linear victim scan measures ~4000x.
constexpr double kCacheScaleBound = 10.0;

/// Runs per arm for the <= 1.03x overhead gates (metrics, cancel): a 3%
/// bound needs a steadier median than the 5-run minimum gives.
constexpr int kOverheadRuns = 15;

/// Calibrates `body`, which performs one window-scan repetition and
/// returns the number of dominance tests it executed, to ~0.05s of work.
/// Returns a sampler that times one such batch and reports per-test
/// throughput.
template <typename Fn>
auto ScanSampler(const std::string& name, Fn body) {
  body();  // warm up
  WallTimer cal;
  body();
  const double once = std::max(cal.Seconds(), 1e-9);
  const int reps = std::max(1, static_cast<int>(0.05 / once));
  return [name, body, reps]() -> Entry {
    WallTimer timer;
    uint64_t dts = 0;
    for (int r = 0; r < reps; ++r) dts += body();
    const double elapsed = std::max(timer.Seconds(), 1e-12);
    const double ops = static_cast<double>(std::max<uint64_t>(dts, 1));
    return {name, elapsed / ops * 1e9, ops / elapsed};
  };
}

/// One-vs-one vs batched window-scan throughput at dimensionality d:
/// the exact Phase-I shape (each candidate scans the window until its
/// first dominator), counting the dominance tests actually performed.
/// The arms alternate (AlternatePair). Returns {one_vs_one, batched,
/// batched throughput over one-vs-one}.
ArmPair KernelPair(int d, int repeats) {
  constexpr size_t kWindow = 4096;
  constexpr size_t kCands = 512;
  Dataset window = RandomData(d, kWindow, 7);
  Dataset cands = RandomData(d, kCands, 11);
  TileBlock tiles(d, kWindow);
  tiles.AppendRows(window.Row(0), window.stride(), kWindow);
  DomCtx dom(d, window.stride(), /*use_simd=*/true);
  const std::string suffix = "/d=" + std::to_string(d);
  const auto one = ScanSampler("kernel/one_vs_one_avx2" + suffix, [&] {
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
  const auto batched = ScanSampler("kernel/batched_tile" + suffix, [&] {
    uint64_t dts = 0;
    for (size_t c = 0; c < kCands; ++c) {
      dom.DominatedByAny(cands.Row(c), tiles, kWindow, &dts);
    }
    return dts;
  });
  return AlternatePair(repeats, [&](int arm) {
    return arm == 0 ? one() : batched();
  });
}

/// Median-of-repeats wall clock for one algorithm cell of the fixed
/// grid, with dominance-test counting on.
Entry AlgoCell(Algorithm algo, Distribution dist, const char* dist_name,
               size_t n, int d, int repeats) {
  WorkloadSpec spec{dist, n, d, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);
  Options o;
  o.algorithm = algo;
  o.threads = 1;
  o.count_dts = true;
  const RunStats st = RunTimed(data, o, repeats, /*verify=*/false).stats;
  char name[128];
  std::snprintf(name, sizeof(name), "%s/%s/n=%zu/d=%d", AlgorithmName(algo),
                dist_name, n, d);
  const double secs = std::max(st.total_seconds, 1e-12);
  return {name, secs * 1e9,
          static_cast<double>(st.dominance_tests) / secs};
}

/// Incremental mutation vs full rebuild on the serving layer: a 64-row
/// InsertPoints batch repairs only the touched shards' maintained
/// skylines in place. Reproducing the same engine state from scratch
/// means re-registering the whole n-row dataset (shard build + sketches)
/// AND recomputing every shard's maintained skyline — that pair is the
/// baseline the delta path must beat by a wide margin. The arms alternate
/// (AlternatePair), each on its own engine, since inserts change the
/// state they run on. Returns {rebuild, incremental, speedup}; ns_per_op
/// is the whole operation.
ArmPair MutationPair(int repeats) {
  constexpr size_t kN = 200'000;
  constexpr int kD = 8;
  constexpr size_t kBatch = 64;
  WorkloadSpec spec{Distribution::kAnticorrelated, kN, kD, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);
  const Dataset batch = RandomData(kD, kBatch, 99);

  std::unique_ptr<SkylineEngine> engines[2];  // [rebuild, incremental]
  for (auto& engine : engines) {
    SkylineEngine::Config cfg;
    cfg.shards = 4;
    cfg.shard_policy = ShardPolicy::kMedianPivot;
    engine = std::make_unique<SkylineEngine>(cfg);
    engine->RegisterDataset("smoke", data.Clone());
  }
  // Warm-up batch: the first insert on each shard pays the one-time
  // skyline bootstrap; steady-state churn is what the row measures.
  engines[1]->InsertPoints("smoke", batch);

  char name[128];
  std::snprintf(name, sizeof(name), "engine/full_rebuild/anti/n=%zu/d=%d",
                kN, kD);
  const std::string rebuild_name = name;
  std::snprintf(name, sizeof(name),
                "engine/incremental_insert/anti/n=%zu/d=%d/batch=%zu", kN, kD,
                kBatch);
  const std::string insert_name = name;
  return AlternatePair(repeats, [&](int arm) {
    if (arm == 1) {
      WallTimer t;
      engines[1]->InsertPoints("smoke", batch);
      return Entry{insert_name, std::max(t.Seconds(), 1e-12) * 1e9, 0.0};
    }
    Dataset copy = data.Clone();  // clone outside the timed region
    WallTimer t;
    engines[0]->RegisterDataset("smoke", std::move(copy));
    const std::shared_ptr<const ShardMap> shards =
        engines[0]->FindShards("smoke");
    for (size_t s = 0; s < shards->shard_count(); ++s) {
      // The state the delta path maintains incrementally: without this,
      // the next mutation on a fresh registration pays the bootstrap.
      ComputeShardSkyline(shards->shard(s).rows());
    }
    return Entry{rebuild_name, std::max(t.Seconds(), 1e-12) * 1e9, 0.0};
  });
}

/// Metrics overhead on the serving hot path: the same engine-served query
/// with Config::metrics on vs off (the off engine skips every registry
/// update). The result cache is disabled so each Execute actually plans
/// and computes — a cache-hit-only loop would understate the per-query
/// instrument cost relative to real work. The arms alternate
/// (AlternatePair), at least kOverheadRuns runs each: the gate asserts a
/// <= 3% delta, tighter than typical single-run noise at this problem
/// size. Returns {metrics_on, metrics_off, overhead ratio}; ns_per_op is
/// one Execute call (median of runs).
ArmPair MetricsOverheadPair(int repeats) {
  constexpr size_t kN = 20'000;
  constexpr int kD = 8;
  WorkloadSpec spec{Distribution::kAnticorrelated, kN, kD, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);

  Options o;
  o.algorithm = Algorithm::kHybrid;
  o.threads = 1;
  std::unique_ptr<SkylineEngine> engines[2];  // [metrics on, off]
  for (int arm = 0; arm < 2; ++arm) {
    SkylineEngine::Config cfg;
    cfg.result_cache_capacity = 0;  // every Execute computes
    cfg.metrics = arm == 0;
    engines[arm] = std::make_unique<SkylineEngine>(cfg);
    engines[arm]->RegisterDataset("smoke", data.Clone());
    engines[arm]->Execute("smoke", QuerySpec{}, o);  // warm up
  }
  const std::string cell =
      "/anti/n=" + std::to_string(kN) + "/d=" + std::to_string(kD);
  const std::string names[2] = {"engine/metrics_on" + cell,
                                "engine/metrics_off" + cell};
  return AlternatePair(std::max(repeats, kOverheadRuns), [&](int arm) {
    WallTimer t;
    engines[arm]->Execute("smoke", QuerySpec{}, o);
    return Entry{names[arm], std::max(t.Seconds(), 1e-12) * 1e9, 0.0};
  });
}

/// Cooperative-cancellation overhead: the same engine-served query once
/// with no deadline (no token armed, checkpoints are a single untaken
/// branch) and once under a deadline far too generous to ever fire (a
/// token is armed, so every checkpoint actually polls the steady
/// clock). Q-Flow is the algorithm with the finest checkpoint cadence
/// (every alpha-sized window pass), making this the worst-case arm. Both
/// arms run on one engine and alternate (AlternatePair), at least
/// kOverheadRuns runs each, like the metrics pair. Returns {armed, off,
/// overhead ratio}; ns_per_op is one Execute call (median of runs).
ArmPair CancelOverheadPair(int repeats) {
  constexpr size_t kN = 20'000;
  constexpr int kD = 8;
  WorkloadSpec spec{Distribution::kAnticorrelated, kN, kD, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);

  SkylineEngine::Config cfg;
  cfg.result_cache_capacity = 0;  // every Execute computes
  SkylineEngine engine(cfg);
  engine.RegisterDataset("smoke", data.Clone());
  Options o[2];  // [armed, off]
  for (Options& opt : o) {
    opt.algorithm = Algorithm::kQFlow;
    opt.threads = 1;
  }
  o[0].deadline_ms = 1e9;
  o[1].deadline_ms = 0.0;
  for (const Options& opt : o) engine.Execute("smoke", QuerySpec{}, opt);
  const std::string cell =
      "/anti/n=" + std::to_string(kN) + "/d=" + std::to_string(kD);
  const std::string names[2] = {"engine/cancel_armed" + cell,
                                "engine/cancel_off" + cell};
  return AlternatePair(std::max(repeats, kOverheadRuns), [&](int arm) {
    WallTimer t;
    engine.Execute("smoke", QuerySpec{}, o[arm]);
    return Entry{names[arm], std::max(t.Seconds(), 1e-12) * 1e9, 0.0};
  });
}

/// Index-accelerated constrained skyline vs the non-indexed scan path:
/// the same engine-served query — anti n=200k d=8 under a 1%-selectivity
/// dim-0 box — once with --algo=zonemap (block AABB pruning over the
/// shard's clustered index) and once forcing the classic materialize-view
/// + sequential-scan skyline (SSkyline). The result cache is off and the
/// boxes differ per repeat, so every Execute plans and computes; the
/// warm-up query pays the one-time index build, leaving the rows to
/// measure steady-state serving. The arms alternate (AlternatePair), each
/// on its own engine. Returns {scan, zonemap, speedup}; ns_per_op is one
/// Execute call (median of runs).
ArmPair ZonemapPair(int repeats) {
  constexpr size_t kN = 200'000;
  constexpr int kD = 8;
  WorkloadSpec spec{Distribution::kAnticorrelated, kN, kD, 42};
  const Dataset& data = WorkloadCache::Instance().Get(spec);

  std::unique_ptr<SkylineEngine> engines[2];  // [scan, zonemap]
  Options o[2];
  o[0].algorithm = Algorithm::kSSkyline;
  o[1].algorithm = Algorithm::kZonemap;
  for (int arm = 0; arm < 2; ++arm) {
    SkylineEngine::Config cfg;
    cfg.result_cache_capacity = 0;  // every Execute computes
    engines[arm] = std::make_unique<SkylineEngine>(cfg);
    engines[arm]->RegisterDataset("smoke", data.Clone());
    o[arm].threads = 1;
    QuerySpec warm;
    warm.Constrain(0, 0.05f, 0.06f);
    engines[arm]->Execute("smoke", warm, o[arm]);  // builds the index
  }
  const std::string cell = "/anti/n=" + std::to_string(kN) +
                           "/d=" + std::to_string(kD) + "/box=1pct";
  const std::string names[2] = {"engine/scan_constrained" + cell,
                                "engine/zonemap_constrained" + cell};
  int runs[2] = {0, 0};  // run r of either arm queries box r
  return AlternatePair(repeats, [&](int arm) {
    QuerySpec q;
    const float lo = 0.10f + 0.01f * static_cast<float>(runs[arm]++);
    q.Constrain(0, lo, lo + 0.01f);
    WallTimer t;
    engines[arm]->Execute("smoke", q, o[arm]);
    return Entry{names[arm], std::max(t.Seconds(), 1e-12) * 1e9, 0.0};
  });
}

/// The working copy a constrained Q-Flow / Hybrid run starts from: a
/// 3%-wide dim-0 box over HouseLike n=500k d=6 at t=1. Arm 0 is the
/// two-pass path — MaterializeView box-tests every row, then the view is
/// copied into a WorkingSet; arm 1 is the RowSource load walking a warm
/// zonemap index (built outside the timed region), which skips disjoint
/// blocks and copies inside ones untested. The arms alternate
/// (AlternatePair) and the box moves per run. Returns {view_copy,
/// rowsource, speedup}; ns_per_op is one load.
ArmPair LoadPair(int repeats) {
  constexpr size_t kN = 500'000;
  const Dataset data = GenerateHouseLike(kN, 42);
  const ZoneMapIndex index = ZoneMapIndex::Build(data);
  Options serial;
  serial.threads = 1;
  Executor::TaskGroup group(nullptr, 1);
  const std::string cell =
      "/house/n=" + std::to_string(kN) + "/d=6/box=3pct/t=1";
  const std::string names[2] = {"load/view_copy" + cell,
                                "load/rowsource" + cell};
  int runs[2] = {0, 0};  // run r of either arm loads box r
  return AlternatePair(repeats, [&](int arm) {
    QuerySpec q;
    const float lo = 0.20f + 0.01f * static_cast<float>(runs[arm]++);
    q.Constrain(0, lo, lo + 0.03f);
    const QuerySpec canon = q.Canonicalize(data.dims());
    WallTimer t;
    if (arm == 0) {
      const QueryView view = MaterializeView(data, canon, serial);
      const WorkingSet ws = WorkingSet::Load(view.data, group);
    } else {
      const WorkingSet ws =
          WorkingSet::Load(RowSource(data, canon, &index), group);
    }
    const double ns = std::max(t.Seconds(), 1e-12) * 1e9;
    return Entry{names[arm], ns, 0.0};
  });
}

/// Result-cache victim pick: one op is a Put of a fresh key into a full
/// cache, which evicts the lowest-priority entry, then a Get of the key
/// put kLag ops earlier (a hit while it survives, bumping its priority and
/// the saved-seconds counter). Costs are log-uniform over 10 us .. 100 ms,
/// the span of real query computes. The arms are the same op stream at
/// two capacities; a victim index whose per-op cost grows with the entry
/// count shows as their ratio. The arms alternate (AlternatePair), each
/// on its own cache, filled before timing. Returns {cap=65536, cap=128,
/// per-op ratio}; ns_per_op is one Put + Get.
ArmPair CachePutEvictPair(int repeats) {
  constexpr size_t kCaps[2] = {65'536, 128};
  constexpr size_t kOps = 20'000;
  constexpr size_t kLag = 64;
  const int reps = std::max(repeats, 5);
  const size_t total = kCaps[0] + kOps * static_cast<size_t>(reps);
  std::vector<std::string> keys(total);
  std::vector<double> costs(total);
  Rng rng(5);
  for (size_t i = 0; i < total; ++i) {
    keys[i] = "v1|q" + std::to_string(i);
    costs[i] = 1e-5 * std::pow(1e4, rng.NextDouble());
  }
  const auto value = std::make_shared<const int>(0);
  std::unique_ptr<ResultCache<int>> caches[2];
  size_t next[2] = {0, 0};
  for (int arm = 0; arm < 2; ++arm) {
    caches[arm] = std::make_unique<ResultCache<int>>(kCaps[arm]);
    for (; next[arm] < kCaps[arm]; ++next[arm]) {
      caches[arm]->Put(keys[next[arm]], value, costs[next[arm]]);
    }
  }
  const std::string names[2] = {"cache/put_evict/cap=65536",
                                 "cache/put_evict/cap=128"};
  return AlternatePair(repeats, [&](int arm) {
    ResultCache<int>& cache = *caches[arm];
    size_t& i = next[arm];
    WallTimer t;
    for (size_t op = 0; op < kOps; ++op, ++i) {
      cache.Put(keys[i], value, costs[i]);
      cache.Get(keys[i - kLag]);
    }
    const double ns = std::max(t.Seconds(), 1e-12) * 1e9 / kOps;
    return Entry{names[arm], ns, 0.0};
  });
}

/// A pair's ratio as its gate reads it, named after the entry whose
/// printed line shows it.
struct Ratio {
  std::string name;
  double value = 0.0;
};

void WriteJson(const std::string& path, const std::vector<Entry>& entries,
               const std::vector<Ratio>& ratios) {
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
  std::fprintf(f, "  ],\n  \"ratios\": [\n");
  for (size_t i = 0; i < ratios.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.3f}%s\n",
                 ratios[i].name.c_str(), ratios[i].value,
                 i + 1 < ratios.size() ? "," : "");
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
  std::vector<Ratio> ratios;
  bool gate_ok = true;

  // ---- Kernel micro: one-vs-one AVX2 vs batched tile scan.
  for (const int d : {4, 8, 16}) {
    const auto [one, batched, ratio] = KernelPair(d, repeats);
    entries.push_back(one);
    entries.push_back(batched);
    ratios.push_back({batched.name, ratio});
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
      {Algorithm::kHybrid, Distribution::kAnticorrelated, "anti", 20000, 8},
      {Algorithm::kQFlow, Distribution::kAnticorrelated, "anti", 20000, 8},
  };
  for (const Cell& c : cells) {
    entries.push_back(
        AlgoCell(c.algo, c.dist, c.dist_name, c.n, c.d, repeats));
    const Entry& e = entries.back();
    std::printf("%-32s %10.0f ns/op  %10.3e tests/s\n", e.name.c_str(),
                e.ns_per_op, e.dom_tests_per_s);
  }

  // ---- Mutation path: incremental insert vs full re-registration.
  {
    const auto [reg, inc, speedup] = MutationPair(repeats);
    entries.push_back(inc);
    entries.push_back(reg);
    ratios.push_back({reg.name, speedup});
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
    const auto [scan, zm, speedup] = ZonemapPair(repeats);
    entries.push_back(zm);
    entries.push_back(scan);
    ratios.push_back({scan.name, speedup});
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

  // ---- Query-view load: RowSource through the index vs view + copy.
  {
    const auto [view_copy, load, speedup] = LoadPair(repeats);
    entries.push_back(load);
    entries.push_back(view_copy);
    ratios.push_back({view_copy.name, speedup});
    std::printf("%-48s %12.0f ns/op\n", load.name.c_str(), load.ns_per_op);
    std::printf("%-48s %12.0f ns/op  (rowsource %.2fx faster)\n",
                view_copy.name.c_str(), view_copy.ns_per_op, speedup);
    if (check && speedup < 1.5) {
      std::fprintf(stderr,
                   "perf_smoke: GATE FAILED: RowSource load only %.2fx the "
                   "view + copy path (need >= 1.5x)\n",
                   speedup);
      gate_ok = false;
    }
  }

  // ---- Result cache: Put-with-eviction at two capacities.
  {
    const auto [large, small, ratio] = CachePutEvictPair(repeats);
    entries.push_back(small);
    entries.push_back(large);
    ratios.push_back({large.name, ratio});
    std::printf("%-48s %12.1f ns/op\n", small.name.c_str(), small.ns_per_op);
    std::printf("%-48s %12.1f ns/op  (%.2fx cap=128)\n", large.name.c_str(),
                large.ns_per_op, ratio);
    if (check && ratio > kCacheScaleBound) {
      std::fprintf(stderr,
                   "perf_smoke: GATE FAILED: result-cache Put at 65536 "
                   "entries %.2fx its cost at 128 (need <= %.1fx)\n",
                   ratio, kCacheScaleBound);
      gate_ok = false;
    }
  }

  // ---- Observability overhead: metrics-on vs metrics-off serving.
  {
    const auto [on, off, ratio] = MetricsOverheadPair(repeats);
    entries.push_back(on);
    entries.push_back(off);
    ratios.push_back({on.name, ratio});
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
    const auto [armed, off, ratio] = CancelOverheadPair(repeats);
    entries.push_back(armed);
    entries.push_back(off);
    ratios.push_back({armed.name, ratio});
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

  WriteJson(out, entries, ratios);
  std::printf("perf_smoke: wrote %zu entries to %s\n", entries.size(),
              out.c_str());
  if (!gate_ok) return 1;
  return 0;
}

}  // namespace
}  // namespace sky

int main(int argc, char** argv) { return sky::Main(argc, argv); }
