// Copyright (c) SkyBench-NG contributors.
// The four workloads: load generation, timed phases and the correctness
// gate. Every client is closed-loop (its next call goes out only after the
// previous one returned), all load comes from this one process, and the
// data, op streams and write payloads are derived from --seed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <set>
#include <thread>

#include "common/timer.h"
#include "core/skyline.h"
#include "data/generator.h"
#include "data/realistic.h"
#include "e2e.h"
#include "parallel/thread_pool.h"
#include "zipf.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

// Workload sizes. Changing any of these changes what the benchmark
// measures: re-baseline (see README.md) after touching them.
constexpr size_t kBatchRows = 100'000;
constexpr int kBatchDims = 8;
constexpr size_t kServeRows = 500'000;
constexpr size_t kSmokeRows = 20'000;
constexpr size_t kServeShards = 4;
constexpr size_t kUniverse = 50'000;
// The spec universe is part of the workload's definition, like a fixed
// query log: its boxes sit at fixed quantiles of each seed's data. A
// seeded universe put different specs in the Zipf head on every seed, and
// the head's mix alone moved serve_mixed's throughput by 40% between
// seeds.
constexpr uint64_t kUniverseSeed = 0x5eed;
constexpr double kZipfTheta = 0.99;
constexpr size_t kUniqueSpecs = 20'000;  // more than any run can consume
constexpr double kWriteFraction = 0.05;
constexpr size_t kWriteBatch = 64;
// Set-up is timed over at least kMinRegistrations registrations and
// kMinSetupSeconds of registering, so a cheap (unsharded) registration
// still gets enough repeats for a steady median.
constexpr size_t kMinRegistrations = 5;
constexpr double kMinSetupSeconds = 0.5;
constexpr size_t kSmokeOpsPerClient = 200;
constexpr size_t kSmokeWarmupOps = kSmokeOpsPerClient / 20;
constexpr size_t kMinBatchCycles = 3;
constexpr size_t kSlices = 5;
constexpr size_t kSmokeCycles = 5;
// Correctness gate and tail-percentile sample floors: p99 needs >= 1000
// reads and write p90 >= 100 writes to have ten samples beyond them.
constexpr size_t kVerifySamples = 160;
constexpr size_t kMinVerified = 128;
constexpr size_t kMinReads = 1000;
constexpr size_t kMinWrites = 100;
constexpr size_t kDirectVerifyMaxRows = 20'000;
constexpr size_t kReplaySpecs = 256;
constexpr const char* kDataset = "data";

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Untimed lead-in of each phase: caches fill and lazy state (maintained
/// shard skylines, zonemap indexes) gets built before timing starts.
double WarmupSeconds(const Args& args) { return 0.1 * args.seconds; }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct SetupCost {
  double seconds = 0.0;  ///< median RegisterDataset wall time
  uint64_t registrations = 0;
  /// Peak RSS once the data is generated and registered the first time,
  /// before repeated registrations churn the allocator.
  double rss_mib = 0.0;
};

/// Repeated RegisterDataset calls on clones of `source` (cloning
/// untimed); the last registration serves.
SetupCost TimedRegistrations(sky::SkylineEngine& engine,
                             const sky::Dataset& source, SpanLog* log,
                             uint64_t* request,
                             const Clock::time_point epoch) {
  std::vector<double> walls;
  double total = 0.0;
  double rss_mib = 0.0;
  while (walls.size() < kMinRegistrations || total < kMinSetupSeconds) {
    sky::Dataset copy = source.Clone();
    const Clock::time_point t0 = Clock::now();
    engine.RegisterDataset(kDataset, std::move(copy));
    const Clock::time_point t1 = Clock::now();
    walls.push_back(Seconds(t0, t1));
    total += walls.back();
    if (walls.size() == 1) rss_mib = PeakRssMiB();
    if (log != nullptr) {
      log->Add(Span{"RegisterDataset", (*request)++, -1, 0,
                    Seconds(epoch, t0), Seconds(epoch, t1),
                    {{"rows", std::to_string(source.count())}}});
    }
  }
  return SetupCost{Median(walls), walls.size(), rss_mib};
}

/// End-to-end timing of one phase's timed window.
struct Timing {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t ops = 0;
};

std::vector<sky::PointId> Sorted(std::vector<sky::PointId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---- batch_scaling ---------------------------------------------------------

struct Cell {
  const char* name;  // metric stem, e.g. "hybrid.t1"
  sky::Algorithm algo;
  int threads;
};

struct BatchPhase {
  std::vector<double> cycle_ms;
  std::vector<double> cycle_end;  // seconds since the timed window opened
  std::vector<std::vector<double>> cell_ms;  // [cell][call]
  std::vector<std::vector<sky::RunStats>> cell_stats;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

BatchPhase RunBatchPhase(const sky::Dataset& data,
                         const std::vector<Cell>& cells,
                         const std::vector<sky::PointId>& reference,
                         const Args& args, bool traced, SpanLog* log,
                         Clock::time_point epoch, uint64_t* request,
                         Report& report) {
  BatchPhase out;
  out.cell_ms.resize(cells.size());
  out.cell_stats.resize(cells.size());
  // Cycle 0 is the untimed warm-up; the timed window opens when it ends.
  // Cell order rotates every cycle so no cell always runs right after the
  // same neighbour.
  Clock::time_point timed_start = Clock::now();
  for (size_t cycle = 0;; ++cycle) {
    const double elapsed = Seconds(timed_start, Clock::now());
    const size_t timed = cycle == 0 ? 0 : cycle - 1;
    if (args.smoke ? timed >= kSmokeCycles
                   : elapsed >= args.seconds && timed >= kMinBatchCycles) {
      break;
    }
    double cycle_ms = 0.0;
    bool ok = true;
    for (size_t i = 0; i < cells.size(); ++i) {
      const size_t c = (i + cycle) % cells.size();
      sky::Options opts;
      opts.algorithm = cells[c].algo;
      opts.threads = cells[c].threads;
      opts.count_dts = traced;
      const Clock::time_point t0 = Clock::now();
      sky::Result r;
      try {
        r = sky::ComputeSkyline(data, opts);
      } catch (const std::exception& e) {
        ok = false;
        report.Fail(std::string("ComputeSkyline threw: ") + e.what());
      }
      const Clock::time_point t1 = Clock::now();
      const double ms = Seconds(t0, t1) * 1e3;
      cycle_ms += ms;
      if (traced) {
        log->Add(Span{"ComputeSkyline", *request, -1, 0, Seconds(epoch, t0),
                      Seconds(epoch, t1),
                      {{"algo", sky::AlgorithmName(cells[c].algo)},
                       {"threads", std::to_string(cells[c].threads)},
                       {"members", std::to_string(r.skyline.size())}}});
      }
      if (ok && Sorted(std::move(r.skyline)) != reference) {
        ok = false;
        report.Fail(std::string("batch_scaling: ") + cells[c].name +
                    " differs from the BSkyTree reference");
      }
      if (cycle > 0) {
        out.cell_ms[c].push_back(ms);
        out.cell_stats[c].push_back(r.stats);
      }
    }
    ++*request;
    if (cycle == 0) {
      timed_start = Clock::now();
      continue;
    }
    ++out.attempted;
    if (!ok) ++out.failed;
    out.cycle_ms.push_back(cycle_ms);
    out.cycle_end.push_back(Seconds(timed_start, Clock::now()));
  }
  return out;
}

/// A batch phase holds about a dozen cycles, too few for a tail
/// percentile: over the whole window p99 is the one slowest cycle, whose
/// spread across seeds was 0.20. So the window is cut into kSlices equal
/// slices by completion time and p50/p99 are medians over the slices. The
/// rate is the cycles completed over the whole window, answer checks
/// included.
Timing BatchTiming(const BatchPhase& p) {
  Timing t;
  t.ops = p.cycle_end.size();
  if (t.ops == 0) return t;
  const double window = p.cycle_end.back();
  t.ops_per_s = static_cast<double>(t.ops) / window;
  const double width = window / static_cast<double>(kSlices);
  std::vector<std::vector<double>> slices(kSlices);
  for (size_t i = 0; i < t.ops; ++i) {
    const size_t k = static_cast<size_t>(p.cycle_end[i] / width);
    slices[std::min(k, kSlices - 1)].push_back(p.cycle_ms[i]);
  }
  std::vector<double> p50, p99;
  for (const std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    p50.push_back(Percentile(slice, 50));
    p99.push_back(Percentile(slice, 99));
  }
  t.p50_ms = Median(p50);
  t.p99_ms = Median(p99);
  return t;
}

// ---- serving -------------------------------------------------------------

/// A timed read kept for the correctness gate.
struct Sample {
  uint64_t spec = 0;
  std::vector<sky::PointId> ids;
  std::vector<uint32_t> counts;
};

struct ServePhase {
  std::vector<double> read_s;
  std::vector<double> write_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> ends;     // completion time of every timed op
  std::vector<double> latency;  // parallel to `ends`, seconds
  size_t queue_depth_max = 0;
  // Engine counters when the timed window opens and after the last op.
  EngineCounters before;
  EngineCounters after;
  std::vector<Sample> samples;
  std::vector<uint64_t> miss_specs;  // specs of timed cache-miss reads
  std::vector<TracedRead> traced;
  std::vector<SpanLog> logs;
};

struct ServeSetup {
  const std::vector<sky::QuerySpec>* specs = nullptr;
  const ZipfGenerator* zipf = nullptr;  // null for serve_unique
  bool mixed = false;
  int clients = 1;
  int query_threads = 1;
  size_t rows = 0;  // registered row count, for delete id ranges
};

ServePhase RunServePhase(sky::SkylineEngine& engine, const ServeSetup& setup,
                         const Args& args, bool traced,
                         Clock::time_point epoch, uint64_t request_base) {
  struct ClientOut {
    ServePhase part;
    uint64_t seen_reads = 0;
    std::string error;
  };
  std::vector<ClientOut> outs(static_cast<size_t>(setup.clients));
  const size_t reservoir =
      (kVerifySamples + static_cast<size_t>(setup.clients) - 1) /
      static_cast<size_t>(setup.clients);
  // Clients start together once all are spawned, warm up, and stop
  // issuing at `end`; no client outlives this function.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(50);
  const Clock::time_point timed_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(WarmupSeconds(args)));
  const Clock::time_point end =
      timed_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(args.seconds));

  const auto client = [&](int c) {
    ClientOut& me = outs[static_cast<size_t>(c)];
    ServePhase& part = me.part;
    SpanLog log;
    OpStream stream(args.seed, c, setup.zipf, setup.mixed);
    sky::Rng sample_rng(args.seed * 0x9e3779b97f4a7c15ULL +
                        static_cast<uint64_t>(c));
    sky::Options opts;
    opts.threads = setup.query_threads;
    opts.trace = traced;
    uint64_t request = request_base + (static_cast<uint64_t>(c) << 40);
    size_t ops = 0;
    std::this_thread::sleep_until(start);
    for (;;) {
      if (Clock::now() >= end) break;
      if (args.smoke && ops >= kSmokeOpsPerClient) break;
      const Op op = stream.Next();
      if (op.kind == OpKind::kRead && op.spec >= setup.specs->size()) break;
      ++ops;
      // Write payloads are generated before the clock starts.
      sky::Dataset rows;
      std::vector<sky::PointId> ids;
      if (op.kind == OpKind::kInsert) {
        rows = sky::GenerateHouseLike(kWriteBatch, op.arg);
      } else if (op.kind == OpKind::kDelete) {
        sky::Rng id_rng(op.arg);
        for (size_t i = 0; i < kWriteBatch; ++i) {
          ids.push_back(
              static_cast<sky::PointId>(id_rng.NextBounded(setup.rows / 2)));
        }
      }
      sky::QueryResult result;
      bool ok = true;
      const Clock::time_point t0 = Clock::now();
      try {
        switch (op.kind) {
          case OpKind::kRead:
            result = engine.Execute(kDataset, (*setup.specs)[op.spec], opts);
            ok = result.status == sky::Status::kOk;
            break;
          case OpKind::kInsert:
            engine.InsertPoints(kDataset, rows);
            break;
          case OpKind::kDelete:
            engine.DeletePoints(kDataset, ids);
            break;
        }
      } catch (const std::exception& e) {
        ok = false;
        if (me.error.empty()) me.error = e.what();
      }
      const Clock::time_point t1 = Clock::now();
      if (traced) {
        static constexpr const char* kNames[] = {"Execute", "InsertPoints",
                                                 "DeletePoints"};
        const int span = log.Add(Span{kNames[static_cast<int>(op.kind)],
                                      request, -1, c, Seconds(epoch, t0),
                                      Seconds(epoch, t1), {}});
        if (result.trace != nullptr) {
          log.AttachEngineTrace(*result.trace, span);
        }
      }
      ++request;
      // Untimed warm-up: the first 10% of the phase's duration, or in
      // smoke runs (which are op-capped) the first 5% of the ops.
      if (args.smoke ? ops <= kSmokeWarmupOps : t0 < timed_start) continue;
      part.queue_depth_max = std::max(part.queue_depth_max,
                                      engine.executor().Counters().queue_depth);
      ++part.attempted;
      if (!ok) {
        ++part.failed;
        if (me.error.empty()) {
          me.error = std::string("status ") + sky::StatusName(result.status);
        }
      }
      const double latency = Seconds(t0, t1);
      part.ends.push_back(Seconds(epoch, t1));
      part.latency.push_back(latency);
      if (op.kind != OpKind::kRead) {
        part.write_s.push_back(latency);
        continue;
      }
      part.read_s.push_back(latency);
      if (!ok) continue;
      if (traced) part.traced.push_back(TracedRead{latency, result.trace});
      if (!result.cache_hit) part.miss_specs.push_back(op.spec);
      // Reservoir sample (Algorithm R) of this client's successful reads.
      ++me.seen_reads;
      Sample s{op.spec, std::move(result.ids),
               std::move(result.dominator_counts)};
      if (part.samples.size() < reservoir) {
        part.samples.push_back(std::move(s));
      } else {
        const uint64_t j = sample_rng.NextBounded(me.seen_reads);
        if (j < reservoir) part.samples[j] = std::move(s);
      }
    }
    part.logs.push_back(std::move(log));
  };

  // The counter window opens with the timed window. Smoke runs end on an
  // op count, possibly before timed_start, so theirs opens at the start
  // and includes the warm-up ops.
  ServePhase out;
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] {
      std::this_thread::sleep_until(args.smoke ? start : timed_start);
      out.before = ReadCounters(engine);
    });
    for (int c = 0; c < setup.clients; ++c) threads.emplace_back(client, c);
  }  // joined here, and on the way out if spawning throws
  out.after = ReadCounters(engine);
  for (ClientOut& me : outs) {
    ServePhase& p = me.part;
    if (!me.error.empty()) {
      std::fprintf(stderr, "client error: %s\n", me.error.c_str());
    }
    out.read_s.insert(out.read_s.end(), p.read_s.begin(), p.read_s.end());
    out.write_s.insert(out.write_s.end(), p.write_s.begin(), p.write_s.end());
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.ends.insert(out.ends.end(), p.ends.begin(), p.ends.end());
    out.latency.insert(out.latency.end(), p.latency.begin(), p.latency.end());
    out.queue_depth_max = std::max(out.queue_depth_max, p.queue_depth_max);
    std::move(p.samples.begin(), p.samples.end(),
              std::back_inserter(out.samples));
    out.miss_specs.insert(out.miss_specs.end(), p.miss_specs.begin(),
                          p.miss_specs.end());
    std::move(p.traced.begin(), p.traced.end(),
              std::back_inserter(out.traced));
    std::move(p.logs.begin(), p.logs.end(), std::back_inserter(out.logs));
  }
  return out;
}

/// Percentiles over every timed op of the window. With thousands of ops
/// this leaves the most samples beyond p99; medians over time slices
/// spread more across seeds (0.13 against 0.10 for serve_mixed p99).
Timing ServeTiming(const ServePhase& p) {
  Timing t;
  t.ops = p.ends.size();
  if (t.ops == 0) return t;
  const auto [lo, hi] = std::minmax_element(p.ends.begin(), p.ends.end());
  t.ops_per_s = *hi > *lo ? static_cast<double>(t.ops) / (*hi - *lo) : 0.0;
  std::vector<double> latency_ms;
  for (const double seconds : p.latency) latency_ms.push_back(seconds * 1e3);
  t.p50_ms = Percentile(latency_ms, 50);
  t.p99_ms = Percentile(std::move(latency_ms), 99);
  return t;
}

size_t RowsInBox(const sky::Dataset& data,
                 const std::vector<sky::DimConstraint>& box) {
  size_t n = 0;
  for (size_t i = 0; i < data.count(); ++i) {
    const sky::Value* row = data.Row(i);
    bool in = true;
    for (const sky::DimConstraint& c : box) {
      in &= row[c.dim] >= c.lo && row[c.dim] <= c.hi;
    }
    n += in;
  }
  return n;
}

/// (id, dominator count) pairs in comparison order: ranked results keep
/// their order, unranked ones are sorted.
using Answer = std::vector<std::pair<sky::PointId, uint32_t>>;

Answer Normalize(const std::vector<sky::PointId>& ids,
                 const std::vector<uint32_t>& counts, bool ranked) {
  Answer a(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    a[i] = {ids[i], i < counts.size() ? counts[i] : ~0u};
  }
  if (!ranked) std::sort(a.begin(), a.end());
  return a;
}

/// True when `answer` is what the oracle on `data` gives for `spec`:
/// views up to kDirectVerifyMaxRows rows use the brute-force VerifyQuery,
/// larger ones a single-threaded BSkyTree run compared on id set,
/// dominator counts and top-k order.
bool MatchesOracle(const sky::Dataset& data, const sky::QuerySpec& spec,
                   const Answer& answer) {
  const sky::QuerySpec canon = spec.Canonicalize(data.dims());
  if (RowsInBox(data, canon.constraints) <= kDirectVerifyMaxRows) {
    sky::QueryResult r;
    for (const auto& [id, count] : answer) {
      r.ids.push_back(id);
      r.dominator_counts.push_back(count);
    }
    return sky::VerifyQuery(data, spec, r);
  }
  sky::Options opts;
  opts.algorithm = sky::Algorithm::kBSkyTree;
  opts.threads = 1;
  const sky::QueryResult ref = sky::RunQuery(data, spec, opts);
  return answer == Normalize(ref.ids, ref.dominator_counts, canon.top_k > 0);
}

/// The correctness gate: every sampled answer against the oracle on
/// `data`, each distinct (spec, answer) pair checked once.
void Verify(const sky::Dataset& data, const std::vector<sky::QuerySpec>& specs,
            const std::vector<Sample>& samples, int threads,
            Report& report) {
  std::map<std::pair<uint64_t, Answer>, uint64_t> weight;
  for (const Sample& s : samples) {
    ++weight[{s.spec, Normalize(s.ids, s.counts, specs[s.spec].top_k > 0)}];
  }
  const std::vector<std::pair<std::pair<uint64_t, Answer>, uint64_t>> checks(
      weight.begin(), weight.end());
  std::vector<uint8_t> ok(checks.size(), 0);
  sky::ThreadPool pool(threads);
  pool.ParallelFor(checks.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto& [spec, answer] = checks[i].first;
      ok[i] = MatchesOracle(data, specs[spec], answer);
    }
  });
  for (size_t i = 0; i < checks.size(); ++i) {
    const uint64_t spec = checks[i].first.first;
    if (ok[i]) {
      report.verified += checks[i].second;
    } else {
      report.failed += checks[i].second;
      report.Fail("wrong answer for spec " +
                  specs[spec].Canonicalize(data.dims()).CanonicalKey());
    }
  }
}

/// The end-to-end metrics of a timed phase that just ended.
void ReportEndToEnd(const Timing& t, const SetupCost& setup, Report& report) {
  report.Set("ops_per_s", t.ops_per_s, "ops/s", t.ops);
  report.Set("p50_ms", t.p50_ms, "ms", t.ops);
  report.Set("p99_ms", t.p99_ms, "ms", t.ops);
  report.Set("setup_s", setup.seconds, "s", setup.registrations);
  report.Set("setup_rss_mb", setup.rss_mib, "MiB");
  report.Set("client.peak_rss_mb", PeakRssMiB(), "MiB");
}

void ReportClientLatencies(const ServePhase& p, Report& report) {
  report.Set("client.reads", static_cast<double>(p.read_s.size()), "count");
  report.Set("client.writes", static_cast<double>(p.write_s.size()),
             "count");
  report.Set("client.read_p50_ms", Percentile(p.read_s, 50) * 1e3, "ms",
             p.read_s.size());
  report.Set("client.read_p99_ms", Percentile(p.read_s, 99) * 1e3, "ms",
             p.read_s.size());
  report.Set("client.write_p50_ms", Percentile(p.write_s, 50) * 1e3, "ms",
             p.write_s.size());
  report.Set("client.write_p90_ms", Percentile(p.write_s, 90) * 1e3, "ms",
             p.write_s.size());
}

}  // namespace

// ---- Inputs --------------------------------------------------------------

Quantiles::Quantiles(const sky::Dataset& data) {
  constexpr size_t kSample = 1024;
  sorted_.resize(static_cast<size_t>(data.dims()));
  const size_t n = data.count();
  for (size_t i = 0; i < kSample && n > 0; ++i) {
    const sky::Value* row = data.Row(i * (n - 1) / (kSample - 1));
    for (int j = 0; j < data.dims(); ++j) {
      sorted_[static_cast<size_t>(j)].push_back(row[j]);
    }
  }
  for (auto& column : sorted_) std::sort(column.begin(), column.end());
}

sky::Value Quantiles::At(int dim, double q) const {
  const auto& column = sorted_[static_cast<size_t>(dim)];
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(column.size() - 1);
  return column[static_cast<size_t>(std::lround(pos))];
}

sky::QuerySpec MakeSpec(sky::Rng& rng, const Quantiles& q, int dims) {
  static constexpr double kWidths[] = {0.01, 0.03, 0.10, 0.30};
  sky::QuerySpec spec;
  // A quarter of the specs are box-only (all min) so the zonemap direct
  // path runs; the rest draw min 60% / max 30% / ignore 10% per dimension
  // and keep at least two dimensions.
  const bool box_only = rng.NextDouble() < 0.25;
  if (!box_only) {
    for (int kept = 0; kept < 2;) {
      spec.preferences.clear();
      kept = 0;
      for (int j = 0; j < dims; ++j) {
        const double r = rng.NextDouble();
        const sky::Preference p = r < 0.6   ? sky::Preference::kMin
                                  : r < 0.9 ? sky::Preference::kMax
                                            : sky::Preference::kIgnore;
        spec.preferences.push_back(p);
        kept += p != sky::Preference::kIgnore;
      }
    }
  }
  // 15% of all specs are unconstrained (none of them box-only); the rest
  // box one dimension (70%) or two distinct ones (30%), each box a
  // quantile range of width 1, 3, 10 or 30%.
  int boxes = rng.NextDouble() < 0.7 ? 1 : 2;
  if (!box_only && rng.NextDouble() < 0.15 / 0.75) boxes = 0;
  const int first = static_cast<int>(rng.NextBounded(
      static_cast<uint64_t>(dims)));
  for (int b = 0; b < boxes; ++b) {
    const int dim =
        b == 0 ? first
               : (first + 1 +
                  static_cast<int>(rng.NextBounded(
                      static_cast<uint64_t>(dims - 1)))) % dims;
    const double w = kWidths[rng.NextBounded(4)];
    const double lo = rng.NextDouble() * (1.0 - w);
    spec.Constrain(dim, q.At(dim, lo), q.At(dim, lo + w));
  }
  if (rng.NextDouble() < 0.10) spec.band_k = 2;
  if (rng.NextDouble() < 0.20) spec.top_k = 10;
  return spec;
}

std::vector<sky::QuerySpec> MakeUniverse(uint64_t seed, const Quantiles& q,
                                         int dims, size_t size) {
  sky::Rng rng(seed ^ 0x7a1f3c5e9b2d4861ULL);
  std::vector<sky::QuerySpec> specs;
  specs.reserve(size);
  for (size_t i = 0; i < size; ++i) specs.push_back(MakeSpec(rng, q, dims));
  return specs;
}

std::vector<sky::QuerySpec> MakeUniqueSpecs(uint64_t seed, const Quantiles& q,
                                            int dims, size_t count) {
  sky::Rng rng(seed ^ 0x1b873593cc9e2d51ULL);
  std::set<std::string> keys;
  std::vector<sky::QuerySpec> specs;
  while (specs.size() < count) {
    sky::QuerySpec spec = MakeSpec(rng, q, dims);
    if (keys.insert(spec.Canonicalize(dims).CanonicalKey()).second) {
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

OpStream::OpStream(uint64_t seed, int client, const ZipfGenerator* zipf,
                   bool mixed)
    : zipf_(zipf),
      mixed_(mixed),
      rng_(seed * 0xbf58476d1ce4e5b9ULL +
           0x94d049bb133111ebULL * static_cast<uint64_t>(client + 1)) {}

Op OpStream::Next() {
  Op op;
  if (zipf_ == nullptr) {
    op.spec = issued_++;
    return op;
  }
  ++issued_;
  if (mixed_ && rng_.NextDouble() < kWriteFraction) {
    op.kind = rng_.NextDouble() < 0.5 ? OpKind::kInsert : OpKind::kDelete;
    op.arg = rng_.Next();
    return op;
  }
  op.spec = zipf_->Next(rng_);
  return op;
}

std::vector<std::string> SelfTest() {
  std::vector<std::string> failures;
  const ZipfGenerator zipf(kUniverse, kZipfTheta);
  constexpr size_t kDraws = 2'000'000;
  std::vector<uint64_t> hits(10, 0);
  sky::Rng rng(12345);
  for (size_t i = 0; i < kDraws; ++i) {
    const uint64_t r = zipf.Next(rng);
    if (r < hits.size()) ++hits[r];
  }
  for (size_t r = 0; r < hits.size(); ++r) {
    const double expect = zipf.Probability(r) * kDraws;
    const double err = std::fabs(static_cast<double>(hits[r]) / expect - 1.0);
    if (err > 0.05) {
      failures.push_back("zipf rank " + std::to_string(r + 1) +
                         " frequency off by " + std::to_string(err * 100) +
                         "%");
    }
  }

  const auto ops = [&](uint64_t seed) {
    OpStream s(seed, 1, &zipf, true);
    std::vector<std::tuple<int, uint64_t, uint64_t>> v;
    for (int i = 0; i < 10'000; ++i) {
      const Op op = s.Next();
      v.emplace_back(static_cast<int>(op.kind), op.spec, op.arg);
    }
    return v;
  };
  if (ops(7) != ops(7)) failures.push_back("op stream not deterministic");
  if (ops(7) == ops(8)) failures.push_back("op stream ignores the seed");

  const sky::Dataset data = sky::GenerateHouseLike(kSmokeRows, 3);
  const Quantiles q(data);
  const auto keys = [&](const std::vector<sky::QuerySpec>& specs) {
    std::vector<std::string> k;
    for (const sky::QuerySpec& s : specs) {
      try {
        k.push_back(s.Canonicalize(data.dims()).CanonicalKey());
      } catch (const std::exception& e) {
        failures.push_back(std::string("spec fails Canonicalize: ") +
                           e.what());
      }
    }
    return k;
  };
  const auto universe = keys(MakeUniverse(7, q, data.dims(), kUniverse));
  if (universe != keys(MakeUniverse(7, q, data.dims(), kUniverse))) {
    failures.push_back("spec universe not deterministic");
  }
  const auto unique = keys(MakeUniqueSpecs(7, q, data.dims(), 5000));
  if (std::set<std::string>(unique.begin(), unique.end()).size() !=
      unique.size()) {
    failures.push_back("unique specs repeat");
  }
  return failures;
}

int ClientThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

// ---- Workload runners ----------------------------------------------------

void RunBatchScaling(const Args& args, Report& report) {
  const int n_threads = ClientThreads();
  const Clock::time_point epoch = Clock::now();
  uint64_t request = 0;
  SpanLog setup_log;
  const sky::Dataset source = sky::GenerateSynthetic(
      sky::Distribution::kAnticorrelated, args.smoke ? kSmokeRows : kBatchRows,
      kBatchDims, args.seed);
  sky::SkylineEngine::Config config;
  config.executor_threads = 1;
  sky::SkylineEngine engine(config);
  const SetupCost setup =
      TimedRegistrations(engine, source, &setup_log, &request, epoch);
  const std::shared_ptr<const sky::Dataset> data = engine.Find(kDataset);

  sky::Options ref_opts;
  ref_opts.algorithm = sky::Algorithm::kBSkyTree;
  ref_opts.threads = 1;
  const std::vector<sky::PointId> reference =
      Sorted(sky::ComputeSkyline(*data, ref_opts).skyline);

  const std::vector<Cell> cells = {
      {"hybrid.t1", sky::Algorithm::kHybrid, 1},
      {"hybrid.tN", sky::Algorithm::kHybrid, n_threads},
      {"qflow.t1", sky::Algorithm::kQFlow, 1},
      {"qflow.tN", sky::Algorithm::kQFlow, n_threads},
  };
  const BatchPhase plain = RunBatchPhase(*data, cells, reference, args, false,
                                         nullptr, epoch, &request, report);
  report.attempted = plain.attempted;
  report.failed = plain.failed;
  report.verified = plain.attempted - plain.failed;
  ReportEndToEnd(BatchTiming(plain), setup, report);
  std::map<std::string, double> cell_median;
  for (size_t c = 0; c < cells.size(); ++c) {
    cell_median[cells[c].name] = Median(plain.cell_ms[c]);
    report.Set(std::string("core.") + cells[c].name + "_ms",
               cell_median[cells[c].name], "ms", plain.cell_ms[c].size());
  }
  if (!args.traced) return;

  report.Set("query.register_s", setup.seconds, "s", setup.registrations);
  for (const char* algo : {"hybrid", "qflow"}) {
    const std::string a(algo);
    const double tn = cell_median[a + ".tN"];
    report.Set("core." + a + ".speedup",
               tn > 0.0 ? cell_median[a + ".t1"] / tn : 0.0, "x");
  }
  SpanLog log;
  const BatchPhase traced = RunBatchPhase(*data, cells, reference, args, true,
                                          &log, epoch, &request, report);
  report.failed += traced.failed;
  report.attempted += traced.attempted;
  report.verified += traced.attempted - traced.failed;
  const double plain_rate = BatchTiming(plain).ops_per_s;
  report.Set("obs.trace_overhead",
             plain_rate > 0.0 ? BatchTiming(traced).ops_per_s / plain_rate
                              : 0.0,
             "ratio", traced.cycle_ms.size());
  double tests = 0.0, skips = 0.0, dom_seconds = 0.0;
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> p1, p2, serial, dts;
    for (const sky::RunStats& s : traced.cell_stats[c]) {
      p1.push_back(s.phase1_seconds);
      p2.push_back(s.phase2_seconds);
      serial.push_back(s.init_seconds + s.prefilter_seconds +
                       s.pivot_seconds + s.compress_seconds +
                       s.other_seconds);
      dts.push_back(static_cast<double>(s.dominance_tests));
      tests += static_cast<double>(s.dominance_tests);
      skips += static_cast<double>(s.mask_filter_hits);
      dom_seconds += s.phase1_seconds + s.phase2_seconds;
    }
    const std::string stem = std::string("core.") + cells[c].name;
    const size_t n = p1.size();
    report.Set(stem + ".phase1_s", Median(p1), "s", n);
    report.Set(stem + ".phase2_s", Median(p2), "s", n);
    report.Set(stem + ".serial_s", Median(serial), "s", n);
    if (cells[c].threads == 1) {
      const std::string algo = cells[c].algo == sky::Algorithm::kHybrid
                                   ? "core.hybrid"
                                   : "core.qflow";
      report.Set(algo + ".dominance_tests", Median(dts), "count", n);
    }
  }
  report.Set("dominance.tests_per_s",
             dom_seconds > 0.0 ? tests / dom_seconds : 0.0, "1/s");
  report.Set("dominance.mask_skip_ratio",
             tests + skips > 0.0 ? skips / (tests + skips) : 0.0, "ratio");
  if (!args.out_dir.empty()) {
    WriteChromeTrace(args.out_dir + "/trace_batch_scaling.json",
                     {setup_log, log});
  }
}

void RunServing(const Args& args, Report& report) {
  const std::string& w = args.workload;
  const bool unique = w == "serve_unique";
  const int n_threads = ClientThreads();
  const Clock::time_point epoch = Clock::now();
  uint64_t request = 0;
  SpanLog setup_log;

  const sky::Dataset source = sky::GenerateHouseLike(
      args.smoke ? kSmokeRows : kServeRows, args.seed);
  const Quantiles q(source);
  const std::vector<sky::QuerySpec> specs =
      unique ? MakeUniqueSpecs(args.seed, q, source.dims(), kUniqueSpecs)
             : MakeUniverse(kUniverseSeed, q, source.dims(), kUniverse);
  const ZipfGenerator zipf(kUniverse, kZipfTheta);
  ServeSetup setup;
  setup.specs = &specs;
  setup.zipf = unique ? nullptr : &zipf;
  setup.mixed = w == "serve_mixed";
  setup.clients = unique ? 1 : n_threads;
  setup.query_threads = unique ? n_threads : 1;
  setup.rows = source.count();

  sky::SkylineEngine::Config config;
  config.shards = unique ? 1 : kServeShards;
  config.shard_policy = sky::ShardPolicy::kMedianPivot;
  config.auto_algorithm = true;
  config.executor_threads = n_threads;
  sky::SkylineEngine engine(config);
  const SetupCost setup_cost =
      TimedRegistrations(engine, source, &setup_log, &request, epoch);

  const ServePhase plain = RunServePhase(engine, setup, args, false, epoch,
                                         uint64_t{1} << 32);
  ReportEndToEnd(ServeTiming(plain), setup_cost, report);
  report.attempted = plain.attempted;
  report.failed = plain.failed;
  if (plain.failed > 0) {
    report.Fail(std::to_string(plain.failed) + " ops failed");
  }
  if (!args.smoke && plain.read_s.size() < kMinReads) {
    report.Fail("only " + std::to_string(plain.read_s.size()) +
                " timed reads; p99 needs " + std::to_string(kMinReads));
  }
  if (!args.smoke && setup.mixed && plain.write_s.size() < kMinWrites) {
    report.Fail("only " + std::to_string(plain.write_s.size()) +
                " timed writes; p90 needs " + std::to_string(kMinWrites));
  }

  // Correctness gate, untimed. serve_mixed re-issues its sample after the
  // writers stopped, so each answer (cache hits included) is checked
  // against the final state: a surviving cache entry must not be stale.
  std::vector<Sample> samples = plain.samples;
  if (setup.mixed) {
    sky::Options opts;
    opts.threads = setup.query_threads;
    for (Sample& s : samples) {
      const sky::QueryResult r = engine.Execute(kDataset, specs[s.spec], opts);
      if (r.status != sky::Status::kOk) {
        report.Fail(std::string("re-issued read: ") +
                    sky::StatusName(r.status));
      }
      s.ids = r.ids;
      s.counts = r.dominator_counts;
    }
  }
  const std::shared_ptr<const sky::Dataset> truth = engine.Find(kDataset);
  Verify(*truth, specs, samples, n_threads, report);
  const size_t floor = args.smoke ? std::min(kMinVerified, samples.size())
                                  : kMinVerified;
  if (samples.size() < floor || report.verified < floor) {
    report.Fail("verified " + std::to_string(report.verified) +
                " sampled reads; need " + std::to_string(kMinVerified));
  }
  if (!args.traced) return;

  ReportClientLatencies(plain, report);
  ReportCounterDeltas(plain.before, plain.after, plain.queue_depth_max,
                      report);
  report.Set("query.register_s", setup_cost.seconds, "s",
             setup_cost.registrations);

  // Traced phase: a fresh registration (cold caches, unmutated data) and
  // the same op streams, with benchmark spans around every call and the
  // engine's own span tree under each Execute.
  engine.RegisterDataset(kDataset, source.Clone());
  const ServePhase traced =
      RunServePhase(engine, setup, args, true, epoch, uint64_t{2} << 32);
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  if (traced.failed > 0) {
    report.Fail(std::to_string(traced.failed) + " traced ops failed");
  }
  const double plain_rate = ServeTiming(plain).ops_per_s;
  report.Set("obs.trace_overhead",
             plain_rate > 0.0 ? ServeTiming(traced).ops_per_s / plain_rate
                              : 0.0,
             "ratio", traced.attempted);
  ReportStageShares(traced.traced, report);
  if (!args.out_dir.empty()) {
    std::vector<SpanLog> logs = {setup_log};
    logs.insert(logs.end(), traced.logs.begin(), traced.logs.end());
    WriteChromeTrace(args.out_dir + "/trace_" + w + ".json", logs);
  }

  // Replay a seeded sample of distinct cache-miss specs through the layer
  // functions, single-threaded, against the current shard decomposition.
  std::vector<uint64_t> misses = plain.miss_specs;
  std::sort(misses.begin(), misses.end());
  misses.erase(std::unique(misses.begin(), misses.end()), misses.end());
  sky::Rng pick(args.seed ^ 0x2545f4914f6cdd1dULL);
  for (size_t i = misses.size(); i > 1; --i) {
    std::swap(misses[i - 1], misses[pick.NextBounded(i)]);
  }
  misses.resize(std::min(misses.size(), kReplaySpecs));
  std::vector<sky::QuerySpec> replay;
  for (const uint64_t s : misses) replay.push_back(specs[s]);
  std::shared_ptr<const sky::ShardMap> map = engine.FindShards(kDataset);
  if (map == nullptr) {
    map = std::make_shared<const sky::ShardMap>(sky::ShardMap::Build(
        *engine.Find(kDataset), 1, sky::ShardPolicy::kMedianPivot));
  }
  ReplayLayers(*map, replay, setup.query_threads, report);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

}  // namespace e2e
