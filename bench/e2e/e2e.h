// Copyright (c) SkyBench-NG contributors.
// End-to-end benchmark: types shared by the workload runners
// (workloads.cc), the per-layer breakdown (layers.cc) and the entry
// point (main.cc). See README.md in this directory for the workloads,
// the metric glossary and how to read a trace.
#ifndef SKY_BENCH_E2E_E2E_H_
#define SKY_BENCH_E2E_E2E_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "query/engine.h"
#include "query/query_spec.h"

namespace e2e {

/// Command-line settings of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  ///< timed phase length
  bool traced = false;    ///< also run the traced phase and the replay
  bool smoke = false;     ///< tiny sizes, op-capped, for CI
  std::string out_dir;    ///< result_<w>.json / trace_<w>.json land here
  std::string commit = "unknown";
};

/// One reported number with its unit and the observations behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Everything one workload run measured, keyed by metric name.
struct Report {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;        ///< non-ok status, exception, or mismatch
  uint64_t verified = 0;      ///< oracle checks that passed
  bool correct = true;        ///< every check passed and samples sufficed
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// A span recorded by the benchmark around a public call, or copied from
/// the engine's own Options::trace tree. Times are seconds since the run
/// epoch; `parent` indexes the same log (-1 = root of its request).
struct Span {
  std::string name;
  uint64_t request = 0;
  int parent = -1;
  int tid = 0;
  double start = 0.0;
  double end = 0.0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Per-thread in-memory span log; merged and written once at exit.
struct SpanLog {
  std::vector<Span> spans;

  int Add(Span s) {
    spans.push_back(std::move(s));
    return static_cast<int>(spans.size()) - 1;
  }
  /// Copy the engine's span tree under the benchmark span `parent`,
  /// aligning the tree's root end with the benchmark span's end.
  void AttachEngineTrace(const sky::obs::QueryTrace& trace, int parent);
};

/// `s` as a JSON string literal, quotes included.
std::string JsonQuote(const std::string& s);

/// Write `logs` as Chrome trace-event JSON (opens in Perfetto).
void WriteChromeTrace(const std::string& path,
                      const std::vector<SpanLog>& logs);

// ---- Inputs --------------------------------------------------------------

/// Per-dimension value quantiles of a dataset, from a fixed row sample, so
/// box widths can be drawn in quantile space (controlled selectivity on
/// the integer-valued house data).
class Quantiles {
 public:
  explicit Quantiles(const sky::Dataset& data);
  sky::Value At(int dim, double q) const;

 private:
  std::vector<std::vector<sky::Value>> sorted_;
};

/// The serving spec generator: preferences, boxes, band and top-k drawn
/// per README.md "Spec generator". Every spec it returns canonicalizes.
sky::QuerySpec MakeSpec(sky::Rng& rng, const Quantiles& q, int dims);

/// Seeded universe of specs whose popularity the serving clients draw
/// with Zipf(theta = 0.99).
std::vector<sky::QuerySpec> MakeUniverse(uint64_t seed, const Quantiles& q,
                                         int dims, size_t size);

/// `count` specs with pairwise distinct CanonicalKey()s.
std::vector<sky::QuerySpec> MakeUniqueSpecs(uint64_t seed, const Quantiles& q,
                                            int dims, size_t count);

enum class OpKind : uint8_t { kRead, kInsert, kDelete };

/// One client operation. Reads name a spec; writes carry the seed their
/// rows (inserts) or ids (deletes) are generated from.
struct Op {
  OpKind kind = OpKind::kRead;
  uint64_t spec = 0;
  uint64_t arg = 0;
};

class ZipfGenerator;

/// Deterministic per-client operation stream of a serving workload: the
/// same (seed, client) always yields the same ops.
class OpStream {
 public:
  /// Reads draw spec ranks from `zipf`; a null `zipf` (serve_unique) walks
  /// the unique spec list in order instead. `mixed` makes 5% of ops
  /// writes, half inserts and half deletes.
  OpStream(uint64_t seed, int client, const ZipfGenerator* zipf, bool mixed);
  Op Next();

 private:
  const ZipfGenerator* zipf_;
  const bool mixed_;
  sky::Rng rng_;
  uint64_t issued_ = 0;
};

/// Self-test of the load generators (Zipf head frequencies, determinism,
/// canonicalization). Returns the failures; empty = pass.
std::vector<std::string> SelfTest();

// ---- Workloads -----------------------------------------------------------

/// Load-generating threads: min(nproc, 4).
int ClientThreads();

void RunBatchScaling(const Args& args, Report& report);
void RunServing(const Args& args, Report& report);

// ---- Per-layer breakdown (layers.cc) -------------------------------------

/// Engine registry and executor counters at one instant.
struct EngineCounters {
  sky::obs::MetricsSnapshot registry;
  sky::Executor::CountersSnapshot executor;
};
EngineCounters ReadCounters(sky::SkylineEngine& engine);

/// Registry / executor deltas between two reads -> query.*, parallel.*.
void ReportCounterDeltas(const EngineCounters& before,
                         const EngineCounters& after, size_t queue_depth_max,
                         Report& report);

/// One traced read: its client latency and the engine's span tree.
struct TracedRead {
  double latency = 0.0;
  std::shared_ptr<const sky::obs::QueryTrace> trace;
};

/// query.stage_share_p99.*: per-stage self-time shares of the reads at or
/// above the p99 client latency.
void ReportStageShares(const std::vector<TracedRead>& reads, Report& report);

/// Single-threaded replay of `specs` (cache-miss reads) through the layer
/// functions: PlanQuery, MaterializeView, per-shard ComputeSkyline /
/// ZonemapSkylineRun with the plan's algorithm, ZoneMapIndex::Build and
/// the M(S) merge -> query.plan/view/shard/merge, index.*, dominance.*.
void ReplayLayers(const sky::ShardMap& map,
                  const std::vector<sky::QuerySpec>& specs,
                  int query_threads, Report& report);

/// Every per-layer metric name with its unit, in report order. A traced
/// run reports all of them; a layer the workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerCatalog();

/// The end-to-end metric names with their units.
const std::vector<std::pair<std::string, std::string>>& EndToEndCatalog();

// ---- Small helpers -------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty input.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

}  // namespace e2e

#endif  // SKY_BENCH_E2E_E2E_H_
