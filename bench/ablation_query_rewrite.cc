// Copyright (c) SkyBench-NG contributors.
// Query-rewrite ablation: what does the engine's view materialization cost
// on top of the raw algorithm? Four query shapes per distribution:
//   direct    — ComputeSkyline on the raw dataset (no query layer)
//   identity  — RunQuery with the default spec (engine fast path, no view)
//   flip      — every dimension MAX (full copy + negate, same skyline size)
//   subspace  — half the dimensions projected away + a box constraint
// The "flip" row is the honest overhead number: identical work for the
// algorithm, plus one full view materialization. The "flip mat" columns
// time that materialization alone, serial and at the run's thread budget,
// on a persistent executor the way the serving engine builds views.
#include <cstdio>

#include "bench_util.h"
#include "parallel/executor.h"
#include "query/engine.h"
#include "query/view.h"

namespace sky {
namespace {

double MedianQuerySeconds(const Dataset& data, const QuerySpec& spec,
                          const Options& opts, int repeats) {
  std::vector<double> times;
  for (int rep = 0; rep < repeats; ++rep) {
    times.push_back(RunQuery(data, spec, opts).stats.total_seconds);
  }
  return Median(std::move(times));
}

double MedianViewSeconds(const Dataset& data, const QuerySpec& canon,
                         const Options& opts, int repeats) {
  std::vector<double> times;
  for (int rep = 0; rep < repeats; ++rep) {
    times.push_back(MaterializeView(data, canon, opts).materialize_seconds);
  }
  return Median(std::move(times));
}

void Run(const BenchConfig& cfg) {
  const size_t n = cfg.n_override ? cfg.n_override
                                  : (cfg.full ? 1'000'000 : 50'000);
  const int d = cfg.d_override ? cfg.d_override : 8;
  const int t = cfg.max_threads > 0 ? cfg.max_threads : (cfg.full ? 16 : 4);

  std::printf(
      "== Ablation: query-rewrite overhead, Hybrid (n=%zu, d=%d, t=%d) ==\n",
      n, d, t);
  Options opts;
  opts.algorithm = Algorithm::kHybrid;
  opts.threads = t;

  QuerySpec identity;
  QuerySpec flip;
  for (int j = 0; j < d; ++j) flip.SetPreference(j, Preference::kMax);
  QuerySpec subspace;
  std::vector<int> keep;
  for (int j = 0; j < d / 2; ++j) keep.push_back(j);
  subspace.Project(keep, d).Constrain(0, 0.1f, 0.9f);

  Executor executor(t);
  Options mat_serial;
  mat_serial.threads = 1;
  mat_serial.executor = &executor;
  Options mat_wide = mat_serial;
  mat_wide.threads = t;

  Table table({"distribution", "direct (s)", "identity (s)", "flip (s)",
               "flip mat (t=1) (s)", "flip mat (t) (s)", "subspace (s)"});
  for (const Distribution dist : AllDistributions()) {
    WorkloadSpec wspec{dist, n, d, cfg.seed};
    const Dataset& data = WorkloadCache::Instance().Get(wspec);

    const double direct =
        RunTimed(data, opts, cfg.repeats, cfg.verify).stats.total_seconds;
    const double ident = MedianQuerySeconds(data, identity, opts, cfg.repeats);
    const double flipped = MedianQuerySeconds(data, flip, opts, cfg.repeats);
    const QuerySpec flip_canon = flip.Canonicalize(data.dims());
    const double mat1 =
        MedianViewSeconds(data, flip_canon, mat_serial, cfg.repeats);
    const double matt =
        MedianViewSeconds(data, flip_canon, mat_wide, cfg.repeats);
    const double sub = MedianQuerySeconds(data, subspace, opts, cfg.repeats);

    table.AddRow({DistributionName(dist), Table::Num(direct),
                  Table::Num(ident), Table::Num(flipped), Table::Num(mat1),
                  Table::Num(matt), Table::Num(sub)});
    WorkloadCache::Instance().Clear();
  }
  Emit(table, cfg);
  std::printf(
      "\nExpected shape: identity tracks direct (the engine skips the view "
      "for the native question); flip pays one row copy over direct — small "
      "next to the skyline computation itself on hard inputs; flip mat (t) "
      "stays at or below flip mat (t=1) once the view spans several "
      "%zu-row chunks, but far short of t-fold: the full copy is "
      "memory-bound (one thread can saturate the bandwidth) and the output "
      "allocation stays serial; subspace is dominated by the smaller "
      "projected problem, not the rewrite.\n",
      kViewChunkRows);
}

}  // namespace
}  // namespace sky

int main(int argc, char** argv) {
  sky::Run(sky::BenchConfig::Parse(argc, argv));
  return 0;
}
