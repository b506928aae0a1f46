// Copyright (c) SkyBench-NG contributors.
// Reproduces paper Table II: run-time and multi-threaded speedup on the
// real datasets. The originals are unavailable; synthetic stand-ins with
// Table I's cardinality/dimensionality/duplication structure are used
// (data/realistic.h).
//
// Paper shape to reproduce: Hybrid is the best performer on all three
// datasets; parallel speedups are modest on the small NBA/House inputs
// and large on Weather; all parallel algorithms beat sequential BSkyTree
// on Weather.
#include <cstdio>

#include "bench_util.h"
#include "data/realistic.h"

namespace sky {
namespace {

struct StandIn {
  const char* name;
  Dataset data;
};

void Run(const BenchConfig& cfg) {
  const int t = cfg.max_threads > 0 ? cfg.max_threads : (cfg.full ? 16 : 4);
  // Laptop defaults scale the larger sets down; --full restores Table I;
  // an explicit --n overrides all three (smoke tests use a tiny n).
  const size_t n_nba =
      cfg.n_override ? cfg.n_override : (cfg.full ? 17'264 : 17'264);
  const size_t n_house =
      cfg.n_override ? cfg.n_override : (cfg.full ? 127'931 : 32'000);
  const size_t n_weather =
      cfg.n_override ? cfg.n_override : (cfg.full ? 566'268 : 50'000);
  std::vector<StandIn> sets;
  sets.push_back({"NBA-like", GenerateNbaLike(n_nba, cfg.seed)});
  sets.push_back({"House-like", GenerateHouseLike(n_house, cfg.seed)});
  sets.push_back({"Weather-like", GenerateWeatherLike(n_weather, cfg.seed)});

  const Algorithm algos[] = {Algorithm::kBSkyTree, Algorithm::kPBSkyTree,
                             Algorithm::kPSkyline, Algorithm::kQFlow,
                             Algorithm::kHybrid};

  for (const StandIn& s : sets) {
    std::printf("== Table II: %s (n=%zu, d=%d, t=%d) ==\n", s.name,
                s.data.count(), s.data.dims(), t);
    Table table({"algorithm", "msec (t)", "msec (t=1)", "speedup", "|sky|"});
    for (const Algorithm algo : algos) {
      const bool parallel = IsParallelAlgorithm(algo);
      const RunStats multi = TimeAlgo(s.data, algo, parallel ? t : 1, cfg);
      const RunStats single = parallel ? TimeAlgo(s.data, algo, 1, cfg)
                                       : multi;
      table.AddRow({AlgorithmName(algo),
                    Table::Num(multi.total_seconds * 1e3, 1),
                    Table::Num(single.total_seconds * 1e3, 1),
                    parallel ? Table::Num(single.total_seconds /
                                              multi.total_seconds,
                                          2) + "x"
                             : std::string("-"),
                    Table::Int(multi.skyline_size)});
    }
    Emit(table, cfg);
    std::printf("\n");
  }
  std::printf(
      "Expected shape (paper Table II): Hybrid best on every dataset; "
      "note that on a single-core host the t>1 'speedup' column shows "
      "oversubscription overhead instead of gain.\n");
}

}  // namespace
}  // namespace sky

int main(int argc, char** argv) {
  sky::Run(sky::BenchConfig::Parse(argc, argv));
  return 0;
}
