// Copyright (c) SkyBench-NG contributors.
// Auto-selection ablation: how close does the cost model's pick come to
// an oracle that always runs the best fixed algorithm? For every cell of
// a (distribution x n x d x shard count) grid we time --algo=auto
// through the engine and every fixed auto-candidate (BSkyTree, PSkyline,
// Q-Flow, Hybrid) on the identical registration, then report per-cell
// regret (auto / best-fixed) plus the aggregate totals. Expected shape:
// auto tracks the per-cell winner — sequential picks on small cells,
// parallel picks at scale when threads are available — landing within
// ~10% of the best fixed choice overall and far from the worst.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/algorithm_registry.h"
#include "parallel/executor.h"
#include "query/engine.h"

namespace sky {
namespace {

double MedianSeconds(SkylineEngine& engine, const QuerySpec& spec,
                     const Options& opts, int repeats, QueryResult* last) {
  std::vector<double> times;
  for (int rep = 0; rep < repeats; ++rep) {
    engine.ClearCache();  // time computation, not cache replay
    *last = engine.Execute("ds", spec, opts);
    times.push_back(last->stats.total_seconds);
  }
  return Median(std::move(times));
}

std::vector<Algorithm> AutoCandidates() {
  std::vector<Algorithm> algos;
  for (const AlgorithmDescriptor& desc : AlgorithmTable()) {
    if (desc.auto_candidate) algos.push_back(desc.algorithm);
  }
  return algos;
}

void Run(const BenchConfig& cfg) {
  const size_t n_hi = cfg.n_override ? cfg.n_override
                                     : (cfg.full ? 1'000'000 : 64'000);
  const std::vector<size_t> ns = {std::max<size_t>(n_hi / 16, 256),
                                  std::max<size_t>(n_hi / 4, 512), n_hi};
  const std::vector<int> ds =
      cfg.d_override ? std::vector<int>{cfg.d_override}
                     : std::vector<int>{4, 8};
  // The thread budget must match the hardware: handing the cost model
  // more threads than exist makes it pick parallel algorithms that
  // cannot actually speed up.
  const int t =
      cfg.max_threads > 0 ? cfg.max_threads : Executor::DefaultThreads();
  const std::vector<Algorithm> candidates = AutoCandidates();

  std::printf(
      "== Ablation: cost-model auto-selection vs fixed algorithms "
      "(t=%d) ==\n",
      t);
  Options opts;
  opts.threads = t;

  Table table({"distribution", "n", "d", "K", "auto (s)", "picked",
               "best (s)", "best", "worst (s)", "worst", "regret"});
  double total_auto = 0.0, total_best = 0.0, total_worst = 0.0;
  double regret_log_sum = 0.0;
  size_t cells = 0;
  for (const Distribution dist : AllDistributions()) {
    for (const size_t n : ns) {
      for (const int d : ds) {
        WorkloadSpec wspec{dist, n, d, cfg.seed};
        const Dataset& data = WorkloadCache::Instance().Get(wspec);
        for (const size_t shards : {size_t{1}, size_t{4}}) {
          SkylineEngine::Config config;
          config.shards = shards;
          config.shard_policy = ShardPolicy::kMedianPivot;
          SkylineEngine engine(config);
          engine.RegisterDataset("ds", data.Clone());

          QueryResult r;
          Options auto_opts = opts;
          auto_opts.algorithm = Algorithm::kAuto;
          const double t_auto = MedianSeconds(engine, QuerySpec{}, auto_opts,
                                              cfg.repeats, &r);
          // Label the cell with the (first) shard's pick.
          const char* picked = r.shard_algorithms.empty()
                                   ? "?"
                                   : AlgorithmName(r.shard_algorithms[0]);

          double best = 0.0, worst = 0.0;
          Algorithm best_algo = candidates[0], worst_algo = candidates[0];
          bool first = true;
          for (const Algorithm algo : candidates) {
            Options fixed = opts;
            fixed.algorithm = algo;
            QueryResult rf;
            const double tf =
                MedianSeconds(engine, QuerySpec{}, fixed, cfg.repeats, &rf);
            if (first || tf < best) {
              best = tf;
              best_algo = algo;
            }
            if (first || tf > worst) {
              worst = tf;
              worst_algo = algo;
            }
            first = false;
          }

          const double regret = best > 0.0 ? t_auto / best : 1.0;
          total_auto += t_auto;
          total_best += best;
          total_worst += worst;
          regret_log_sum += std::log(std::max(regret, 1e-9));
          ++cells;
          table.AddRow({DistributionName(dist), std::to_string(n),
                        std::to_string(d), std::to_string(shards),
                        Table::Num(t_auto), picked, Table::Num(best),
                        AlgorithmName(best_algo), Table::Num(worst),
                        AlgorithmName(worst_algo), Table::Num(regret, 3)});
        }
        WorkloadCache::Instance().Clear();
      }
    }
  }
  Emit(table, cfg);
  std::printf(
      "\nTotals over %zu cells: auto=%.4fs best-fixed(oracle)=%.4fs "
      "worst-fixed=%.4fs\n",
      cells, total_auto, total_best, total_worst);
  std::printf(
      "Aggregate regret: auto/best=%.3f (target <= ~1.10), "
      "auto/worst=%.3f (must be < 1), per-cell geomean=%.3f\n",
      total_best > 0 ? total_auto / total_best : 1.0,
      total_worst > 0 ? total_auto / total_worst : 1.0,
      cells > 0 ? std::exp(regret_log_sum / static_cast<double>(cells)) : 1.0);
}

}  // namespace
}  // namespace sky

int main(int argc, char** argv) {
  sky::Run(sky::BenchConfig::Parse(argc, argv));
  return 0;
}
