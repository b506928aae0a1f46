// Copyright (c) SkyBench-NG contributors.
// Cost-model algorithm selection: maps (dataset/shard StatsSketch,
// constraint selectivity, band depth, thread budget) to the cheapest
// algorithm under the per-algorithm runtime estimates whose coefficients
// live in the AlgorithmRegistry. Calibrated to the paper's Fig. 5/6
// crossovers: sequential BSkyTree wins small/low-d inputs, PSkyline
// holds a mid-range band, Q-Flow/Hybrid dominate at scale. The planner
// (query/planner.h) calls this once per surviving shard, so one query
// can run BSkyTree on a pruned 3k-row shard and Hybrid on a 2M-row one.
#ifndef SKY_QUERY_COST_MODEL_H_
#define SKY_QUERY_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "data/sketch.h"
#include "query/query_spec.h"

namespace sky {

/// Per-query inputs of one selection decision.
struct SelectionContext {
  /// Estimated fraction of rows surviving the constraint box, in [0, 1].
  double selectivity = 1.0;
  /// Band depth of the query (1 = plain skyline). Depths > 1 route to
  /// ComputeSkyband, whose block flow is Q-Flow's, so selection is
  /// restricted to skyband-capable algorithms.
  uint32_t band_k = 1;
  /// Threads available to this run (per shard under sharded execution).
  int threads = 1;
  /// The caller installed a progressive callback: restrict selection to
  /// algorithms that actually stream (descriptor `progressive`), so an
  /// auto pick never silently swallows the batches.
  bool progressive = false;
  /// The spec is band-1, all-min and constrained, so Algorithm::kZonemap
  /// would traverse the shard's own index in place against the box,
  /// loading no rows: zonemap becomes a candidate with a cheap box-scan
  /// term, and every other candidate is charged the load the traversal
  /// skips. False (the default) excludes zonemap from selection — its
  /// cost depends on block pruning the static model cannot see, so it
  /// only competes where its sub-shard pruning structurally pays.
  bool zonemap_direct = false;
};

/// A resolved selection plus the model's reasoning, for reporting.
struct AlgorithmChoice {
  Algorithm algorithm = Algorithm::kBSkyTree;
  double est_cost = 0.0;     ///< model cost of the winner (relative ns)
  double est_rows = 0.0;     ///< effective rows fed to the algorithm
  double est_skyline = 0.0;  ///< skyline estimate at that row count
};

/// Model cost of running `algorithm` in this context (lower is better).
/// Exposed so tests and the ablation bench can inspect the boundaries.
double EstimateAlgorithmCost(Algorithm algorithm, const StatsSketch& sketch,
                             const SelectionContext& ctx);

/// Pick the cheapest auto-candidate for `sketch` under `ctx`.
AlgorithmChoice ChooseAlgorithm(const StatsSketch& sketch,
                                const SelectionContext& ctx);

/// Estimated fraction of rows satisfying every constraint, from the
/// sketch's per-dimension quantile samples (independence assumption).
double EstimateConstraintSelectivity(
    const StatsSketch& sketch, const std::vector<DimConstraint>& constraints);

/// Resolve kAuto for a bare dataset with no planner in sight (direct
/// ComputeSkyline calls): sketches `data` on the fly — selectivity 1,
/// band 1 — and returns the choice. The serving path never uses this; it
/// selects from the registration-time sketches instead.
Algorithm ChooseAlgorithmForDataset(const Dataset& data, const Options& opts);

}  // namespace sky

#endif  // SKY_QUERY_COST_MODEL_H_
