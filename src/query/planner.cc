// Copyright (c) SkyBench-NG contributors.
#include "query/planner.h"

#include <algorithm>

#include "query/cost_model.h"

namespace sky {

const char* MergeStrategyName(MergeStrategy strategy) {
  switch (strategy) {
    case MergeStrategy::kNone:
      return "none";
    case MergeStrategy::kSkylineUnion:
      return "skyline-union";
    case MergeStrategy::kSkybandUnion:
      return "skyband-union";
  }
  return "?";
}

bool BoxIntersectsConstraints(const std::vector<Value>& lo,
                              const std::vector<Value>& hi,
                              const std::vector<DimConstraint>& constraints) {
  for (const DimConstraint& c : constraints) {
    const size_t d = static_cast<size_t>(c.dim);
    // Closed-interval overlap; written so an empty box (lo > hi) or an
    // all-NaN column fails rather than passes.
    if (!(hi[d] >= c.lo && lo[d] <= c.hi)) return false;
  }
  return true;
}

PlannerCounters InternPlannerCounters(obs::MetricsRegistry& metrics) {
  PlannerCounters c;
  c.plans = metrics.GetCounter("sky_planner_plans_total", {},
                               "Execution plans built");
  c.shards_executed =
      metrics.GetCounter("sky_planner_shards_executed_total", {},
                         "Shards surviving box pruning, summed over plans");
  c.shards_pruned =
      metrics.GetCounter("sky_planner_shards_pruned_total", {},
                         "Shards skipped by constraint-box pruning");
  for (size_t m = 0; m < c.merge.size(); ++m) {
    c.merge[m] = metrics.GetCounter(
        "sky_planner_merge_total",
        {{"strategy", MergeStrategyName(static_cast<MergeStrategy>(m))}},
        "Plans by merge strategy");
  }
  return c;
}

ExecutionPlan PlanQuery(const ShardMap& map, const QuerySpec& canon) {
  // Mutation staleness: every shard box covers every row of its shard
  // across InsertPoints / DeletePoints (inserts grow it, deletes recompute
  // it exactly during compaction; a one-shard map starts unbounded), so
  // box pruning never drops a shard that holds a matching row. Shard
  // sketches, by contrast, drift between periodic rebuilds — selection
  // below tolerates that because EstimateConstraintSelectivity damps
  // toward 1 by the sketch's StaleFraction (over-budgeting instead of
  // under-planning).
  ExecutionPlan plan;
  for (size_t s = 0; s < map.shard_count(); ++s) {
    const Shard& shard = map.shard(s);
    if (BoxIntersectsConstraints(shard.box_lo, shard.box_hi,
                                 canon.constraints)) {
      plan.shards.push_back(static_cast<uint32_t>(s));
    } else {
      ++plan.pruned;
    }
  }
  if (plan.shards.size() <= 1) {
    plan.merge = MergeStrategy::kNone;
  } else {
    plan.merge = canon.band_k == 1 ? MergeStrategy::kSkylineUnion
                                   : MergeStrategy::kSkybandUnion;
  }
  return plan;
}

void PlannerCounters::Record(const ExecutionPlan& plan) const {
  plans->Add();
  shards_executed->Add(plan.shards.size());
  shards_pruned->Add(plan.pruned);
  merge[static_cast<size_t>(plan.merge)]->Add();
}

ExecutionPlan PlanQuery(const ShardMap& map, const QuerySpec& canon,
                        const Options& opts) {
  ExecutionPlan plan = PlanQuery(map, canon);
  // A lone survivor's answer is final and nothing runs beside it, so it
  // gets the caller's whole budget whatever the algorithm.
  if (plan.shards.size() == 1) plan.shard_threads = opts.ResolvedThreads();
  if (opts.algorithm != Algorithm::kAuto || plan.shards.empty()) return plan;

  // Thread budget. Across-shard mode (budget 1 each, S shards in
  // flight) finishes in ~w wall for S <= T. In-turn mode with the FULL
  // budget per shard finishes in ~S * w / T — better exactly when
  // S^2 <= T. Handing in-turn shards only a T/S slice would be the
  // worst of both (S * S * w / T), so the budget is all-or-nothing.
  // Under the engine's shared executor this budget is a concurrency
  // *limit* (the TaskGroup cap admission control clamps a query to), not
  // a thread count to spawn: with N queries in flight each one still
  // plans as if it owned T, and the executor's fixed worker set is what
  // actually bounds the machine.
  const size_t survivors = plan.shards.size();
  const int total_threads = opts.ResolvedThreads();
  plan.shard_threads =
      survivors * survivors <= static_cast<size_t>(total_threads)
          ? total_threads
          : 1;

  // Per-shard selection: each shard's own sketch and its own constraint
  // selectivity, so a dense 3k-row shard and a sparse 2M-row shard in
  // the same plan can get different algorithms.
  plan.algorithms.reserve(survivors);
  double est_union = 0.0;
  SelectionContext ctx;
  ctx.band_k = canon.band_k;
  ctx.threads = plan.shard_threads;
  // Single-surviving-shard plans run with the caller's callback (and
  // the merge stage streams for multi-shard plans), so a progressive
  // caller needs streaming-capable picks throughout.
  ctx.progressive = opts.progressive != nullptr;
  // Zonemap traverses the shard's own index in place only for band-1
  // box-only specs; it competes where such a spec has a real constraint
  // box to prune blocks with, and nowhere else.
  ctx.zonemap_direct = canon.band_k == 1 && !canon.constraints.empty() &&
                       canon.IsBoxOnlyTransform();
  for (const uint32_t s : plan.shards) {
    const StatsSketch& sketch = map.shard(s).sketch;
    ctx.selectivity =
        EstimateConstraintSelectivity(sketch, canon.constraints);
    const AlgorithmChoice choice = ChooseAlgorithm(sketch, ctx);
    plan.algorithms.push_back(choice.algorithm);
    est_union += choice.est_skyline;
  }

  // The merge input is the union of the per-shard partial results:
  // size it with a synthetic sketch (the union is nearly all-skyline,
  // so its own skyline estimate is the union itself).
  if (plan.merge != MergeStrategy::kNone) {
    StatsSketch union_sketch;
    union_sketch.n = static_cast<size_t>(std::max(1.0, est_union));
    union_sketch.d = map.dims();
    union_sketch.est_skyline = est_union;
    union_sketch.growth_exponent = 1.0;
    SelectionContext merge_ctx;
    merge_ctx.band_k = canon.band_k;
    merge_ctx.threads = total_threads;
    merge_ctx.progressive = ctx.progressive;
    plan.merge_algorithm = ChooseAlgorithm(union_sketch, merge_ctx).algorithm;
  }
  return plan;
}

}  // namespace sky
