// Copyright (c) SkyBench-NG contributors.
// Query planner: turns a canonicalized QuerySpec plus a ShardMap into an
// ExecutionPlan — which shards must run (the rest are pruned because
// their bounding boxes miss the constraint box), which algorithm and
// thread budget each surviving shard gets (cost-model selection when the
// request is Algorithm::kAuto), and how the per-shard partial results
// are merged back into one answer. The executor (query/engine.h) is a
// dumb interpreter of the plan; all pruning and selection decisions live
// here so tests can inspect them without running anything.
#ifndef SKY_QUERY_PLANNER_H_
#define SKY_QUERY_PLANNER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/options.h"
#include "obs/metrics.h"
#include "query/query_spec.h"
#include "query/shard_map.h"

namespace sky {

/// How per-shard partial results combine into the final answer.
enum class MergeStrategy : uint8_t {
  kNone,          ///< 0 or 1 executed shards: the partial result is final
  kSkylineUnion,  ///< M(S): union the partial skylines, dominance-filter
  kSkybandUnion,  ///< depth-aware M(S): union the partial k-skybands and
                  ///< recount dominators inside the union (exact for every
                  ///< true member; see the proof in engine.cc)
};

const char* MergeStrategyName(MergeStrategy strategy);

struct ExecutionPlan {
  /// Indices of the shards to execute, ascending. Shards absent from this
  /// list are pruned: their bounding box does not intersect the spec's
  /// constraint box, so no row of theirs can satisfy the constraints.
  std::vector<uint32_t> shards;

  /// Per-shard algorithm, parallel to `shards`. Empty means "run every
  /// shard with the caller's Options.algorithm" — the explicit-algorithm
  /// path, byte-for-byte the pre-selection behavior. Filled (all
  /// concrete, never kAuto) when the request was kAuto: each shard gets
  /// the cost model's pick for its own sketch and selectivity.
  std::vector<Algorithm> algorithms;

  /// Concurrency budget per executed shard. 1 = the engine parallelizes
  /// across shards (each shard sequential). > 1 — a lone survivor, or
  /// few survivors under the adaptive planner — makes the engine run
  /// shards one after another, each with intra-shard parallelism, so a
  /// lone surviving 2M-row shard still uses the whole budget. On the
  /// engine's shared work-stealing executor this is a concurrency
  /// *limit* (a TaskGroup cap over borrowed workers), not a thread count
  /// to spawn: concurrent queries each plan against the full budget and
  /// the executor's fixed worker set bounds the machine.
  int shard_threads = 1;

  /// Algorithm of the M(S) merge stage when the request was kAuto
  /// (explicit requests merge with their own algorithm). Sized from the
  /// estimated candidate union.
  Algorithm merge_algorithm = Algorithm::kBSkyTree;

  uint32_t pruned = 0;  ///< number of shards skipped by box intersection
  MergeStrategy merge = MergeStrategy::kNone;
};

/// True iff the axis-aligned box [lo, hi] intersects every constraint
/// interval (closed on both sides). An empty per-dim box (lo > hi, e.g.
/// all-NaN column) intersects nothing.
bool BoxIntersectsConstraints(const std::vector<Value>& lo,
                              const std::vector<Value>& hi,
                              const std::vector<DimConstraint>& constraints);

/// The planner's decision tallies, interned once by the owner of the
/// metrics registry (the engine, at construction) so recording a plan
/// never takes the registry mutex. Fill it with InternPlannerCounters.
struct PlannerCounters {
  obs::Counter* plans = nullptr;            ///< sky_planner_plans_total
  obs::Counter* shards_executed = nullptr;  ///< ..._shards_executed_total
  obs::Counter* shards_pruned = nullptr;    ///< ..._shards_pruned_total
  /// sky_planner_merge_total{strategy=...}, indexed by MergeStrategy.
  std::array<obs::Counter*, 3> merge{};

  /// Tally one plan's decisions.
  void Record(const ExecutionPlan& plan) const;
};

/// Intern every PlannerCounters instrument in `metrics`.
PlannerCounters InternPlannerCounters(obs::MetricsRegistry& metrics);

/// Build the pruning plan for `canon` (must already be canonicalized for
/// the map's dimensionality) over `map`. No algorithm selection: the
/// executor runs every shard with the caller's Options.
ExecutionPlan PlanQuery(const ShardMap& map, const QuerySpec& canon);

/// Adaptive variant: additionally resolves per-shard algorithms, the
/// shard thread budget and the merge algorithm when opts.algorithm is
/// kAuto (identical to the two-argument form otherwise).
ExecutionPlan PlanQuery(const ShardMap& map, const QuerySpec& canon,
                        const Options& opts);

}  // namespace sky

#endif  // SKY_QUERY_PLANNER_H_
