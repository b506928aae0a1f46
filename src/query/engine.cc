// Copyright (c) SkyBench-NG contributors.
#include "query/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "core/skyband.h"
#include "core/skyline.h"
#include "data/row_source.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"
#include "index/zonemap.h"
#include "query/delta.h"

namespace sky {
namespace {

/// Largest candidate union the sharded merge filters directly with the
/// batched tile kernels instead of launching a full skyline algorithm.
/// The direct filter is O(total * m) but skips the WorkingSet copy,
/// sort, and parallel-loop fan-out, which dominate at this scale.
constexpr size_t kBatchMergeMaxRows = 4096;

/// `callback` behind a remap: every confirmed batch is mapped id by id
/// through `to_caller` into the caller's row space before forwarding.
template <typename ToCaller>
ProgressiveCallback Remapped(ProgressiveCallback callback,
                             ToCaller to_caller) {
  return [callback = std::move(callback),
          to_caller](std::span<const PointId> ids) {
    std::vector<PointId> mapped(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) mapped[i] = to_caller(ids[i]);
    callback(mapped);
  };
}

/// Fold per-phase times and counters of a partial run into `into`,
/// leaving total_seconds / skyline_size to the caller (the executor
/// reports true end-to-end wall time, not the sum of parallel shards).
void AccumulateStats(RunStats& into, const RunStats& from) {
  into.init_seconds += from.init_seconds;
  into.prefilter_seconds += from.prefilter_seconds;
  into.pivot_seconds += from.pivot_seconds;
  into.phase1_seconds += from.phase1_seconds;
  into.phase2_seconds += from.phase2_seconds;
  into.compress_seconds += from.compress_seconds;
  into.other_seconds += from.other_seconds;
  into.dominance_tests += from.dominance_tests;
  into.mask_filter_hits += from.mask_filter_hits;
  into.prefiltered_points += from.prefiltered_points;
}

/// Per-shard execute-stage output. Candidates are shard rows; the finish
/// stage emits their view-space form through the spec's RowSource. Worker
/// threads stamp the trace timings here (0 when tracing is off) and the
/// coordinator backfills the shard spans from them after the join.
struct ShardPartial {
  std::vector<PointId> cand_rows;  // candidate shard rows
  std::vector<uint32_t> counts;    // k-skyband dominator counts, if band_k > 1
  RunStats stats;
  size_t matched = 0;          // rows inside the constraint box
  double trace_start = 0.0;    // seconds since the trace epoch
  double trace_seconds = 0.0;  // shard wall time
  bool maintained = false;     // served from the maintained shard skyline
  /// trace_start on the steady clock, to place the load's span.
  std::chrono::steady_clock::time_point clock_start;
  /// The non-identity load, once done (or a traversal's matched rows).
  LoadStats load;
  /// The run's first-use index build (trace time and duration); a
  /// negative duration means the run found the index built.
  double zonemap_start = 0.0;
  double zonemap_seconds = -1.0;
};

/// Merge stage of a multi-shard plan: M(S) — copy every candidate's
/// view-space row into one union set `merged` and dominance-filter it
/// (depth-aware for k-skybands). Fills r.ids, r.dominator_counts and the
/// merge's stats, streams the confirmed answer to a progressive caller,
/// and returns the members as rows of `merged`.
std::vector<PointId> MergeUnion(const ShardMap& map, const ExecutionPlan& plan,
                                const QuerySpec& canon, const Options& opts,
                                const std::vector<ShardPartial>& parts,
                                Dataset& merged, QueryResult& r,
                                obs::TraceScope& trace) {
  int view_dims = 0;
  for (const Preference pref : canon.preferences) {
    if (pref != Preference::kIgnore) ++view_dims;
  }
  size_t total = 0;
  for (const ShardPartial& p : parts) total += p.cand_rows.size();
  // Checkpoint before committing to the union copy: the per-shard work
  // may have consumed the whole deadline budget.
  CheckCancel(opts.cancel);
  SKY_FAILPOINT("merge_union");
  obs::TraceScope span(trace, "merge");
  uint64_t merge_dts = 0;
  const char* merge_path = "empty";
  merged = Dataset(view_dims, total);
  std::vector<PointId> merged_ids(total);
  size_t w = 0;
  for (size_t s = 0; s < parts.size(); ++s) {
    const Shard& shard = map.shard(plan.shards[s]);
    // Only candidates are transformed into view space.
    const RowSource source(shard.rows(), canon);
    for (const PointId row : parts[s].cand_rows) {
      source.EmitRow(row, merged.MutableRow(w));
      merged_ids[w] = shard.global_id(row);
      ++w;
    }
  }

  const auto to_caller = [&merged_ids](PointId row) {
    return merged_ids[row];
  };
  std::vector<PointId> members;
  const DomCtx merge_dom(view_dims, merged.stride(), opts.use_simd);
  if (total > 0 && total <= kBatchMergeMaxRows) {
    // Small unions skip the full algorithm run: tile the union once and
    // test every candidate against it with the cache-blocked batch
    // kernels, minus ComputeSkyline's WorkingSet copy, sort, and
    // parallel-loop fan-out.
    TileBlock tiles(view_dims, total);
    tiles.AppendRows(merged.Row(0), merged.stride(), total);
    members.reserve(total);
    if (canon.band_k == 1) {
      // A candidate never dominates itself (coincident points do not
      // dominate), so no self-exclusion is needed and the surviving set
      // is exactly SKY(union) with duplicates retained — identical to
      // what ComputeSkyline would return.
      std::vector<uint8_t> dominated(total, 0);
      merge_dom.FilterTile(merged.Row(0), total, tiles, dominated.data(),
                           &merge_dts);
      for (size_t i = 0; i < total; ++i) {
        if (dominated[i] == 0) members.push_back(static_cast<PointId>(i));
      }
      merge_path = "batch-filter";
      r.dominator_counts.assign(members.size(), 0u);
      if (opts.progressive && !members.empty()) {
        // The union contains the whole answer, so every survivor is a
        // confirmed global member: stream them as one block in caller
        // row space.
        Remapped(opts.progressive, to_caller)(members);
      }
    } else {
      // Depth-aware twin: count each candidate's dominators with the
      // capped tile kernel. A count below band_k is exact (and, by the
      // union-merge proof, the candidate's exact global count); at or
      // above the cap the candidate is out regardless of the overshoot.
      // Like ComputeSkyband, this path never streams — partial counts
      // confirm nothing early.
      r.dominator_counts.reserve(total);
      for (size_t i = 0; i < total; ++i) {
        const uint32_t c = merge_dom.CountDominators(
            merged.Row(i), tiles, total, canon.band_k,
            opts.count_dts ? &merge_dts : nullptr);
        if (c < canon.band_k) {
          members.push_back(static_cast<PointId>(i));
          r.dominator_counts.push_back(c);
        }
      }
      merge_path = "batch-count";
    }
    if (opts.count_dts) r.stats.dominance_tests += merge_dts;
  } else if (total > 0) {
    Options merge_opts = opts;
    if (merge_opts.algorithm == Algorithm::kAuto) {
      merge_opts.algorithm = plan.merge_algorithm;
    }
    // Progressive reporting streams from the merge stage: every member
    // the merge confirms is a global member (the union contains the whole
    // answer), remapped to caller row space. Per-shard runs stay silent —
    // their partial results are not confirmed until merged.
    merge_opts.progressive = nullptr;
    if (opts.progressive) {
      merge_opts.progressive = Remapped(opts.progressive, to_caller);
    }
    if (canon.band_k == 1) {
      Result run = ComputeSkyline(merged, merge_opts);
      AccumulateStats(r.stats, run.stats);
      merge_dts = run.stats.dominance_tests;
      members = std::move(run.skyline);
      r.dominator_counts.assign(members.size(), 0u);
    } else {
      SkybandResult run = ComputeSkyband(merged, canon.band_k, merge_opts);
      AccumulateStats(r.stats, run.stats);
      merge_dts = run.stats.dominance_tests;
      members = std::move(run.skyband);
      r.dominator_counts = std::move(run.dominator_counts);
    }
    merge_path = AlgorithmName(merge_opts.algorithm);
  }
  span.Attr("strategy", MergeStrategyName(plan.merge));
  span.Attr("path", merge_path);
  span.AttrCount("union", total);
  span.AttrCount("members", members.size());
  if (opts.count_dts || merge_dts > 0) span.AttrCount("dom_tests", merge_dts);
  r.ids.resize(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    r.ids[i] = merged_ids[members[i]];
  }
  return members;
}

/// Merge + finish: the interpreter for a planner-produced ExecutionPlan.
///
/// Correctness of the M(S) union-then-filter merge: every global skyline
/// point is non-dominated within its shard, so the union of partial
/// skylines contains SKY(data); and any non-member is dominated by a
/// minimal dominator that itself is a skyline point, hence in the union —
/// so SKY(union) == SKY(data). The depth-aware variant holds too: order a
/// point's dominator set D(p) by |D(.)| ascending; the i-th element has
/// at most i-1 dominators (its dominators are strictly earlier in the
/// order), so the first min(|D(p)|, k) of them are global k-skyband
/// members, each a per-shard band member of its own shard. Members
/// therefore keep their exact global count inside the union, and every
/// non-member still meets >= k dominators there.
///
/// A single surviving shard (merge kNone) needs no merge at all: pruned
/// shards hold no constraint-box row, so its answer is the global one.
/// It runs with the planner's full thread budget and the caller's
/// progressive callback, and its members, dominator counts and rank
/// scores are final.
///
/// Every shard run but the maintained-skyline shortcut is one
/// ComputeSkyline / ComputeSkyband call on one RowSource of the spec: the
/// algorithm loads the shard rows through it — box, projection and
/// negation fused into its own working-set copy, constrained loads
/// walking the shard's zonemap — and each finished load counts in
/// `view_builds`; Algorithm::kZonemap on a box-only spec traverses the
/// shard's zonemap in place instead and loads nothing. A run that builds
/// a shard's index on first use traces it as a `zonemap` span; a load
/// traces as `view.build`.
QueryResult ExecuteShardedPlan(const ShardMap& map, const ExecutionPlan& plan,
                               const QuerySpec& canon, const Options& opts,
                               obs::TraceScope& trace,
                               std::atomic<uint32_t>& view_builds) {
  WallTimer timer;
  QueryResult r;
  r.shards_executed = static_cast<uint32_t>(plan.shards.size());
  r.shards_pruned = plan.pruned;
  if (plan.shards.empty()) {
    r.stats.total_seconds = timer.Seconds();
    return r;
  }
  const bool identity = canon.IsIdentityTransform();
  const bool single = plan.merge == MergeStrategy::kNone;
  // Per-shard algorithm: the plan's cost-model picks when the request
  // was kAuto, the caller's explicit choice otherwise.
  const auto algo_of = [&](size_t s) {
    return plan.algorithms.empty() ? opts.algorithm : plan.algorithms[s];
  };
  /// The shard's own index, stamping the build into `p` when this call
  /// is its first use.
  const auto shard_zonemap = [&](const Shard& shard, ShardPartial& p) {
    if (auto built = shard.built_zonemap()) return built;
    p.zonemap_start = trace.Now();
    auto index = shard.zonemap();
    p.zonemap_seconds = trace.Now() - p.zonemap_start;
    return index;
  };

  // Execute stage. Two shapes, chosen by the planner's thread budget:
  // parallelism across shards with each shard sequential (the default),
  // or — when pruning left fewer shards than threads — shards in turn,
  // each running its algorithm with intra-shard parallelism. A lone
  // shard streams its confirmed members in caller row space; otherwise
  // per-shard progressive callbacks are suppressed — a shard-local
  // skyline point is not a confirmed global member; the merge stage
  // streams the answer instead.
  Options shard_opts = opts;
  shard_opts.threads = plan.shard_threads;
  shard_opts.progressive = nullptr;
  const size_t n_shards = plan.shards.size();
  std::vector<ShardPartial> parts(n_shards);
  const auto run_shard = [&](size_t s) {
    // Cancellation/failure checkpoint per shard: a tripped token (or an
    // armed shard_execute failpoint) unwinds into the fan-out group,
    // which cancels the siblings and rethrows at the join.
    CheckCancel(opts.cancel);
    SKY_FAILPOINT("shard_execute");
    const Shard& shard = map.shard(plan.shards[s]);
    ShardPartial& p = parts[s];
    p.trace_start = trace.Now();
    p.clock_start = std::chrono::steady_clock::now();
    Options one = shard_opts;
    one.algorithm = algo_of(s);
    if (single && opts.progressive) {
      one.progressive = Remapped(opts.progressive, [&](PointId row) {
        return shard.global_id(row);
      });
    }
    if (identity && canon.band_k == 1 && shard.skyline != nullptr) {
      // The mutation path maintains exactly this shard's skyline: take
      // the precomputed candidates and skip the per-shard compute (a lone
      // shard streams them as one block). Constrained or view-transformed
      // specs cannot take this shortcut (filtering changes the dominance
      // set), but identity is the common serving case and the one
      // mutations repair for.
      p.cand_rows = *shard.skyline;
      p.matched = shard.rows().count();
      p.maintained = true;
      if (one.progressive && !p.cand_rows.empty()) {
        one.progressive(p.cand_rows);
      }
    } else {
      // One source per run. The shard's zonemap (built on first use)
      // serves a constrained load's block walk and a kZonemap traversal
      // in place, which needs a band-1 box-only spec; nothing else reads
      // it (ComputeSkyband ignores the algorithm, and a projected or MAX
      // source is traversed after its load).
      const bool traversal = one.algorithm == Algorithm::kZonemap &&
                             canon.band_k == 1 && canon.IsBoxOnlyTransform();
      std::shared_ptr<const ZoneMapIndex> zm;
      if ((!canon.constraints.empty() || traversal) &&
          shard.rows().count() > 0) {
        zm = shard_zonemap(shard, p);
      }
      const RowSource source(shard.rows(), canon, zm.get(), &p.load);
      // A finished load counts even when the run then unwinds.
      const auto count_load = [&] {
        if (p.load.done) view_builds.fetch_add(1, std::memory_order_relaxed);
      };
      try {
        if (canon.band_k == 1) {
          Result run = ComputeSkyline(source, one);
          p.stats = run.stats;
          p.cand_rows = std::move(run.skyline);
        } else {
          SkybandResult run = ComputeSkyband(source, canon.band_k, one);
          p.stats = run.stats;
          p.cand_rows = std::move(run.skyband);
          p.counts = std::move(run.dominator_counts);
        }
      } catch (...) {
        count_load();
        throw;
      }
      count_load();
      p.matched = identity ? shard.rows().count() : p.load.rows_loaded;
    }
    p.trace_seconds = trace.Now() - p.trace_start;
  };
  if (plan.shard_threads > 1 || n_shards == 1) {
    // Shards in turn, each with intra-shard parallelism: the per-shard
    // algorithms open their own groups (shard_opts carries
    // opts.executor), so no fan-out group is needed here.
    for (size_t s = 0; s < n_shards; ++s) run_shard(s);
  } else {
    // Fan the shards out as one capped task group on the run's executor:
    // the engine's shared one, or the default for one-shot calls.
    const int workers = static_cast<int>(
        std::min(n_shards, static_cast<size_t>(opts.ResolvedThreads())));
    Executor::TaskGroup group(opts.ResolvedExecutor(), workers);
    group.set_cancel_token(opts.cancel);
    group.ParallelFor(n_shards, 1, [&](size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) run_shard(s);
    });
    if (group.parallelism() > 1) {
      // Scheduler accounting for the fan-out group: how many distinct
      // participants (workers + the caller) touched this query, how many
      // tasks it submitted or ran inline, and how many were stolen. A
      // width-1 group ran the shards on the caller without touching the
      // executor, so it has nothing to report.
      const Executor::GroupStats exec_stats = group.stats();
      trace.AttrCount("executor.workers",
                      static_cast<uint64_t>(exec_stats.workers_used));
      trace.AttrCount("executor.tasks",
                      exec_stats.tasks + exec_stats.inline_runs);
      trace.AttrCount("executor.steals", exec_stats.steals);
    }
  }
  // Fold the partials in shard order, backfilling each shard's span from
  // the timings its (possibly parallel) run stamped into its slot.
  r.shard_algorithms.resize(n_shards);
  for (size_t s = 0; s < n_shards; ++s) {
    const ShardPartial& p = parts[s];
    r.shard_algorithms[s] = algo_of(s);
    r.matched_rows += p.matched;
    AccumulateStats(r.stats, p.stats);
    obs::TraceScope span(trace, "shard", plan.shards[s], p.trace_start,
                         p.trace_seconds);
    span.Attr("algo", AlgorithmName(algo_of(s)));
    span.AttrCount("rows", p.matched);
    span.AttrCount("candidates", p.cand_rows.size());
    if (opts.count_dts) span.AttrCount("dom_tests", p.stats.dominance_tests);
    if (p.maintained) span.Attr("maintained", "true");
    if (p.load.done) {
      span.Attr("view", "build");
      span.AttrCount("threads", static_cast<uint64_t>(p.load.threads));
    }
    if (p.zonemap_seconds >= 0.0) {
      const obs::TraceScope build(span, "zonemap", -1, p.zonemap_start,
                                  p.zonemap_seconds);
    }
    if (p.load.done) {
      const double start =
          p.trace_start +
          std::chrono::duration<double>(p.load.start - p.clock_start).count();
      obs::TraceScope load(span, "view.build", -1, start, p.load.seconds);
      load.AttrCount("rows_in", p.load.rows_in);
      load.AttrCount("rows", p.load.rows_loaded);
      if (p.load.blocks > 0) {
        load.AttrCount("blocks", p.load.blocks);
        load.AttrCount("blocks_visited", p.load.blocks_visited);
        load.AttrCount("blocks_inside", p.load.blocks_inside);
        load.AttrCount("blocks_box_skipped", p.load.blocks_box_skipped);
      }
      load.AttrCount("threads", static_cast<uint64_t>(p.load.threads));
    }
  }

  // Finish stage: `members` index the lone shard's rows, or the merged
  // candidate union (already in view space).
  std::vector<PointId> members;
  Dataset merged;
  const Shard& lone = map.shard(plan.shards[0]);
  if (single) {
    ShardPartial& p = parts[0];
    members = std::move(p.cand_rows);
    r.ids.resize(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      r.ids[i] = lone.global_id(members[i]);
    }
    if (canon.band_k > 1) {
      r.dominator_counts = std::move(p.counts);
    } else {
      r.dominator_counts.assign(members.size(), 0u);
    }
  } else {
    members = MergeUnion(map, plan, canon, opts, parts, merged, r, trace);
  }
  if (canon.top_k > 0) {
    std::vector<Value> scores(members.size());
    if (single) {
      // Score the lone shard's members in view space, one emitted row each.
      const RowSource source(lone.rows(), canon);
      std::vector<Value> row(static_cast<size_t>(source.dims()));
      for (size_t i = 0; i < members.size(); ++i) {
        source.EmitRow(members[i], row.data());
        scores[i] = RankScore(row.data(), source.dims());
      }
    } else {
      for (size_t i = 0; i < members.size(); ++i) {
        scores[i] = RankScore(merged.Row(members[i]), merged.dims());
      }
    }
    RankAndTruncate(r, canon.top_k, scores);
  }
  r.stats.skyline_size = r.ids.size();
  r.stats.total_seconds = timer.Seconds();
  return r;
}

/// Plan stage of the plan path: plan `canon` over `map` under one "plan"
/// span of `trace`.
ExecutionPlan PlanStage(obs::TraceScope& trace, const ShardMap& map,
                        const QuerySpec& canon, const Options& opts) {
  obs::TraceScope span(trace, "plan");
  ExecutionPlan plan = PlanQuery(map, canon, opts);
  span.AttrCount("shards", plan.shards.size());
  span.AttrCount("pruned", plan.pruned);
  span.Attr("merge", MergeStrategyName(plan.merge));
  span.AttrCount("shard_threads", static_cast<uint64_t>(plan.shard_threads));
  return plan;
}

}  // namespace

Value RankScore(const Value* view_row, int dims) {
  const Value s = ViewRowScore(view_row, dims);
  return std::isnan(s) ? std::numeric_limits<Value>::infinity() : s;
}

void RankAndTruncate(QueryResult& r, size_t top_k,
                     const std::vector<Value>& scores) {
  std::vector<size_t> order(r.ids.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (r.dominator_counts[a] != r.dominator_counts[b]) {
      return r.dominator_counts[a] < r.dominator_counts[b];
    }
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return r.ids[a] < r.ids[b];
  });
  const size_t keep = std::min(top_k, order.size());
  std::vector<PointId> ids(keep);
  std::vector<uint32_t> counts(keep);
  for (size_t i = 0; i < keep; ++i) {
    ids[i] = r.ids[order[i]];
    counts[i] = r.dominator_counts[order[i]];
  }
  r.ids = std::move(ids);
  r.dominator_counts = std::move(counts);
}

QueryResult RunShardedQuery(const ShardMap& map, const QuerySpec& spec,
                            const Options& opts) {
  const QuerySpec canon = spec.Canonicalize(map.dims());
  obs::TraceScope root = obs::TraceScope::Root(opts.trace, "query");
  std::atomic<uint32_t> view_builds{0};
  const ExecutionPlan plan = PlanStage(root, map, canon, opts);
  QueryResult r = ExecuteShardedPlan(map, plan, canon, opts, root, view_builds);
  root.AttrCount("members", r.ids.size());
  r.trace = root.Finish();
  return r;
}

size_t QueryResultBytes(const QueryResult& r) {
  return sizeof(QueryResult) + r.ids.size() * sizeof(PointId) +
         r.dominator_counts.size() * sizeof(uint32_t) +
         r.shard_algorithms.size() * sizeof(Algorithm) +
         r.constraints.size() * sizeof(DimConstraint);
}

SkylineEngine::SkylineEngine() : SkylineEngine(Config{}) {}

SkylineEngine::SkylineEngine(Config config)
    : config_(config),
      executor_(config.executor_threads > 0 ? config.executor_threads
                                            : Executor::DefaultThreads()),
      cache_(config.result_cache_capacity, config.result_cache_bytes,
             &QueryResultBytes, config.result_cache_ttl) {
  WireInstruments();
}

namespace {

/// Append one collector-sourced value to a registry snapshot.
void PushMetric(std::vector<obs::MetricValue>& out, const char* name,
                const char* help, obs::MetricKind kind, double value) {
  out.push_back(obs::MetricValue{name, {}, help, kind, value, {}});
}

}  // namespace

void SkylineEngine::WireInstruments() {
  inst_.queries = metrics_.GetCounter("sky_engine_queries_total", {},
                                      "Queries served, hits included");
  inst_.latency = metrics_.GetHistogram("sky_query_latency_seconds", {},
                                        "End-to-end Execute latency");
  inst_.compute = metrics_.GetHistogram(
      "sky_query_compute_seconds", {},
      "Execute latency of result-cache misses (plan + execute + merge)");
  inst_.view_builds = metrics_.GetCounter(
      "sky_engine_view_builds_total", {},
      "Non-identity shard loads (box, projection or MAX flip applied)");
  inst_.inserts = metrics_.GetCounter("sky_mutation_inserts_total", {},
                                      "InsertPoints batches applied");
  inst_.deletes = metrics_.GetCounter("sky_mutation_deletes_total", {},
                                      "DeletePoints batches applied");
  inst_.rows_inserted = metrics_.GetCounter("sky_mutation_rows_inserted_total",
                                            {}, "Rows appended by mutations");
  inst_.rows_deleted = metrics_.GetCounter("sky_mutation_rows_deleted_total",
                                           {}, "Rows removed by mutations");
  inst_.retries = metrics_.GetCounter(
      "sky_mutation_retries_total", {},
      "Mutation repairs discarded by a racing re-registration and retried");
  inst_.repair_dom_tests = metrics_.GetCounter(
      "sky_mutation_repair_dom_tests_total", {},
      "Dominance tests spent repairing shard skylines after mutations");
  inst_.sketch_rebuilds = metrics_.GetCounter(
      "sky_sketch_rebuilds_total", {},
      "Exact sketch rebuilds triggered by mutation staleness");
  inst_.mutation_latency = metrics_.GetHistogram(
      "sky_mutation_seconds", {},
      "End-to-end InsertPoints / DeletePoints latency");
  inst_.invalidated_results = metrics_.GetCounter(
      "sky_invalidated_results_total", {},
      "Cached results erased by mutation fixups");
  inst_.zonemap_repairs = metrics_.GetCounter(
      "sky_zonemap_repairs_total", {},
      "Shard zonemap indexes repaired block-locally across a mutation");
  inst_.deadline_exceeded = metrics_.GetCounter(
      "sky_query_deadline_exceeded_total", {},
      "Queries whose deadline tripped (truncated partials included)");
  inst_.shed = metrics_.GetCounter(
      "sky_query_shed_total", {},
      "Fresh computes rejected by admission control");
  inst_.degraded = metrics_.GetCounter(
      "sky_query_degraded_total", {},
      "Degraded answers served: stale cache entries and truncated "
      "progressive prefixes");
  inst_.planner = InternPlannerCounters(metrics_);
  for (size_t a = 0; a < inst_.algorithm.size(); ++a) {
    inst_.algorithm[a] = metrics_.GetCounter(
        "sky_engine_algorithm_total",
        {{"algo", AlgorithmName(static_cast<Algorithm>(a))}},
        "Executed shards by resolved algorithm");
  }
  // The result cache and the shared executor keep their own counters,
  // maintained whatever Config::metrics says; the registry reads them at
  // snapshot time instead of double-counting on the hot path.
  metrics_.AddCollector([this](std::vector<obs::MetricValue>& out) {
    using obs::MetricKind;
    const ResultCache<QueryResult>::Counters c = cache_.counters();
    PushMetric(out, "sky_result_cache_hits_total", "Cache hits",
               MetricKind::kCounter, static_cast<double>(c.hits));
    PushMetric(out, "sky_result_cache_misses_total", "Cache misses",
               MetricKind::kCounter, static_cast<double>(c.misses));
    PushMetric(out, "sky_result_cache_evictions_total", "Evictions, any cause",
               MetricKind::kCounter, static_cast<double>(c.evictions));
    PushMetric(out, "sky_result_cache_byte_evictions_total",
               "Evictions forced by the byte budget", MetricKind::kCounter,
               static_cast<double>(c.byte_evictions));
    PushMetric(out, "sky_result_cache_ttl_evictions_total",
               "Entries lazily expired by the TTL", MetricKind::kCounter,
               static_cast<double>(c.ttl_evictions));
    PushMetric(out, "sky_result_cache_stale_hits_total",
               "TTL-expired entries returned for serve-stale fallback",
               MetricKind::kCounter, static_cast<double>(c.stale_hits));
    PushMetric(out, "sky_result_cache_saved_seconds_total",
               "Recorded compute seconds of every entry served as a hit",
               MetricKind::kCounter, c.saved_seconds);
    PushMetric(out, "sky_result_cache_entries", "Entries currently resident",
               MetricKind::kGauge, static_cast<double>(c.entries));
    PushMetric(out, "sky_result_cache_bytes",
               "Priced payload bytes currently resident", MetricKind::kGauge,
               static_cast<double>(c.bytes));
    size_t datasets = 0;
    {
      std::shared_lock lock(registry_mu_);
      datasets = registry_.size();
    }
    PushMetric(out, "sky_datasets", "Registered datasets", MetricKind::kGauge,
               static_cast<double>(datasets));
    const Executor::CountersSnapshot ex = executor_.Counters();
    PushMetric(out, "sky_executor_tasks_total",
               "Tasks executed by the shared work-stealing executor",
               MetricKind::kCounter, static_cast<double>(ex.tasks));
    PushMetric(out, "sky_executor_steals_total",
               "Tasks acquired from another worker's deque",
               MetricKind::kCounter, static_cast<double>(ex.steals));
    PushMetric(out, "sky_executor_inline_runs_total",
               "Task-group submissions run inline on the submitter "
               "(caller-runs admission)",
               MetricKind::kCounter, static_cast<double>(ex.inline_runs));
    PushMetric(out, "sky_executor_parks_total", "Worker park (sleep) events",
               MetricKind::kCounter, static_cast<double>(ex.parks));
    PushMetric(out, "sky_executor_queue_depth",
               "Tasks currently queued and not yet running",
               MetricKind::kGauge, static_cast<double>(ex.queue_depth));
    PushMetric(out, "sky_executor_workers",
               "Executor width (including a caller slot)", MetricKind::kGauge,
               static_cast<double>(executor_.threads()));
  });
}

namespace {

/// Every cache key of one dataset generation starts with this prefix.
/// Keyed by the numeric version alone: versions are globally unique and
/// never reused, and a digit string followed by '|' can never be a
/// proper prefix of another such prefix — so ErasePrefix / EditPrefix
/// can never reach another generation's entries. The dataset name stays
/// out of the key entirely; a name containing '@' or '|' could
/// otherwise forge a prefix of another dataset's keys and let one
/// dataset's mutation remap or erase the other's cached results.
std::string CacheKeyPrefix(uint64_t version) {
  return std::to_string(version) + "|";
}

}  // namespace

uint64_t SkylineEngine::RegisterDataset(const std::string& name,
                                        Dataset data) {
  return RegisterDataset(name, std::move(data), config_.shards,
                         config_.shard_policy);
}

uint64_t SkylineEngine::RegisterDataset(const std::string& name, Dataset data,
                                        size_t shards, ShardPolicy policy) {
  auto holder = std::make_shared<const Dataset>(std::move(data));
  // Plan stage input: the shard decomposition (with bounding boxes and
  // per-shard sketches) is built once per registration, never per query.
  // One shard aliases `holder` and only sketches it.
  auto map = std::make_shared<const ShardMap>(
      ShardMap::Build(holder, shards, policy, /*seed=*/42, &executor_));
  const int dims = holder->dims();
  const size_t count = holder->count();
  uint64_t replaced_version = 0;
  uint64_t version = 0;
  {
    std::unique_lock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it != registry_.end()) replaced_version = it->second.version;
    version = next_version_++;
    registry_[name] = Registered{std::move(holder), std::move(map), version,
                                 /*minor=*/0, dims, count};
  }
  // The old generation can never be served again (versions are never
  // reused); free its results instead of letting them squat in the cache.
  if (replaced_version != 0) {
    cache_.ErasePrefix(CacheKeyPrefix(replaced_version));
  }
  return version;
}

bool SkylineEngine::EvictDataset(const std::string& name) {
  uint64_t version = 0;
  {
    std::unique_lock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it == registry_.end()) return false;
    version = it->second.version;
    registry_.erase(it);
  }
  cache_.ErasePrefix(CacheKeyPrefix(version));
  return true;
}

std::shared_ptr<const Dataset> SkylineEngine::Find(
    const std::string& name) const {
  std::shared_ptr<const ShardMap> shards;
  uint64_t version = 0;
  uint64_t minor = 0;
  {
    std::shared_lock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it == registry_.end()) return nullptr;
    if (it->second.data != nullptr) return it->second.data;
    // A mutated generation: the truth lives in the shards (mutation kept
    // the repair O(shard) by not rebuilding this).
    shards = it->second.shards;
    version = it->second.version;
    minor = it->second.minor;
  }
  std::shared_ptr<const Dataset> rebuilt = shards->WholeRows();
  // Cache the concatenation back so repeated Finds at the same minor pay
  // once, gated on the generation still being current. Find is logically
  // const — this only fills a memo slot derived from immutable shards.
  SkylineEngine* self = const_cast<SkylineEngine*>(this);
  std::unique_lock lock(self->registry_mu_);
  auto it = self->registry_.find(name);
  if (it == self->registry_.end()) return rebuilt;
  if (it->second.version == version && it->second.minor == minor) {
    if (it->second.data == nullptr) {
      it->second.data = rebuilt;
    }
    return it->second.data;
  }
  return rebuilt;
}

void SkylineEngine::PutIfCurrent(const std::string& name, uint64_t version,
                                 uint64_t minor, const std::string& key,
                                 std::shared_ptr<const QueryResult> value) {
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  if (it != registry_.end() && it->second.version == version &&
      it->second.minor == minor) {
    const double cost = value->stats.total_seconds;
    cache_.Put(key, std::move(value), cost);
  }
}

std::shared_ptr<const ShardMap> SkylineEngine::FindShards(
    const std::string& name) const {
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  return it == registry_.end() ? nullptr : it->second.shards;
}

std::vector<std::string> SkylineEngine::DatasetNames() const {
  std::shared_lock lock(registry_mu_);
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& [name, entry] : registry_) names.push_back(name);
  return names;
}

QueryResult SkylineEngine::Execute(const std::string& name,
                                   const QuerySpec& spec,
                                   const Options& opts) {
  WallTimer timer;
  obs::TraceScope root = obs::TraceScope::Root(opts.trace, "query");
  root.Attr("dataset", name);
  std::shared_ptr<const ShardMap> shards;
  uint64_t version = 0;
  uint64_t minor = 0;
  {
    std::shared_lock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it == registry_.end()) {
      throw std::runtime_error("query engine: unknown dataset '" + name + "'");
    }
    shards = it->second.shards;
    version = it->second.version;
    minor = it->second.minor;
  }

  // Stage results for the outcome point: the plan once planned, and the
  // loads finished (counted as they finish, so an aborted query reports
  // them too).
  std::optional<ExecutionPlan> plan;
  std::atomic<uint32_t> view_builds{0};
  enum class Exit { kHit, kShed, kAborted, kFresh };
  // The one outcome point every exit returns through: it feeds the
  // registry and stamps the root span. `cause` is the outcome before any
  // degraded fallback (a timed-out query answered stale still timed out).
  const auto finish = [&](QueryResult out, Exit exit, Status cause) {
    if (config_.metrics) {
      const double elapsed = timer.Seconds();
      inst_.queries->Add();
      inst_.latency->Observe(elapsed);
      if (exit == Exit::kShed) inst_.shed->Add();
      if (cause == Status::kDeadlineExceeded) inst_.deadline_exceeded->Add();
      if (out.stale || out.truncated) inst_.degraded->Add();
      if (plan.has_value()) {
        inst_.planner.Record(*plan);
        inst_.view_builds->Add(view_builds.load(std::memory_order_relaxed));
      }
      if (exit == Exit::kFresh) {
        inst_.compute->Observe(elapsed);
        // Planner decision tally: one bump per executed shard under the
        // algorithm it actually ran (explicit and auto picks alike).
        for (const Algorithm a : out.shard_algorithms) {
          inst_.algorithm[static_cast<size_t>(a)]->Add();
        }
      }
    }
    const bool exact = out.status == Status::kOk && !out.stale;
    if (!exact) root.Attr("status", StatusName(out.status));
    if (out.truncated) root.Attr("truncated", "true");
    if (out.stale) root.Attr("stale", "true");
    if (exact) root.AttrCount("members", out.ids.size());
    out.trace = root.Finish();
    return out;
  };

  // Serving-wide auto-selection overrides the caller's algorithm; the
  // planner then resolves it per executed shard. Every
  // parallel stage of this request — shard fan-out, intra-shard phase
  // loops, the merge — runs as capped task groups on the engine's shared
  // executor; Options::threads is the request's concurrency limit there.
  Options eff = opts;
  eff.executor = &executor_;
  if (config_.auto_algorithm) eff.algorithm = Algorithm::kAuto;

  // Canonicalize before keying so equivalent spellings share an entry.
  // Sharding and algorithm choice are invisible to the key: results are
  // row-for-row identical for every K and every algorithm, so one entry
  // serves all decompositions and selections. Minor versions are
  // invisible too — a mutation edits the entries under these keys in
  // place (remap or erase) rather than abandoning them.
  const QuerySpec canon = spec.Canonicalize(shards->dims());
  const std::string key = CacheKeyPrefix(version) + canon.CanonicalKey();
  // Lookup. Under serve_stale the keep-expired variant is used so a
  // TTL-expired entry stays resident as the degraded fallback for a shed
  // or timed-out compute below — the plain Get would erase it.
  const double lookup_start = root.Now();
  std::shared_ptr<const QueryResult> stale_fallback;
  std::shared_ptr<const QueryResult> hit;
  if (config_.serve_stale) {
    bool expired = false;
    std::shared_ptr<const QueryResult> entry =
        cache_.GetAllowStale(key, &expired);
    (expired ? stale_fallback : hit) = std::move(entry);
  } else {
    hit = cache_.Get(key);
  }
  root.Attr("cache", hit != nullptr ? "hit" : "miss");
  if (hit != nullptr) {
    // Cached entries never carry the producing run's trace; a hit's tree
    // is the root and its lookup.
    const obs::TraceScope get(root, "cache.get", -1, lookup_start,
                              root.Now() - lookup_start);
    QueryResult out = *hit;
    out.cache_hit = true;
    return finish(std::move(out), Exit::kHit, Status::kOk);
  }

  // The degraded answer a shed or timed-out compute falls back to: the
  // TTL-expired entry kept under serve_stale, marked stale — else an
  // empty result with `status`.
  const auto stale_or = [&](Status status) {
    QueryResult out;
    out.status = status;
    if (stale_fallback != nullptr) {
      out = *stale_fallback;
      out.cache_hit = true;
      out.stale = true;
    }
    return out;
  };

  // Admission control — after the cache lookup (hits are cheap and
  // always served), before any compute resource is committed. The
  // in-flight gauge is an advisory shed threshold, not a synchronisation
  // point, so relaxed ops suffice.
  const int prior_inflight = inflight_.fetch_add(1, std::memory_order_relaxed);
  struct InflightGuard {
    std::atomic<int>& gauge;
    ~InflightGuard() { gauge.fetch_sub(1, std::memory_order_relaxed); }
  } inflight_guard{inflight_};
  if (config_.max_inflight > 0 && prior_inflight >= config_.max_inflight) {
    return finish(stale_or(Status::kOverloaded), Exit::kShed,
                  Status::kOverloaded);
  }

  // Per-query deadline/cancel token, armed here rather than in
  // ComputeSkyline so every engine stage — loads and zonemap builds, the
  // shard fan-out, the merge — shares one budget with the algorithm
  // block loops (eff.deadline_ms is cleared so dispatch does not re-arm).
  CancelToken query_token(eff.deadline_ms);
  if (eff.deadline_ms > 0 || eff.cancel != nullptr) {
    query_token.set_parent(eff.cancel);
    eff.cancel = &query_token;
    eff.deadline_ms = 0;
  }
  // Progressive requests additionally accumulate every confirmed batch
  // (already mapped to original-dataset ids by the paths that remap
  // before forwarding), so a deadline overrun can still answer with a
  // well-formed partial — each id a true member — flagged `truncated`.
  std::vector<PointId> confirmed_prefix;
  if (eff.progressive) {
    const ProgressiveCallback user_cb = eff.progressive;
    std::vector<PointId>* sink = &confirmed_prefix;
    eff.progressive = [user_cb, sink](std::span<const PointId> ids) {
      sink->insert(sink->end(), ids.begin(), ids.end());
      user_cb(ids);
    };
  }

  // A compute that did not finish: a deadline overrun answers with the
  // truncated progressive prefix (it is fresh) or else the stale entry;
  // other causes carry no rows. Nothing partial, stale, or failed is
  // ever cached.
  const auto finish_aborted = [&](Status cause) {
    QueryResult out;
    out.status = cause;
    if (cause == Status::kDeadlineExceeded && !confirmed_prefix.empty()) {
      // Confirmed members only: no top-k ranking, and zero dominator
      // counts keep the parallel-array invariant.
      out.ids = std::move(confirmed_prefix);
      out.dominator_counts.assign(out.ids.size(), 0u);
      out.truncated = true;
    } else if (cause == Status::kDeadlineExceeded) {
      out = stale_or(cause);
    }
    return finish(std::move(out), Exit::kAborted, cause);
  };

  QueryResult fresh;
  try {
    plan = PlanStage(root, *shards, canon, eff);
    fresh = ExecuteShardedPlan(*shards, *plan, canon, eff, root, view_builds);
    fresh.constraints = canon.constraints;
    const obs::TraceScope put(root, "cache.put");
    try {
      SKY_FAILPOINT("result_cache_put");
      PutIfCurrent(name, version, minor, key,
                   std::make_shared<const QueryResult>(fresh));
    } catch (...) {
      // A failed cache insert (result_cache_put failpoint) never fails
      // the query: the computed result is simply served uncached.
    }
  } catch (const CancelledError& err) {
    // Cooperative unwind: a checkpoint observed the tripped token and
    // threw; every TaskGroup on the way captured the exception,
    // cancelled its siblings, and rethrew at the join — the engine,
    // registry, and caches are exactly as before the query.
    return finish_aborted(err.reason());
  } catch (const std::bad_alloc&) {
    return finish_aborted(Status::kInternalError);
  } catch (const std::exception&) {
    // Contained worker failure (failpoints included). Unknown datasets
    // and invalid specs threw before this block and still propagate.
    return finish_aborted(Status::kInternalError);
  }
  return finish(std::move(fresh), Exit::kFresh, Status::kOk);
}

namespace {

/// Grow [lo, hi] to cover `row`, per-dim, NaN coordinates excluded (the
/// same convention as the shard boxes: a NaN coordinate can never satisfy
/// a closed-interval constraint, and any row that does satisfy one has a
/// non-NaN, box-covered coordinate there — so box-miss still proves no
/// mutated row is inside the constraint region).
void GrowBox(std::vector<Value>& lo, std::vector<Value>& hi,
             const Value* row, int dims) {
  for (int j = 0; j < dims; ++j) {
    if (row[j] < lo[static_cast<size_t>(j)]) {
      lo[static_cast<size_t>(j)] = row[j];
    }
    if (row[j] > hi[static_cast<size_t>(j)]) {
      hi[static_cast<size_t>(j)] = row[j];
    }
  }
}

std::vector<Value> EmptyBoxLo(int dims) {
  return std::vector<Value>(static_cast<size_t>(dims),
                            std::numeric_limits<Value>::infinity());
}

std::vector<Value> EmptyBoxHi(int dims) {
  return std::vector<Value>(static_cast<size_t>(dims),
                            -std::numeric_limits<Value>::infinity());
}

}  // namespace

uint64_t SkylineEngine::MinorVersion(const std::string& name) const {
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  return it == registry_.end() ? 0 : it->second.minor;
}

SkylineEngine::Registered SkylineEngine::MutationSnapshot(
    const std::string& name) const {
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    throw std::runtime_error("query engine: unknown dataset '" + name + "'");
  }
  return it->second;
}

RepairStats SkylineEngine::RepairShards(
    size_t n, const std::function<void(size_t, RepairStats*)>& repair) {
  // Each touched shard's repair is an independent pure function of
  // immutable inputs, so the repairs fan out as a capped task group on
  // the engine's shared executor (a cap of 1 runs inline with no
  // synchronisation). Each slot gets its own RepairStats; summed after
  // the join.
  std::vector<RepairStats> stats(n);
  Executor::TaskGroup group(executor_, std::min<int>(Executor::DefaultThreads(),
                                                    static_cast<int>(n)));
  group.ParallelFor(n, 1, [&](size_t lo, size_t hi) {
    for (size_t t = lo; t < hi; ++t) {
      // A repair failure (failpoint or real) unwinds out of the join and
      // aborts the whole batch pre-publish: the registry still holds the
      // untouched generation.
      SKY_FAILPOINT("shard_repair");
      repair(t, &stats[t]);
    }
  });
  RepairStats sum;
  for (const RepairStats& rs : stats) sum += rs;
  return sum;
}

uint64_t SkylineEngine::Mutate(
    const std::string& name, obs::Counter* batches, obs::Counter* rows,
    const std::function<size_t(const Registered&, MutationDelta&)>& repair) {
  WallTimer timer;
  std::lock_guard<std::mutex> mutation_lock(mutation_mu_);
  // The repair runs without the registry lock (every input is an
  // immutable COW snapshot); publish revalidates under the exclusive
  // lock. mutation_mu_ keeps other mutation batches out, but a
  // concurrent RegisterDataset can still replace the generation
  // mid-repair — the repair is then discarded and retried against the
  // new generation.
  RepairStats work;  // every attempt's repairs, discarded ones included
  uint64_t retries = 0;
  for (;;) {
    const Registered snap = MutationSnapshot(name);
    MutationDelta delta;
    const size_t mutated = repair(snap, delta);
    if (mutated == 0) return snap.minor;  // nothing mutated: no bump, no fixup
    work += delta.repair;
    // Publish: install the repaired map as generation (version, minor + 1)
    // and fix up the result cache, under the exclusive registry lock.
    uint64_t bumped = 0;
    size_t invalidated = 0;
    {
      std::unique_lock lock(registry_mu_);
      auto it = registry_.find(name);
      if (it == registry_.end()) {
        throw std::runtime_error("query engine: dataset '" + name +
                                 "' evicted during a mutation");
      }
      if (it->second.version != snap.version) {  // replaced: retry
        ++retries;
        continue;
      }
      it->second.data = nullptr;  // Find() rebuilds it lazily from the shards
      it->second.shards = delta.map;
      it->second.count = delta.count;
      bumped = ++it->second.minor;
      invalidated = FixupResultsLocked(CacheKeyPrefix(snap.version), delta);
    }
    // The mutation outcome point: every mutation series, recorded once.
    if (config_.metrics) {
      batches->Add();
      rows->Add(mutated);
      inst_.retries->Add(retries);
      inst_.repair_dom_tests->Add(work.dom_tests);
      inst_.sketch_rebuilds->Add(work.sketch_rebuilds);
      inst_.zonemap_repairs->Add(work.zonemap_repairs);
      inst_.invalidated_results->Add(invalidated);
      inst_.mutation_latency->Observe(timer.Seconds());
    }
    return bumped;
  }
}

uint64_t SkylineEngine::InsertPoints(const std::string& name,
                                     const Dataset& rows) {
  const auto repair = [&](const Registered& snap,
                          MutationDelta& delta) -> size_t {
    const ShardMap& map = *snap.shards;
    if (rows.dims() != snap.dims) {
      throw std::runtime_error(
          "query engine: InsertPoints dimensionality mismatch");
    }
    const size_t add = rows.count();
    if (add == 0) return 0;  // nothing mutated: no bump, no fixup

    delta.count = snap.count + add;
    delta.lo = EmptyBoxLo(snap.dims);
    delta.hi = EmptyBoxHi(snap.dims);
    for (size_t b = 0; b < add; ++b) {
      GrowBox(delta.lo, delta.hi, rows.Row(b), snap.dims);
    }

    // Route each batch row to its shard, rebuild only the shards that
    // received rows (delta.h repairs their skyline / box / sketch /
    // zonemap index incrementally), and share every other shard by
    // pointer, so the batch costs O(touched shards), not O(n).
    const size_t n_shards = map.shard_count();
    std::vector<std::vector<size_t>> routed(n_shards);
    for (size_t b = 0; b < add; ++b) {
      routed[map.RouteInsert(rows.Row(b))].push_back(b);
    }
    std::vector<size_t> touched_idx;
    for (size_t s = 0; s < n_shards; ++s) {
      if (!routed[s].empty()) touched_idx.push_back(s);
    }
    std::vector<std::shared_ptr<const Shard>> repaired(touched_idx.size());
    delta.repair =
        RepairShards(touched_idx.size(), [&](size_t t, RepairStats* stats) {
          const size_t s = touched_idx[t];
          repaired[t] = ShardWithInserts(map.shard(s), rows, routed[s],
                                         static_cast<PointId>(snap.count),
                                         /*sketch_seed=*/snap.version + s,
                                         stats);
        });
    ShardMap next = map;
    for (size_t t = 0; t < touched_idx.size(); ++t) {
      next.ReplaceShard(touched_idx[t], std::move(repaired[t]));
    }
    delta.map = std::make_shared<const ShardMap>(std::move(next));
    return add;
  };
  return Mutate(name, inst_.inserts, inst_.rows_inserted, repair);
}

uint64_t SkylineEngine::DeletePoints(const std::string& name,
                                     std::span<const PointId> ids) {
  const auto repair = [&](const Registered& snap,
                          MutationDelta& delta) -> size_t {
    const ShardMap& map = *snap.shards;
    std::vector<PointId> drop(ids.begin(), ids.end());
    std::sort(drop.begin(), drop.end());
    drop.erase(std::unique(drop.begin(), drop.end()), drop.end());
    if (!drop.empty() && drop.back() >= snap.count) {
      throw std::runtime_error("query engine: DeletePoints id out of range");
    }
    if (drop.empty()) return 0;
    delta.count = snap.count - drop.size();

    // Compaction map: a surviving global id shifts down by the number of
    // deleted ids below it.
    std::vector<uint8_t> deleted(snap.count, 0);
    for (const PointId id : drop) deleted[id] = 1;
    delta.id_shift.assign(snap.count, 0);
    uint32_t cum = 0;
    for (size_t i = 0; i < snap.count; ++i) {
      delta.id_shift[i] = cum;
      cum += deleted[i];
    }

    // Shards that lost rows get a delta repair (re-promotion scan +
    // compaction); every other shard only has its global row ids
    // compacted through the shift, sharing rows / skyline / sketch /
    // zonemap index with the old shard.
    delta.lo = EmptyBoxLo(snap.dims);
    delta.hi = EmptyBoxHi(snap.dims);
    const size_t n_shards = map.shard_count();
    std::vector<std::vector<PointId>> drop_locals(n_shards);
    std::vector<size_t> touched_idx;
    for (size_t s = 0; s < n_shards; ++s) {
      const Shard& shard = map.shard(s);
      for (size_t i = 0; i < shard.rows().count(); ++i) {
        if (!deleted[shard.global_id(i)]) continue;
        drop_locals[s].push_back(static_cast<PointId>(i));
        GrowBox(delta.lo, delta.hi, shard.rows().Row(i), snap.dims);
      }
      if (!drop_locals[s].empty()) touched_idx.push_back(s);
    }
    std::vector<std::shared_ptr<const Shard>> repaired(n_shards);
    delta.repair =
        RepairShards(touched_idx.size(), [&](size_t t, RepairStats* stats) {
          const size_t s = touched_idx[t];
          repaired[s] = ShardWithDeletes(map.shard(s), drop_locals[s],
                                         delta.id_shift,
                                         /*sketch_seed=*/snap.version + s,
                                         stats);
        });
    ShardMap next = map;
    for (size_t s = 0; s < n_shards; ++s) {
      next.ReplaceShard(s, repaired[s] != nullptr
                               ? std::move(repaired[s])
                               : ShardWithRemappedIds(map.shard(s),
                                                      delta.id_shift));
    }
    delta.map = std::make_shared<const ShardMap>(std::move(next));
    return drop.size();
  };
  return Mutate(name, inst_.deletes, inst_.rows_deleted, repair);
}

size_t SkylineEngine::FixupResultsLocked(const std::string& prefix,
                                         const MutationDelta& delta) {
  const bool is_delete = !delta.id_shift.empty();
  // An entry survives iff its constraint box provably excludes every
  // mutated row — then no inserted or deleted row is in the constraint
  // region, so its member set, dominator counts, and matched_rows are all
  // unchanged. Deletes still compact the surviving ids through the shift
  // (no surviving entry can reference a deleted row: deleted rows are
  // outside its box).
  return cache_.EditPrefix(
      prefix,
      [&](const std::string&, const std::shared_ptr<const QueryResult>& v)
          -> std::shared_ptr<const QueryResult> {
        if (v->constraints.empty() ||
            BoxIntersectsConstraints(delta.lo, delta.hi, v->constraints)) {
          return nullptr;
        }
        if (!is_delete) return v;
        auto remapped = std::make_shared<QueryResult>(*v);
        for (PointId& id : remapped->ids) id -= delta.id_shift[id];
        return remapped;
      });
}

}  // namespace sky
