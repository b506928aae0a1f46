// Copyright (c) SkyBench-NG contributors.
#include "query/engine.h"

#include <algorithm>
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
#include "core/zonemap_skyline.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"
#include "index/zonemap.h"
#include "query/cost_model.h"
#include "query/delta.h"
#include "query/view.h"

namespace sky {
namespace {

/// Largest candidate union the sharded merge filters directly with the
/// batched tile kernels instead of launching a full skyline algorithm.
/// The direct filter is O(total * m) but skips the WorkingSet copy,
/// sort, and parallel-loop fan-out, which dominate at this scale.
constexpr size_t kBatchMergeMaxRows = 4096;

/// Top-k rank score. NaN (possible in loaded CSV data) sorts last —
/// mapping it to +inf keeps std::sort's strict weak ordering intact.
Value RankScore(const Dataset& view, size_t row) {
  const Value s = ViewRowScore(view, row);
  return std::isnan(s) ? std::numeric_limits<Value>::infinity() : s;
}

/// Rank r's entries by (dominator count asc, view score asc, original id
/// asc) and truncate to top_k. `scores` is parallel to r.ids.
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

/// Execute stage on one already-rewritten target: compute the skyline /
/// k-skyband, map target-local rows to final ids through `row_map`
/// (nullptr = identity), and apply the top-k cap.
QueryResult RunOnTarget(const Dataset& target,
                        const std::vector<PointId>* row_map,
                        const QuerySpec& canon, const Options& opts) {
  QueryResult r;
  r.matched_rows = target.count();
  if (target.count() == 0) return r;

  Options run_opts = opts;
  if (run_opts.algorithm == Algorithm::kAuto) {
    // The engine resolves kAuto in the planner; this covers one-shot
    // RunQuery callers. The target is already constraint-filtered, so a
    // fresh sketch of it is the exact selection input (selectivity 1).
    // Skybands run Q-Flow's block flow whatever the field says — report
    // that truthfully.
    run_opts.algorithm = canon.band_k == 1
                             ? ChooseAlgorithmForDataset(target, run_opts)
                             : Algorithm::kQFlow;
  }
  r.shard_algorithms.assign(1, run_opts.algorithm);
  if (opts.progressive && row_map != nullptr) {
    // Progressive ids must arrive in the caller's row space: remap each
    // confirmed batch out of the view's row numbering before forwarding.
    const ProgressiveCallback callback = opts.progressive;
    run_opts.progressive = [callback, row_map](std::span<const PointId> ids) {
      std::vector<PointId> mapped(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        mapped[i] = (*row_map)[ids[i]];
      }
      callback(mapped);
    };
  }

  std::vector<PointId> view_rows;  // result ids in target-local row space
  if (canon.band_k == 1) {
    Result run = ComputeSkyline(target, run_opts);
    r.stats = run.stats;
    view_rows = std::move(run.skyline);
    r.dominator_counts.assign(view_rows.size(), 0u);
  } else {
    SkybandResult run = ComputeSkyband(target, canon.band_k, run_opts);
    r.stats = run.stats;
    view_rows = std::move(run.skyband);
    r.dominator_counts = std::move(run.dominator_counts);
  }

  r.ids.resize(view_rows.size());
  if (row_map == nullptr) {
    std::copy(view_rows.begin(), view_rows.end(), r.ids.begin());
  } else {
    for (size_t i = 0; i < view_rows.size(); ++i) {
      r.ids[i] = (*row_map)[view_rows[i]];
    }
  }

  if (canon.top_k > 0) {
    std::vector<Value> scores(view_rows.size());
    for (size_t i = 0; i < view_rows.size(); ++i) {
      scores[i] = RankScore(target, view_rows[i]);
    }
    RankAndTruncate(r, canon.top_k, scores);
  }
  r.stats.skyline_size = r.ids.size();
  return r;
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

/// Per-shard execute-stage output, kept alive until the finish stage
/// copies the candidate rows out of the shard view. The trace fields are
/// filled only when a TraceBuilder is attached (spans are emitted
/// post-hoc on the coordinating thread, so worker threads just record
/// timings here).
struct ShardPartial {
  /// The shard view the candidates index; null when they index the raw
  /// shard rows (identity specs, maintained and zonemap-direct runs).
  std::unique_ptr<const QueryView> view;
  std::vector<PointId> cand_rows;  // target-local candidate rows
  std::vector<uint32_t> counts;    // k-skyband dominator counts, if band_k > 1
  RunStats stats;
  size_t matched = 0;          // rows inside the constraint box
  double trace_start = 0.0;    // seconds since the trace epoch
  double trace_seconds = 0.0;  // shard wall time
  bool maintained = false;     // served from the maintained shard skyline
  bool direct = false;         // ran the zonemap direct path (no view)

  const Dataset& target(const Shard& shard) const {
    return view != nullptr ? view->data : shard.rows();
  }
  PointId global_id(const Shard& shard, PointId row) const {
    return shard.global_id(view != nullptr ? view->row_ids[row] : row);
  }
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
                                obs::TraceBuilder* tb, int trace_parent) {
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
  const double merge_start = tb != nullptr ? tb->Now() : 0.0;
  uint64_t merge_dts = 0;
  const char* merge_path = "empty";
  merged = Dataset(view_dims, total);
  std::vector<PointId> merged_ids(total);
  const size_t row_bytes = sizeof(Value) * static_cast<size_t>(view_dims);
  size_t w = 0;
  for (size_t s = 0; s < parts.size(); ++s) {
    const Shard& shard = map.shard(plan.shards[s]);
    const ShardPartial& p = parts[s];
    // Raw-row partials (identity, maintained, direct) are already view
    // rows: box-only and identity specs keep every dimension unchanged.
    const Dataset& target = p.target(shard);
    for (const PointId row : p.cand_rows) {
      std::memcpy(merged.MutableRow(w), target.Row(row), row_bytes);
      merged_ids[w] = p.global_id(shard, row);
      ++w;
    }
  }

  std::vector<PointId> members;
  const DomCtx merge_dom(view_dims, merged.stride(), opts.use_simd,
                         opts.use_batch);
  if (total > 0 && canon.band_k == 1 && merge_dom.batch() &&
      total <= kBatchMergeMaxRows) {
    // Small unions skip the full algorithm run: tile the union once and
    // dominance-filter every candidate against it with the cache-blocked
    // batch kernel. A candidate never dominates itself (coincident
    // points do not dominate), so no self-exclusion is needed and the
    // surviving set is exactly SKY(union) with duplicates retained —
    // identical to what ComputeSkyline would return, minus its
    // WorkingSet copy, sort, and parallel-loop fan-out.
    TileBlock tiles(view_dims, total);
    tiles.AppendRows(merged.Row(0), merged.stride(), total);
    std::vector<uint8_t> dominated(total, 0);
    uint64_t dts = 0;
    merge_dom.FilterTile(merged.Row(0), total, tiles, dominated.data(),
                         &dts);
    members.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      if (dominated[i] == 0) members.push_back(static_cast<PointId>(i));
    }
    if (opts.count_dts) r.stats.dominance_tests += dts;
    merge_dts = dts;
    merge_path = "batch-filter";
    r.dominator_counts.assign(members.size(), 0u);
    if (opts.progressive && !members.empty()) {
      // The union contains the whole answer, so every survivor is a
      // confirmed global member: stream them as one block in caller row
      // space.
      std::vector<PointId> mapped(members.size());
      for (size_t i = 0; i < members.size(); ++i) {
        mapped[i] = merged_ids[members[i]];
      }
      opts.progressive(mapped);
    }
  } else if (total > 0 && canon.band_k > 1 && merge_dom.batch() &&
             total <= kBatchMergeMaxRows) {
    // Depth-aware twin of the batch filter above: tile the union once
    // and count each candidate's dominators with the capped tile kernel.
    // A count below band_k is exact (and, by the union-merge proof, the
    // candidate's exact global count); at or above the cap the candidate
    // is out regardless of the overshoot. Like ComputeSkyband, this path
    // never streams — partial counts confirm nothing early.
    TileBlock tiles(view_dims, total);
    tiles.AppendRows(merged.Row(0), merged.stride(), total);
    uint64_t dts = 0;
    members.reserve(total);
    r.dominator_counts.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      const uint32_t c = merge_dom.CountDominators(
          merged.Row(i), tiles, total, canon.band_k,
          opts.count_dts ? &dts : nullptr);
      if (c < canon.band_k) {
        members.push_back(static_cast<PointId>(i));
        r.dominator_counts.push_back(c);
      }
    }
    if (opts.count_dts) r.stats.dominance_tests += dts;
    merge_dts = dts;
    merge_path = "batch-count";
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
      const ProgressiveCallback callback = opts.progressive;
      const std::vector<PointId>& union_ids = merged_ids;
      merge_opts.progressive = [callback,
                                &union_ids](std::span<const PointId> rows) {
        std::vector<PointId> mapped(rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          mapped[i] = union_ids[rows[i]];
        }
        callback(mapped);
      };
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
  if (tb != nullptr) {
    const int span = tb->AddSpan("merge", trace_parent, merge_start,
                                 tb->Now() - merge_start);
    tb->Attr(span, "strategy", MergeStrategyName(plan.merge));
    tb->Attr(span, "path", merge_path);
    tb->AttrCount(span, "union", total);
    tb->AttrCount(span, "members", members.size());
    if (opts.count_dts || merge_dts > 0) {
      tb->AttrCount(span, "dom_tests", merge_dts);
    }
  }
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
/// Every non-identity shard run materializes its own view (counted in
/// `view_builds` when non-null); zonemap-direct runs use the shard's own
/// index unless Options::block_rows asks for a private one.
QueryResult ExecuteShardedPlan(const ShardMap& map, const ExecutionPlan& plan,
                               const QuerySpec& canon, const Options& opts,
                               obs::Counter* view_builds = nullptr,
                               obs::TraceBuilder* tb = nullptr,
                               int trace_parent = -1) {
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
  // Band-1 box-only specs let Algorithm::kZonemap run on the raw shard
  // rows (constraint box applied during the traversal), skipping view
  // materialization entirely.
  const bool zonemap_direct = canon.band_k == 1 && canon.IsBoxOnlyTransform();
  // Per-shard algorithm: the plan's cost-model picks when the request
  // was kAuto, the caller's explicit choice otherwise.
  const auto algo_of = [&](size_t s) {
    return plan.algorithms.empty() ? opts.algorithm : plan.algorithms[s];
  };
  /// Index for a direct run: the shard's own, or a private build when
  /// Options::block_rows asks for another block size.
  const auto zonemap_of =
      [&](const Shard& shard) -> std::shared_ptr<const ZoneMapIndex> {
    if (opts.block_rows == 0 ||
        opts.block_rows == ZoneMapIndex::kDefaultBlockRows) {
      return shard.zonemap();
    }
    return std::make_shared<const ZoneMapIndex>(
        ZoneMapIndex::Build(shard.rows(), opts.block_rows, &shard.sketch));
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
    // tb->Now() only reads the immutable epoch and the steady clock, so
    // worker threads may stamp their own slots concurrently.
    if (tb != nullptr) p.trace_start = tb->Now();
    Options one = shard_opts;
    one.algorithm = algo_of(s);
    if (single && opts.progressive) {
      one.progressive = [&](std::span<const PointId> rows) {
        std::vector<PointId> mapped(rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          mapped[i] = p.global_id(shard, rows[i]);
        }
        opts.progressive(mapped);
      };
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
    } else if (zonemap_direct && one.algorithm == Algorithm::kZonemap) {
      // Direct path: traverse the shard's zonemap index against the
      // constraint box on raw rows — no view. A first use builds the
      // index; its cost lands in other_seconds.
      p.direct = true;
      if (shard.rows().count() > 0) {
        WallTimer index_timer;
        const std::shared_ptr<const ZoneMapIndex> zm = zonemap_of(shard);
        const double index_seconds = index_timer.Seconds();
        ZonemapRunResult run =
            ZonemapSkylineRun(shard.rows(), *zm, canon.constraints, one);
        p.stats = run.stats;
        p.stats.other_seconds += index_seconds;
        p.cand_rows = std::move(run.skyline);
        p.matched = run.matched_rows;
      }
    } else {
      if (!identity) {
        p.view = std::make_unique<const QueryView>(
            MaterializeView(shard.rows(), canon, one));
        if (view_builds != nullptr) view_builds->Add();
      }
      const Dataset& target = p.target(shard);
      p.matched = target.count();
      if (target.count() > 0 && canon.band_k == 1) {
        Result run = ComputeSkyline(target, one);
        p.stats = run.stats;
        p.cand_rows = std::move(run.skyline);
      } else if (target.count() > 0) {
        SkybandResult run = ComputeSkyband(target, canon.band_k, one);
        p.stats = run.stats;
        p.cand_rows = std::move(run.skyband);
        p.counts = std::move(run.dominator_counts);
      }
    }
    if (tb != nullptr) p.trace_seconds = tb->Now() - p.trace_start;
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
    if (tb != nullptr && group.parallelism() > 1) {
      // Scheduler accounting for the fan-out group: how many distinct
      // participants (workers + the caller) touched this query, how many
      // tasks it submitted or ran inline, and how many were stolen. A
      // width-1 group ran the shards on the caller without touching the
      // executor, so it has nothing to report.
      const Executor::GroupStats exec_stats = group.stats();
      tb->AttrCount(trace_parent, "executor.workers",
                    static_cast<size_t>(exec_stats.workers_used));
      tb->AttrCount(trace_parent, "executor.tasks",
                    static_cast<size_t>(exec_stats.tasks +
                                        exec_stats.inline_runs));
      tb->AttrCount(trace_parent, "executor.steals",
                    static_cast<size_t>(exec_stats.steals));
    }
  }
  r.shard_algorithms.resize(n_shards);
  for (size_t s = 0; s < n_shards; ++s) r.shard_algorithms[s] = algo_of(s);
  if (tb != nullptr) {
    // Spans are emitted post-hoc, in shard order, from the timings the
    // (possibly parallel) executors stamped into their slots.
    for (size_t s = 0; s < n_shards; ++s) {
      const ShardPartial& p = parts[s];
      const int span =
          tb->AddSpan("shard[" + std::to_string(plan.shards[s]) + "]",
                      trace_parent, p.trace_start, p.trace_seconds);
      tb->Attr(span, "algo", AlgorithmName(algo_of(s)));
      tb->AttrCount(span, "rows", p.matched);
      tb->AttrCount(span, "candidates", p.cand_rows.size());
      if (opts.count_dts) {
        tb->AttrCount(span, "dom_tests", p.stats.dominance_tests);
      }
      if (p.maintained) tb->Attr(span, "maintained", "true");
      if (p.direct) {
        tb->Attr(span, "view", "direct");
      } else if (p.view != nullptr) {
        tb->Attr(span, "view", "build");
        tb->AttrCount(span, "threads",
                      static_cast<uint64_t>(p.view->build_threads));
      }
    }
  }

  for (const ShardPartial& p : parts) {
    r.matched_rows += p.matched;
    AccumulateStats(r.stats, p.stats);
    if (p.view != nullptr) {
      r.stats.other_seconds += p.view->materialize_seconds;
    }
  }

  // Finish stage: `members` index the rows of `final_rows` — the lone
  // shard's target, or the merged candidate union.
  std::vector<PointId> members;
  const Dataset* final_rows = nullptr;
  Dataset merged;
  if (single) {
    ShardPartial& p = parts[0];
    const Shard& shard = map.shard(plan.shards[0]);
    final_rows = &p.target(shard);
    members = std::move(p.cand_rows);
    r.ids.resize(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      r.ids[i] = p.global_id(shard, members[i]);
    }
    if (canon.band_k > 1) {
      r.dominator_counts = std::move(p.counts);
    } else {
      r.dominator_counts.assign(members.size(), 0u);
    }
  } else {
    members =
        MergeUnion(map, plan, canon, opts, parts, merged, r, tb, trace_parent);
    final_rows = &merged;
  }
  if (canon.top_k > 0) {
    std::vector<Value> scores(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      scores[i] = RankScore(*final_rows, members[i]);
    }
    RankAndTruncate(r, canon.top_k, scores);
  }
  r.stats.skyline_size = r.ids.size();
  r.stats.total_seconds = timer.Seconds();
  return r;
}

}  // namespace

QueryResult RunQuery(const Dataset& data, const QuerySpec& spec,
                     const Options& opts) {
  const QuerySpec canon = spec.Canonicalize(data.dims());
  if (!opts.trace) {
    // Fast path: the native question needs no view at all.
    if (canon.IsIdentityTransform()) {
      return RunOnTarget(data, nullptr, canon, opts);
    }
    const QueryView view = MaterializeView(data, canon, opts);
    QueryResult r = RunOnTarget(view.data, &view.row_ids, canon, opts);
    r.stats.other_seconds += view.materialize_seconds;
    r.stats.total_seconds += view.materialize_seconds;
    return r;
  }
  obs::TraceBuilder tb;
  const int root = tb.Open("query");
  QueryResult r;
  if (canon.IsIdentityTransform()) {
    const int ex = tb.Open("execute", root);
    r = RunOnTarget(data, nullptr, canon, opts);
    tb.Close(ex);
    if (!r.shard_algorithms.empty()) {
      tb.Attr(ex, "algo", AlgorithmName(r.shard_algorithms[0]));
    }
    tb.AttrCount(ex, "rows", r.matched_rows);
  } else {
    const int vs = tb.Open("view.build", root);
    const QueryView view = MaterializeView(data, canon, opts);
    tb.Close(vs);
    tb.AttrCount(vs, "rows", view.data.count());
    tb.AttrCount(vs, "threads", static_cast<uint64_t>(view.build_threads));
    const int ex = tb.Open("execute", root);
    r = RunOnTarget(view.data, &view.row_ids, canon, opts);
    tb.Close(ex);
    if (!r.shard_algorithms.empty()) {
      tb.Attr(ex, "algo", AlgorithmName(r.shard_algorithms[0]));
    }
    tb.AttrCount(ex, "rows", r.matched_rows);
    r.stats.other_seconds += view.materialize_seconds;
    r.stats.total_seconds += view.materialize_seconds;
  }
  tb.AttrCount(root, "members", r.ids.size());
  tb.Close(root);
  r.trace = tb.Finish();
  return r;
}

QueryResult RunShardedQuery(const ShardMap& map, const QuerySpec& spec,
                            const Options& opts) {
  const QuerySpec canon = spec.Canonicalize(map.dims());
  if (!opts.trace) {
    return ExecuteShardedPlan(map, PlanQuery(map, canon, opts), canon, opts);
  }
  obs::TraceBuilder tb;
  const int root = tb.Open("query");
  const int ps = tb.Open("plan", root);
  const ExecutionPlan plan = PlanQuery(map, canon, opts);
  tb.Close(ps);
  tb.AttrCount(ps, "shards", plan.shards.size());
  tb.AttrCount(ps, "pruned", plan.pruned);
  tb.Attr(ps, "merge", MergeStrategyName(plan.merge));
  QueryResult r =
      ExecuteShardedPlan(map, plan, canon, opts, nullptr, &tb, root);
  tb.AttrCount(root, "members", r.ids.size());
  tb.Close(root);
  r.trace = tb.Finish();
  return r;
}

size_t QueryResultBytes(const QueryResult& r) {
  return sizeof(QueryResult) + r.ids.size() * sizeof(PointId) +
         r.dominator_counts.size() * sizeof(uint32_t) +
         r.shard_algorithms.size() * sizeof(Algorithm) +
         r.constraints.size() * sizeof(DimConstraint);
}

bool VerifyQuery(const Dataset& data, const QuerySpec& spec,
                 const QueryResult& r) {
  // Brute-force reference: count dominators by definition with plain
  // nested loops on the materialized view — no ComputeSkyline /
  // ComputeSkyband code path is shared, so an algorithm bug cannot
  // reproduce itself in the reference (only the rewriter is common).
  const QuerySpec canon = spec.Canonicalize(data.dims());
  const QueryView view = MaterializeView(data, canon);
  const Dataset& v = view.data;
  const int d = v.dims();

  std::vector<PointId> rows;     // view-local qualifying rows
  std::vector<uint32_t> counts;  // their exact dominator counts
  for (size_t i = 0; i < v.count(); ++i) {
    const Value* q = v.Row(i);
    uint32_t c = 0;
    for (size_t j = 0; j < v.count() && c < canon.band_k; ++j) {
      if (j == i) continue;
      const Value* p = v.Row(j);
      bool all_le = true, some_lt = false;
      for (int k = 0; k < d; ++k) {
        all_le &= p[k] <= q[k];
        some_lt |= p[k] < q[k];
      }
      c += (all_le && some_lt);
    }
    if (c < canon.band_k) {
      rows.push_back(static_cast<PointId>(i));
      counts.push_back(c);
    }
  }

  std::vector<std::pair<PointId, uint32_t>> expect;
  if (canon.top_k > 0) {
    std::vector<size_t> order(rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (counts[a] != counts[b]) return counts[a] < counts[b];
      const Value sa = RankScore(v, rows[a]), sb = RankScore(v, rows[b]);
      if (sa != sb) return sa < sb;
      return view.row_ids[rows[a]] < view.row_ids[rows[b]];
    });
    const size_t keep = std::min(canon.top_k, order.size());
    for (size_t i = 0; i < keep; ++i) {
      expect.emplace_back(view.row_ids[rows[order[i]]], counts[order[i]]);
    }
    // Ranked results are fully deterministic: compare in order.
    std::vector<std::pair<PointId, uint32_t>> got;
    for (size_t i = 0; i < r.ids.size(); ++i) {
      got.emplace_back(r.ids[i], r.dominator_counts[i]);
    }
    return got == expect;
  }

  for (size_t i = 0; i < rows.size(); ++i) {
    expect.emplace_back(view.row_ids[rows[i]], counts[i]);
  }
  std::vector<std::pair<PointId, uint32_t>> got;
  for (size_t i = 0; i < r.ids.size(); ++i) {
    got.emplace_back(r.ids[i], r.dominator_counts[i]);
  }
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  return got == expect;
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

EngineMetricsSnapshot SkylineEngine::MetricsSnapshot() const {
  EngineMetricsSnapshot s;
  s.result_cache = cache_.counters();
  std::shared_lock lock(registry_mu_);
  s.datasets = registry_.size();
  return s;
}

namespace {

/// Append the result cache's counters as registry-style metric values —
/// the cache keeps its own counters under its own mutex (they work even
/// with Config::metrics off), so the registry reads them at snapshot time
/// through a collector instead of double-counting on the hot path.
void AppendCacheMetrics(const LruCache<QueryResult>::Counters& c,
                        std::vector<obs::MetricValue>& out) {
  const auto push = [&out](std::string name, const char* help,
                           obs::MetricKind kind, double value) {
    obs::MetricValue m;
    m.name = std::move(name);
    m.help = help;
    m.kind = kind;
    m.value = value;
    out.push_back(std::move(m));
  };
  const std::string base = "sky_result_cache_";
  using obs::MetricKind;
  push(base + "hits_total", "Cache hits", MetricKind::kCounter,
       static_cast<double>(c.hits));
  push(base + "misses_total", "Cache misses", MetricKind::kCounter,
       static_cast<double>(c.misses));
  push(base + "evictions_total", "Evictions, any cause",
       MetricKind::kCounter, static_cast<double>(c.evictions));
  push(base + "byte_evictions_total", "Evictions forced by the byte budget",
       MetricKind::kCounter, static_cast<double>(c.byte_evictions));
  push(base + "ttl_evictions_total", "Entries lazily expired by the TTL",
       MetricKind::kCounter, static_cast<double>(c.ttl_evictions));
  push(base + "stale_hits_total",
       "TTL-expired entries returned for serve-stale fallback",
       MetricKind::kCounter, static_cast<double>(c.stale_hits));
  push(base + "entries", "Entries currently resident", MetricKind::kGauge,
       static_cast<double>(c.entries));
  push(base + "bytes", "Priced payload bytes currently resident",
       MetricKind::kGauge, static_cast<double>(c.bytes));
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
      "Views materialized by non-identity shard runs");
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
  metrics_.AddCollector([this](std::vector<obs::MetricValue>& out) {
    const EngineMetricsSnapshot s = MetricsSnapshot();
    AppendCacheMetrics(s.result_cache, out);
    obs::MetricValue datasets;
    datasets.name = "sky_datasets";
    datasets.help = "Registered datasets";
    datasets.kind = obs::MetricKind::kGauge;
    datasets.value = static_cast<double>(s.datasets);
    out.push_back(std::move(datasets));
    // Shared-scheduler counters, read from the executor's own atomics at
    // snapshot time (the scheduler keeps them regardless of
    // Config::metrics, like the cache counters above).
    const Executor::CountersSnapshot ex = executor_.Counters();
    const auto push = [&out](const char* name, const char* help,
                             obs::MetricKind kind, double value) {
      obs::MetricValue m;
      m.name = name;
      m.help = help;
      m.kind = kind;
      m.value = value;
      out.push_back(std::move(m));
    };
    push("sky_executor_tasks_total",
         "Tasks executed by the shared work-stealing executor",
         obs::MetricKind::kCounter, static_cast<double>(ex.tasks));
    push("sky_executor_steals_total",
         "Tasks acquired from another worker's deque",
         obs::MetricKind::kCounter, static_cast<double>(ex.steals));
    push("sky_executor_inline_runs_total",
         "Task-group submissions run inline on the submitter "
         "(caller-runs admission)",
         obs::MetricKind::kCounter, static_cast<double>(ex.inline_runs));
    push("sky_executor_parks_total", "Worker park (sleep) events",
         obs::MetricKind::kCounter, static_cast<double>(ex.parks));
    push("sky_executor_queue_depth",
         "Tasks currently queued and not yet running",
         obs::MetricKind::kGauge, static_cast<double>(ex.queue_depth));
    push("sky_executor_workers", "Executor width (including a caller slot)",
         obs::MetricKind::kGauge, static_cast<double>(executor_.threads()));
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
  // reused); free its results instead of letting them squat in the LRU.
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
    cache_.Put(key, std::move(value));
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
  if (hit != nullptr) {
    QueryResult out = *hit;
    out.cache_hit = true;
    if (config_.metrics) {
      inst_.queries->Add();
      inst_.latency->Observe(timer.Seconds());
    }
    if (eff.trace) {
      // Cached entries never carry the producing run's trace; a hit gets
      // a fresh two-span tree stamped post-hoc from the measured lookup.
      obs::TraceBuilder tb;
      const double elapsed = timer.Seconds();
      const int root = tb.AddSpan("query", -1, 0.0, elapsed);
      tb.Attr(root, "dataset", name);
      tb.Attr(root, "cache", "hit");
      tb.AttrCount(root, "members", out.ids.size());
      tb.AddSpan("cache.get", root, 0.0, elapsed);
      out.trace = tb.Finish();
    }
    return out;
  }

  // Admission control — after the cache lookup (hits are cheap and
  // always served), before any compute resource is committed. The
  // in-flight gauge and the executor backlog are advisory shed
  // thresholds, not synchronisation points, so relaxed ops suffice.
  const int prior_inflight = inflight_.fetch_add(1, std::memory_order_relaxed);
  struct InflightGuard {
    std::atomic<int>& gauge;
    ~InflightGuard() { gauge.fetch_sub(1, std::memory_order_relaxed); }
  } inflight_guard{inflight_};
  const bool over_inflight =
      config_.max_inflight > 0 && prior_inflight >= config_.max_inflight;
  const bool over_queue =
      !over_inflight && config_.max_queue_depth > 0 &&
      executor_.Counters().queue_depth > config_.max_queue_depth;
  if (over_inflight || over_queue) {
    QueryResult out;
    if (stale_fallback != nullptr) {
      out = *stale_fallback;
      out.cache_hit = true;
      out.stale = true;
      if (config_.metrics) inst_.degraded->Add();
    } else {
      out.status = Status::kOverloaded;
    }
    if (config_.metrics) {
      inst_.queries->Add();
      inst_.shed->Add();
      inst_.latency->Observe(timer.Seconds());
    }
    return out;
  }

  // Per-query deadline/cancel token, armed here rather than in
  // ComputeSkyline so every engine stage — view and zonemap builds, the
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

  std::optional<obs::TraceBuilder> trace_builder;
  if (eff.trace) trace_builder.emplace();
  obs::TraceBuilder* tb =
      trace_builder.has_value() ? &*trace_builder : nullptr;
  int root = -1;
  if (tb != nullptr) {
    root = tb->Open("query");
    tb->Attr(root, "dataset", name);
    tb->Attr(root, "cache", "miss");
  }

  // Terminal handler for a compute that did not finish: map the cause to
  // a status, attach a degraded answer where policy allows (truncated
  // progressive prefix first — it is fresh — then a stale cache entry),
  // and keep the metrics/trace accounting aligned with the success path.
  // Nothing partial, stale, or failed is ever cached.
  const auto finish_aborted = [&](Status status) {
    QueryResult out;
    out.status = status;
    if (status == Status::kDeadlineExceeded) {
      if (config_.metrics) inst_.deadline_exceeded->Add();
      if (!confirmed_prefix.empty()) {
        // Confirmed members only: no top-k ranking, and zero dominator
        // counts keep the parallel-array invariant.
        out.ids = std::move(confirmed_prefix);
        out.dominator_counts.assign(out.ids.size(), 0u);
        out.truncated = true;
        if (config_.metrics) inst_.degraded->Add();
      } else if (stale_fallback != nullptr) {
        out = *stale_fallback;
        out.cache_hit = true;
        out.stale = true;
        if (config_.metrics) inst_.degraded->Add();
      }
    }
    if (config_.metrics) {
      inst_.queries->Add();
      inst_.latency->Observe(timer.Seconds());
    }
    if (tb != nullptr) {
      tb->Attr(root, "status", StatusName(out.status));
      if (out.truncated) tb->Attr(root, "truncated", "true");
      if (out.stale) tb->Attr(root, "stale", "true");
      tb->Close(root);
      out.trace = tb->Finish();
    }
    return out;
  };

  try {
    int plan_span = -1;
    if (tb != nullptr) plan_span = tb->Open("plan", root);
    const ExecutionPlan plan = PlanQuery(
        *shards, canon, eff, config_.metrics ? &inst_.planner : nullptr,
        config_.cost_learning ? &learner_ : nullptr);
    if (tb != nullptr) {
      tb->Close(plan_span);
      tb->AttrCount(plan_span, "shards", plan.shards.size());
      tb->AttrCount(plan_span, "pruned", plan.pruned);
      tb->Attr(plan_span, "merge", MergeStrategyName(plan.merge));
      tb->AttrCount(plan_span, "shard_threads",
                    static_cast<uint64_t>(plan.shard_threads));
    }
    obs::Counter* view_builds = config_.metrics ? inst_.view_builds : nullptr;
    QueryResult fresh = ExecuteShardedPlan(*shards, plan, canon, eff,
                                           view_builds, tb, root);
    fresh.constraints = canon.constraints;
    if (config_.cost_learning && plan.shards.size() == 1) {
      // One observation per single-shard fresh compute (multi-shard runs
      // overlap several algorithms in one wall time, so they stay
      // unattributed): measured wall time against the model's prediction
      // for the executed shard at the query's *measured* selectivity, so
      // the learner corrects coefficient error rather than
      // selectivity-estimate error.
      const StatsSketch& sketch = shards->shard(plan.shards[0]).sketch;
      SelectionContext rctx;
      rctx.band_k = canon.band_k;
      rctx.threads = eff.ResolvedThreads();
      rctx.progressive = eff.progressive != nullptr;
      rctx.selectivity =
          sketch.n > 0 ? std::min(1.0, static_cast<double>(fresh.matched_rows) /
                                           static_cast<double>(sketch.n))
                       : 1.0;
      learner_.Record(
          fresh.shard_algorithms[0],
          EstimateAlgorithmCost(fresh.shard_algorithms[0], sketch, rctx),
          fresh.stats.total_seconds);
    }
    if (config_.metrics) {
      inst_.queries->Add();
      // Planner decision tally: one bump per executed shard under the
      // algorithm it actually ran (explicit and auto picks alike).
      for (const Algorithm a : fresh.shard_algorithms) {
        inst_.algorithm[static_cast<size_t>(a)]->Add();
      }
    }
    const int put = tb != nullptr ? tb->Open("cache.put", root) : -1;
    try {
      SKY_FAILPOINT("result_cache_put");
      PutIfCurrent(name, version, minor, key,
                   std::make_shared<const QueryResult>(fresh));
    } catch (...) {
      // A failed cache insert (result_cache_put failpoint) never fails
      // the query: the computed result is simply served uncached.
    }
    if (tb != nullptr) {
      tb->Close(put);
      tb->AttrCount(root, "members", fresh.ids.size());
      tb->Close(root);
      fresh.trace = tb->Finish();
    }
    if (config_.metrics) {
      const double elapsed = timer.Seconds();
      inst_.latency->Observe(elapsed);
      inst_.compute->Observe(elapsed);
    }
    return fresh;
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

void SkylineEngine::RepairShards(
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
  if (config_.metrics) {
    RepairStats sum;
    for (const RepairStats& rs : stats) {
      sum.dom_tests += rs.dom_tests;
      sum.sketch_rebuilds += rs.sketch_rebuilds;
      sum.zonemap_repairs += rs.zonemap_repairs;
    }
    inst_.repair_dom_tests->Add(sum.dom_tests);
    inst_.sketch_rebuilds->Add(sum.sketch_rebuilds);
    inst_.zonemap_repairs->Add(sum.zonemap_repairs);
  }
}

std::optional<uint64_t> SkylineEngine::PublishMutation(
    const std::string& name, uint64_t version, size_t count,
    const MutationDelta& delta) {
  std::unique_lock lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    throw std::runtime_error("query engine: dataset '" + name +
                             "' evicted during a mutation");
  }
  if (it->second.version != version) {
    if (config_.metrics) inst_.retries->Add();
    return std::nullopt;
  }
  it->second.data = nullptr;  // Find() rebuilds it lazily from the shards
  it->second.shards = delta.map;
  it->second.count = count;
  const uint64_t bumped = ++it->second.minor;
  FixupResultsLocked(CacheKeyPrefix(version), delta);
  return bumped;
}

uint64_t SkylineEngine::InsertPoints(const std::string& name,
                                     const Dataset& rows) {
  WallTimer timer;
  std::lock_guard<std::mutex> mutation_lock(mutation_mu_);
  // The repair runs without the registry lock (every input is an
  // immutable COW snapshot); publish revalidates under the exclusive
  // lock. mutation_mu_ keeps other mutation batches out, but a
  // concurrent RegisterDataset can still replace the generation
  // mid-repair — the repair is then discarded and retried against the
  // new generation.
  for (;;) {
    const Registered snap = MutationSnapshot(name);
    const ShardMap& map = *snap.shards;
    if (rows.dims() != snap.dims) {
      throw std::runtime_error(
          "query engine: InsertPoints dimensionality mismatch");
    }
    const size_t add = rows.count();
    if (add == 0) return snap.minor;  // nothing mutated: no bump, no fixup

    MutationDelta delta;
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
    RepairShards(touched_idx.size(), [&](size_t t, RepairStats* stats) {
      const size_t s = touched_idx[t];
      repaired[t] = ShardWithInserts(map.shard(s), rows, routed[s],
                                     static_cast<PointId>(snap.count),
                                     /*sketch_seed=*/snap.version + s, stats);
    });
    ShardMap next = map;
    for (size_t t = 0; t < touched_idx.size(); ++t) {
      next.ReplaceShard(touched_idx[t], std::move(repaired[t]));
    }
    delta.map = std::make_shared<const ShardMap>(std::move(next));

    const std::optional<uint64_t> bumped =
        PublishMutation(name, snap.version, snap.count + add, delta);
    if (!bumped.has_value()) continue;  // replaced: retry
    if (config_.metrics) {
      inst_.inserts->Add();
      inst_.rows_inserted->Add(add);
      inst_.mutation_latency->Observe(timer.Seconds());
    }
    return *bumped;
  }
}

uint64_t SkylineEngine::DeletePoints(const std::string& name,
                                     std::span<const PointId> ids) {
  WallTimer timer;
  std::lock_guard<std::mutex> mutation_lock(mutation_mu_);
  for (;;) {
    const Registered snap = MutationSnapshot(name);
    const ShardMap& map = *snap.shards;
    std::vector<PointId> drop(ids.begin(), ids.end());
    std::sort(drop.begin(), drop.end());
    drop.erase(std::unique(drop.begin(), drop.end()), drop.end());
    if (!drop.empty() && drop.back() >= snap.count) {
      throw std::runtime_error("query engine: DeletePoints id out of range");
    }
    if (drop.empty()) return snap.minor;

    // Compaction map: a surviving global id shifts down by the number of
    // deleted ids below it.
    std::vector<uint8_t> deleted(snap.count, 0);
    for (const PointId id : drop) deleted[id] = 1;
    MutationDelta delta;
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
    RepairShards(touched_idx.size(), [&](size_t t, RepairStats* stats) {
      const size_t s = touched_idx[t];
      repaired[s] = ShardWithDeletes(map.shard(s), drop_locals[s],
                                     delta.id_shift,
                                     /*sketch_seed=*/snap.version + s, stats);
    });
    ShardMap next = map;
    for (size_t s = 0; s < n_shards; ++s) {
      next.ReplaceShard(s, repaired[s] != nullptr
                               ? std::move(repaired[s])
                               : ShardWithRemappedIds(map.shard(s),
                                                      delta.id_shift));
    }
    delta.map = std::make_shared<const ShardMap>(std::move(next));

    const std::optional<uint64_t> bumped =
        PublishMutation(name, snap.version, snap.count - drop.size(), delta);
    if (!bumped.has_value()) continue;  // replaced: retry
    if (config_.metrics) {
      inst_.deletes->Add();
      inst_.rows_deleted->Add(drop.size());
      inst_.mutation_latency->Observe(timer.Seconds());
    }
    return *bumped;
  }
}

void SkylineEngine::FixupResultsLocked(const std::string& prefix,
                                       const MutationDelta& delta) {
  const bool is_delete = !delta.id_shift.empty();
  // An entry survives iff its constraint box provably excludes every
  // mutated row — then no inserted or deleted row is in the constraint
  // region, so its member set, dominator counts, and matched_rows are all
  // unchanged. Deletes still compact the surviving ids through the shift
  // (no surviving entry can reference a deleted row: deleted rows are
  // outside its box).
  const size_t results_erased = cache_.EditPrefix(
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
  if (config_.metrics) inst_.invalidated_results->Add(results_erased);
}

}  // namespace sky
