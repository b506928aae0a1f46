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
#include "parallel/thread_pool.h"
#include "query/cost_model.h"
#include "query/delta.h"
#include "query/view.h"

namespace sky {
namespace {

/// Largest candidate union the sharded merge filters directly with the
/// batched tile kernels instead of launching a full skyline algorithm.
/// The direct filter is O(total * m) but skips the WorkingSet copy,
/// sort, and pool spin-up, which dominate at this scale.
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
    // Engine paths resolve kAuto from registration-time sketches before
    // reaching here; this covers one-shot RunQuery callers. The target
    // is already constraint-filtered, so a fresh sketch of it is the
    // exact selection input (selectivity 1). Skybands run Q-Flow's
    // block flow whatever the field says — report that truthfully.
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

/// Execute stage on raw rows through the zonemap direct path: run the
/// BBS traversal against the constraint box without materializing a
/// view (band-1 box-only specs only — raw rows carry the exact view
/// values there, so dominance and rank scores match the view path
/// bit-for-bit). `row_map` maps index-local rows to final ids.
QueryResult RunZonemapDirect(const Dataset& data, const ZoneMapIndex& index,
                             const std::vector<PointId>* row_map,
                             const QuerySpec& canon, const Options& opts) {
  QueryResult r;
  if (data.count() == 0) return r;

  Options run_opts = opts;
  if (opts.progressive && row_map != nullptr) {
    const ProgressiveCallback callback = opts.progressive;
    run_opts.progressive = [callback, row_map](std::span<const PointId> ids) {
      std::vector<PointId> mapped(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        mapped[i] = (*row_map)[ids[i]];
      }
      callback(mapped);
    };
  }
  ZonemapRunResult run =
      ZonemapSkylineRun(data, index, canon.constraints, run_opts);
  r.stats = run.stats;
  r.matched_rows = run.matched_rows;
  r.shard_algorithms.assign(1, Algorithm::kZonemap);
  r.ids.resize(run.skyline.size());
  if (row_map == nullptr) {
    std::copy(run.skyline.begin(), run.skyline.end(), r.ids.begin());
  } else {
    for (size_t i = 0; i < run.skyline.size(); ++i) {
      r.ids[i] = (*row_map)[run.skyline[i]];
    }
  }
  r.dominator_counts.assign(r.ids.size(), 0u);
  if (canon.top_k > 0) {
    std::vector<Value> scores(run.skyline.size());
    for (size_t i = 0; i < run.skyline.size(); ++i) {
      scores[i] = RankScore(data, run.skyline[i]);
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

/// Per-shard execute-stage output, kept alive until the merge copies the
/// candidate rows out of the shard view. The trace fields are filled only
/// when a TraceBuilder is attached (spans are emitted post-hoc on the
/// coordinating thread, so worker threads just record timings here).
struct ShardPartial {
  std::shared_ptr<const QueryView> view;  // null when the spec is identity
  std::vector<PointId> cand_rows;         // target-local candidate rows
  RunStats stats;
  double trace_start = 0.0;    // seconds since the trace epoch
  double trace_seconds = 0.0;  // shard wall time
  bool view_built = false;     // view materialized (vs. cache hit)
  bool maintained = false;     // served from the maintained shard skyline
  bool direct = false;         // ran the zonemap direct path (no view)
  size_t matched = 0;          // rows in the box, when `direct`
};

/// Source of per-shard materialized views: the engine passes a lambda
/// backed by its view cache so a band_k / top-k sweep over one box pays
/// each shard's materialization once; the one-shot RunShardedQuery path
/// leaves it empty and the executor materializes locally. A build runs
/// at the thread budget of the `opts` passed in — the shard's own.
/// `built` (nullable) reports whether the call materialized (true) or
/// reused a cached view — the trace's view=build|hit attribute.
using ShardViewProvider = std::function<std::shared_ptr<const QueryView>(
    uint32_t shard_index, const Options& opts, bool* built)>;

/// Source of per-shard zonemap indexes for the direct path, backed by the
/// engine's epoch-guarded zonemap cache. Returns nullptr when the caller
/// should build privately (no cache, or a non-default Options::block_rows
/// that must not share the fixed cache keys).
using ZonemapProvider =
    std::function<std::shared_ptr<const ZoneMapIndex>(uint32_t shard_index)>;

std::shared_ptr<const QueryView> ViewOfShard(
    const ShardMap& map, uint32_t shard_index, const QuerySpec& canon,
    const Options& opts, const ShardViewProvider& provider, bool* built) {
  if (provider) return provider(shard_index, opts, built);
  if (built != nullptr) *built = true;
  return std::make_shared<const QueryView>(
      MaterializeView(map.shard(shard_index).rows(), canon, opts));
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
QueryResult ExecuteShardedPlan(const ShardMap& map, const ExecutionPlan& plan,
                               const QuerySpec& canon, const Options& opts,
                               const ShardViewProvider& provider = {},
                               const ZonemapProvider& zonemap_provider = {},
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
  // Band-1 box-only specs let Algorithm::kZonemap run on the raw shard
  // rows (constraint box applied during the traversal), skipping view
  // materialization entirely.
  const bool zonemap_direct = canon.band_k == 1 && canon.IsBoxOnlyTransform();
  // Per-shard algorithm: the plan's cost-model picks when the request
  // was kAuto, the caller's explicit choice otherwise.
  const auto algo_of = [&](size_t s) {
    return plan.algorithms.empty() ? opts.algorithm : plan.algorithms[s];
  };
  /// Per-shard index for a direct run: the provider's cached entry, or a
  /// private build (one-shot paths and custom Options::block_rows). The
  /// private build's cost lands in `build_seconds`.
  const auto zonemap_of = [&](uint32_t shard_index, double* build_seconds)
      -> std::shared_ptr<const ZoneMapIndex> {
    if (zonemap_provider) {
      std::shared_ptr<const ZoneMapIndex> zm = zonemap_provider(shard_index);
      if (zm != nullptr) return zm;
    }
    WallTimer build_timer;
    const Shard& shard = map.shard(shard_index);
    auto zm = std::make_shared<const ZoneMapIndex>(
        ZoneMapIndex::Build(shard.rows(), opts.block_rows, &shard.sketch));
    *build_seconds += build_timer.Seconds();
    return zm;
  };

  // Single surviving shard: pruned shards hold no constraint-box row, so
  // the shard answer is the global answer — no merge stage at all. The
  // lone shard keeps the caller's full thread budget.
  if (plan.merge == MergeStrategy::kNone) {
    const Shard& shard = map.shard(plan.shards[0]);
    Options one_opts = opts;
    one_opts.algorithm = algo_of(0);
    const double span_start = tb != nullptr ? tb->Now() : 0.0;
    bool view_built = false;
    const bool direct =
        zonemap_direct && one_opts.algorithm == Algorithm::kZonemap;
    QueryResult one;
    if (direct) {
      double build_seconds = 0.0;
      const std::shared_ptr<const ZoneMapIndex> zm =
          zonemap_of(plan.shards[0], &build_seconds);
      one = RunZonemapDirect(shard.rows(), *zm, &shard.row_ids, canon,
                             one_opts);
      one.stats.other_seconds += build_seconds;
    } else if (identity) {
      one = RunOnTarget(shard.rows(), &shard.row_ids, canon, one_opts);
    } else {
      const std::shared_ptr<const QueryView> view = ViewOfShard(
          map, plan.shards[0], canon, one_opts, provider, &view_built);
      std::vector<PointId> composed(view->row_ids.size());
      for (size_t i = 0; i < view->row_ids.size(); ++i) {
        composed[i] = shard.row_ids[view->row_ids[i]];
      }
      one = RunOnTarget(view->data, &composed, canon, one_opts);
      if (!provider) one.stats.other_seconds += view->materialize_seconds;
    }
    one.shards_executed = r.shards_executed;
    one.shards_pruned = r.shards_pruned;
    one.stats.total_seconds = timer.Seconds();
    if (tb != nullptr) {
      const int span =
          tb->AddSpan("shard[" + std::to_string(plan.shards[0]) + "]",
                      trace_parent, span_start, tb->Now() - span_start);
      tb->Attr(span, "algo",
               one.shard_algorithms.empty()
                   ? AlgorithmName(one_opts.algorithm)
                   : AlgorithmName(one.shard_algorithms[0]));
      tb->AttrCount(span, "rows", one.matched_rows);
      tb->AttrCount(span, "members", one.ids.size());
      if (opts.count_dts) {
        tb->AttrCount(span, "dom_tests", one.stats.dominance_tests);
      }
      if (direct) {
        tb->Attr(span, "view", "direct");
      } else if (!identity) {
        tb->Attr(span, "view", view_built ? "build" : "hit");
      }
    }
    return one;
  }

  // Execute stage. Two shapes, chosen by the planner's thread budget:
  // parallelism across shards with each shard sequential (the default),
  // or — when pruning left fewer shards than threads — shards in turn,
  // each running its algorithm with intra-shard parallelism. Per-shard
  // progressive callbacks are suppressed either way — a shard-local
  // skyline point is not a confirmed global member; the merge stage
  // streams the confirmed answer instead.
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
    if (identity && canon.band_k == 1 && shard.skyline != nullptr) {
      // The mutation path maintains exactly this shard's skyline: hand
      // the merge the precomputed candidates and skip the per-shard
      // compute. Constrained or view-transformed specs cannot take this
      // shortcut (filtering changes the dominance set), but identity is
      // the common serving case and the one mutations repair for.
      p.cand_rows = *shard.skyline;
      p.maintained = true;
      if (tb != nullptr) p.trace_seconds = tb->Now() - p.trace_start;
      return;
    }
    if (zonemap_direct && algo_of(s) == Algorithm::kZonemap) {
      // Direct path: traverse the shard's (cached) zonemap index against
      // the constraint box on raw rows — no view. The per-shard
      // progressive suppression above applies unchanged.
      p.direct = true;
      if (shard.rows().count() > 0) {
        double build_seconds = 0.0;
        const std::shared_ptr<const ZoneMapIndex> zm =
            zonemap_of(plan.shards[s], &build_seconds);
        Options one = shard_opts;
        one.algorithm = Algorithm::kZonemap;
        ZonemapRunResult run =
            ZonemapSkylineRun(shard.rows(), *zm, canon.constraints, one);
        p.stats = run.stats;
        p.stats.other_seconds += build_seconds;
        p.cand_rows = std::move(run.skyline);
        p.matched = run.matched_rows;
      }
      if (tb != nullptr) p.trace_seconds = tb->Now() - p.trace_start;
      return;
    }
    if (!identity) {
      p.view = ViewOfShard(map, plan.shards[s], canon, shard_opts, provider,
                           &p.view_built);
    }
    const Dataset& target = identity ? shard.rows() : p.view->data;
    if (target.count() == 0) {
      if (tb != nullptr) p.trace_seconds = tb->Now() - p.trace_start;
      return;
    }
    Options one = shard_opts;
    one.algorithm = algo_of(s);
    if (canon.band_k == 1) {
      Result run = ComputeSkyline(target, one);
      p.stats = run.stats;
      p.cand_rows = std::move(run.skyline);
    } else {
      SkybandResult run = ComputeSkyband(target, canon.band_k, one);
      p.stats = run.stats;
      p.cand_rows = std::move(run.skyband);
    }
    if (tb != nullptr) p.trace_seconds = tb->Now() - p.trace_start;
  };
  Executor::GroupStats exec_stats;
  bool used_group = false;
  const int workers = static_cast<int>(
      std::min(n_shards, static_cast<size_t>(opts.ResolvedThreads())));
  if (plan.shard_threads > 1) {
    // Shards in turn, each with intra-shard parallelism: the per-shard
    // algorithms borrow workers themselves (shard_opts carries
    // opts.executor), so no fan-out group is needed here.
    for (size_t s = 0; s < n_shards; ++s) run_shard(s);
  } else if (opts.executor != nullptr) {
    // Serving path: fan the shards out as one capped task group on the
    // engine's shared executor — zero pool constructions per request.
    Executor::TaskGroup group(*opts.executor, workers);
    group.set_cancel_token(opts.cancel);
    group.ParallelFor(n_shards, 1, [&](size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) run_shard(s);
    });
    exec_stats = group.stats();
    used_group = true;
  } else {
    // One-shot fallback (RunShardedQuery without an engine): a private
    // pool scoped to this call.
    ThreadPool pool(workers);
    pool.ParallelFor(n_shards, 1, [&](size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) run_shard(s);
    });
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
      const Dataset& target = identity || p.direct
                                  ? map.shard(plan.shards[s]).rows()
                                  : p.view->data;
      tb->AttrCount(span, "rows", p.direct ? p.matched : target.count());
      tb->AttrCount(span, "candidates", p.cand_rows.size());
      if (opts.count_dts) {
        tb->AttrCount(span, "dom_tests", p.stats.dominance_tests);
      }
      if (p.maintained) tb->Attr(span, "maintained", "true");
      if (p.direct) {
        tb->Attr(span, "view", "direct");
      } else if (!identity) {
        tb->Attr(span, "view", p.view_built ? "build" : "hit");
      }
    }
    if (used_group) {
      // Scheduler accounting for the fan-out group: how many distinct
      // participants (workers + the caller) touched this query, how many
      // tasks it submitted or ran inline, and how many were stolen.
      tb->AttrCount(trace_parent, "executor.workers",
                    static_cast<size_t>(exec_stats.workers_used));
      tb->AttrCount(trace_parent, "executor.tasks",
                    static_cast<size_t>(exec_stats.tasks +
                                        exec_stats.inline_runs));
      tb->AttrCount(trace_parent, "executor.steals",
                    static_cast<size_t>(exec_stats.steals));
    }
  }

  int view_dims = 0;
  for (const Preference pref : canon.preferences) {
    if (pref != Preference::kIgnore) ++view_dims;
  }
  size_t total = 0;
  for (size_t s = 0; s < n_shards; ++s) {
    const ShardPartial& p = parts[s];
    if (p.direct) {
      r.matched_rows += p.matched;
    } else {
      const Dataset& target =
          identity ? map.shard(plan.shards[s]).rows() : p.view->data;
      r.matched_rows += target.count();
    }
    total += p.cand_rows.size();
    AccumulateStats(r.stats, p.stats);
    if (!identity && !p.direct && !provider) {
      r.stats.other_seconds += p.view->materialize_seconds;
    }
  }

  // Merge stage: M(S) — copy every candidate's view-space row into one
  // union set and dominance-filter it (depth-aware for k-skybands).
  // Checkpoint before committing to the union copy: the per-shard work
  // above may have consumed the whole deadline budget.
  CheckCancel(opts.cancel);
  SKY_FAILPOINT("merge_union");
  const double merge_start = tb != nullptr ? tb->Now() : 0.0;
  uint64_t merge_dts = 0;
  const char* merge_path = "empty";
  Dataset merged(view_dims, total);
  std::vector<PointId> merged_ids(total);
  const size_t row_bytes = sizeof(Value) * static_cast<size_t>(view_dims);
  size_t w = 0;
  for (size_t s = 0; s < n_shards; ++s) {
    const Shard& shard = map.shard(plan.shards[s]);
    const ShardPartial& p = parts[s];
    // Direct partials are rows of the raw shard in shard-local numbering
    // (box-only specs keep every dimension, so raw rows are view rows).
    const bool raw = identity || p.direct;
    const Dataset& target = raw ? shard.rows() : p.view->data;
    for (const PointId row : p.cand_rows) {
      std::memcpy(merged.MutableRow(w), target.Row(row), row_bytes);
      merged_ids[w] =
          raw ? shard.row_ids[row] : shard.row_ids[p.view->row_ids[row]];
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
    // WorkingSet copy, sort, and thread-pool setup.
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
  if (canon.top_k > 0) {
    std::vector<Value> scores(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      scores[i] = RankScore(merged, members[i]);
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
      ExecuteShardedPlan(map, plan, canon, opts, {}, {}, &tb, root);
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
             &QueryResultBytes, config.result_cache_ttl),
      view_cache_(config.view_cache_capacity, config.view_cache_bytes,
                  &QueryViewBytes),
      selectivity_cache_(256),
      zonemap_cache_(64, 0, &ZoneMapIndexBytes) {
  WireInstruments();
}

EngineMetricsSnapshot SkylineEngine::MetricsSnapshot() const {
  EngineMetricsSnapshot s;
  s.result_cache = cache_.counters();
  s.view_cache = view_cache_.counters();
  s.selectivity_cache = selectivity_cache_.counters();
  s.zonemap_cache = zonemap_cache_.counters();
  std::shared_lock lock(registry_mu_);
  s.datasets = registry_.size();
  return s;
}

namespace {

/// Append one LRU cache's counters as registry-style metric values —
/// the caches keep their own counters under their own mutex (they work
/// even with Config::metrics off), so the registry reads them at
/// snapshot time through a collector instead of double-counting on the
/// hot path.
template <typename Counters>
void AppendCacheMetrics(const std::string& which, const Counters& c,
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
  const std::string base = "sky_" + which + "_cache_";
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
      "Views materialized (view-cache misses and epoch rejections)");
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
  inst_.invalidated_views = metrics_.GetCounter(
      "sky_invalidated_views_total", {},
      "Cached views erased by mutation fixups");
  inst_.invalidated_selectivities = metrics_.GetCounter(
      "sky_invalidated_selectivities_total", {},
      "Cached selectivity estimates erased by mutation fixups");
  inst_.invalidated_zonemaps = metrics_.GetCounter(
      "sky_invalidated_zonemaps_total", {},
      "Cached zonemap indexes erased by mutation fixups");
  inst_.zonemap_repairs = metrics_.GetCounter(
      "sky_zonemap_repairs_total", {},
      "Cached zonemap indexes repaired block-locally across a mutation");
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
  for (size_t a = 0; a < inst_.algorithm.size(); ++a) {
    inst_.algorithm[a] = metrics_.GetCounter(
        "sky_engine_algorithm_total",
        {{"algo", AlgorithmName(static_cast<Algorithm>(a))}},
        "Executed shards by resolved algorithm");
  }
  metrics_.AddCollector([this](std::vector<obs::MetricValue>& out) {
    const EngineMetricsSnapshot s = MetricsSnapshot();
    AppendCacheMetrics("result", s.result_cache, out);
    AppendCacheMetrics("view", s.view_cache, out);
    AppendCacheMetrics("selectivity", s.selectivity_cache, out);
    AppendCacheMetrics("zonemap", s.zonemap_cache, out);
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
  // Plan stage inputs: the shard decomposition (with bounding boxes and
  // per-shard sketches) and the whole-dataset sketch are built once per
  // registration, never per query.
  std::shared_ptr<const ShardMap> map;
  if (shards > 1 && holder->count() > 1) {
    map = std::make_shared<const ShardMap>(
        ShardMap::Build(*holder, shards, policy, /*seed=*/42, &executor_));
  }
  auto sketch = std::make_shared<const StatsSketch>(ComputeSketch(*holder));
  const int dims = holder->dims();
  const size_t count = holder->count();
  uint64_t replaced_version = 0;
  uint64_t version = 0;
  {
    std::unique_lock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it != registry_.end()) replaced_version = it->second.version;
    version = next_version_++;
    registry_[name] = Registered{std::move(holder), std::move(map),
                                 std::move(sketch), version,
                                 /*minor=*/0, dims, count};
  }
  // The old generation can never be served again (versions are never
  // reused); free its results instead of letting them squat in the LRU.
  if (replaced_version != 0) {
    const std::string prefix = CacheKeyPrefix(replaced_version);
    cache_.ErasePrefix(prefix);
    view_cache_.ErasePrefix(prefix);
    selectivity_cache_.ErasePrefix(prefix);
    zonemap_cache_.ErasePrefix(prefix);
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
  const std::string prefix = CacheKeyPrefix(version);
  cache_.ErasePrefix(prefix);
  view_cache_.ErasePrefix(prefix);
  selectivity_cache_.ErasePrefix(prefix);
  zonemap_cache_.ErasePrefix(prefix);
  return true;
}

namespace {

/// Whole-dataset rows of a mutated sharded generation: every shard row
/// is copied back to its current global id. O(n), done at most once per
/// minor version (Find caches the result back into the registry entry).
std::shared_ptr<const Dataset> ReconcatenateRows(const ShardMap& map,
                                                 int dims, size_t count) {
  auto rebuilt = std::make_shared<Dataset>(dims, count);
  for (size_t s = 0; s < map.shard_count(); ++s) {
    const Shard& shard = map.shard(s);
    const Dataset& rows = shard.rows();
    const size_t row_bytes =
        sizeof(Value) * static_cast<size_t>(rows.stride());
    for (size_t i = 0; i < rows.count(); ++i) {
      std::memcpy(rebuilt->MutableRow(shard.row_ids[i]), rows.Row(i),
                  row_bytes);
    }
  }
  return rebuilt;
}

}  // namespace

std::shared_ptr<const Dataset> SkylineEngine::Find(
    const std::string& name) const {
  std::shared_ptr<const ShardMap> shards;
  uint64_t version = 0;
  uint64_t minor = 0;
  int dims = 0;
  size_t count = 0;
  {
    std::shared_lock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it == registry_.end()) return nullptr;
    if (it->second.data != nullptr) return it->second.data;
    // A mutated sharded generation: the truth lives in the shards
    // (mutation kept the repair O(shard) by not rebuilding this).
    shards = it->second.shards;
    version = it->second.version;
    minor = it->second.minor;
    dims = it->second.dims;
    count = it->second.count;
  }
  std::shared_ptr<const Dataset> rebuilt =
      ReconcatenateRows(*shards, dims, count);
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

std::shared_ptr<const ShardMap> SkylineEngine::FindShards(
    const std::string& name) const {
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  return it == registry_.end() ? nullptr : it->second.shards;
}

std::shared_ptr<const StatsSketch> SkylineEngine::FindSketch(
    const std::string& name) const {
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  return it == registry_.end() ? nullptr : it->second.sketch;
}

void SkylineEngine::PutResultIfCurrent(
    const std::string& name, uint64_t version, uint64_t minor,
    const std::string& key, std::shared_ptr<const QueryResult> value) {
  // Lock order: registry (shared) -> cache mutex; no path takes them in
  // the other order, and RegisterDataset's purge runs after it released
  // the registry lock, so it must observe this insert. The minor check
  // closes the in-flight-mutation race the same way: a computation that
  // started before an InsertPoints/DeletePoints batch published cannot
  // cache its (pre-mutation) answer afterwards.
  SKY_FAILPOINT("result_cache_put");
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end() || it->second.version != version ||
      it->second.minor != minor) {
    return;
  }
  cache_.Put(key, std::move(value));
}

void SkylineEngine::PutViewIfCurrent(const std::string& name,
                                     uint64_t version, uint64_t minor,
                                     const std::string& key,
                                     std::shared_ptr<const QueryView> value) {
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end() || it->second.version != version ||
      it->second.minor != minor) {
    return;
  }
  view_cache_.Put(key, std::move(value));
}

void SkylineEngine::PutSelectivityIfCurrent(
    const std::string& name, uint64_t version, uint64_t minor,
    const std::string& key, std::shared_ptr<const SelectivityEntry> value) {
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end() || it->second.version != version ||
      it->second.minor != minor) {
    return;
  }
  selectivity_cache_.Put(key, std::move(value));
}

void SkylineEngine::PutZonemapIfCurrent(
    const std::string& name, uint64_t version, uint64_t minor,
    const std::string& key, std::shared_ptr<const ZoneMapIndex> value) {
  std::shared_lock lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end() || it->second.version != version ||
      it->second.minor != minor) {
    return;
  }
  zonemap_cache_.Put(key, std::move(value));
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
  std::shared_ptr<const Dataset> data;
  std::shared_ptr<const ShardMap> shards;
  std::shared_ptr<const StatsSketch> sketch;
  uint64_t version = 0;
  uint64_t minor = 0;
  int dims = 0;
  {
    std::shared_lock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it == registry_.end()) {
      throw std::runtime_error("query engine: unknown dataset '" + name + "'");
    }
    // `data` may be null for a mutated sharded generation (the truth
    // lives in the shards); every path below that dereferences it is an
    // unsharded path, where it is always populated.
    data = it->second.data;
    shards = it->second.shards;
    sketch = it->second.sketch;
    version = it->second.version;
    minor = it->second.minor;
    dims = it->second.dims;
  }

  // Serving-wide auto-selection overrides the caller's algorithm; the
  // cost model then resolves per query (and per shard) below. Every
  // parallel stage of this request — shard fan-out, intra-shard phase
  // loops, the merge — runs as capped task groups on the engine's shared
  // executor; Options::threads is the request's concurrency limit there.
  Options eff = opts;
  eff.executor = config_.shared_executor ? &executor_ : nullptr;
  if (config_.auto_algorithm) eff.algorithm = Algorithm::kAuto;

  // Canonicalize before keying so equivalent spellings share an entry.
  // Sharding and algorithm choice are invisible to the key: results are
  // row-for-row identical for every K and every algorithm, so one entry
  // serves all decompositions and selections. Minor versions are
  // invisible too — a mutation edits the entries under these keys in
  // place (remap or erase) rather than abandoning them.
  const QuerySpec canon = spec.Canonicalize(dims);
  const std::string prefix = CacheKeyPrefix(version);
  const std::string key = prefix + canon.CanonicalKey();
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
    // Unsharded kAuto requests resolve here, from the registration-time
    // sketch and the (version-keyed, cached) constraint selectivity, so
    // RunOnTarget never has to sketch on the fly. Sharded plans resolve
    // per shard inside PlanQuery instead.
    if (eff.algorithm == Algorithm::kAuto &&
        (shards == nullptr || shards->shard_count() <= 1)) {
      SelectionContext ctx;
      ctx.band_k = canon.band_k;
      ctx.threads = eff.ResolvedThreads();
      ctx.progressive = eff.progressive != nullptr;
      ctx.zonemap_direct = canon.band_k == 1 && !canon.constraints.empty() &&
                           canon.IsBoxOnlyTransform();
      ctx.learner = config_.cost_learning ? &learner_ : nullptr;
      ctx.selectivity = 1.0;
      if (!canon.constraints.empty()) {
        const std::string sel_key = prefix + "sel|" + canon.ViewKey();
        if (std::shared_ptr<const SelectivityEntry> sel =
                selectivity_cache_.Get(sel_key)) {
          ctx.selectivity = sel->value;
        } else {
          ctx.selectivity =
              EstimateConstraintSelectivity(*sketch, canon.constraints);
          auto entry = std::make_shared<const SelectivityEntry>(
              SelectivityEntry{ctx.selectivity, canon.constraints});
          PutSelectivityIfCurrent(name, version, minor, sel_key,
                                  std::move(entry));
        }
      }
      eff.algorithm = canon.band_k == 1
                          ? ChooseAlgorithm(*sketch, ctx).algorithm
                          : Algorithm::kQFlow;
    }

    QueryResult fresh;
    if (shards != nullptr && shards->shard_count() > 1) {
      // Per-shard views are served from the view cache too, keyed by the
      // shard index on top of the ViewKey, so a band_k / top-k sweep pays
      // each shard's materialization once. Keys omit the minor version, so
      // a cached view may come from a different generation of the shard
      // than this query's snapshot (an in-flight reader races a mutation in
      // either direction); the Shard::epoch check rejects such a view —
      // composing its local row indices through the snapshot's row_ids
      // would read out of bounds or return wrong global ids — and the
      // reader rebuilds from its own snapshot instead (PutViewIfCurrent
      // keeps a stale rebuild out of the cache).
      const ShardViewProvider provider = [&](uint32_t shard_index,
                                             const Options& shard_opts,
                                             bool* built_out) {
        const std::string view_key = prefix + "v|s" +
                                     std::to_string(shard_index) + "|" +
                                     canon.ViewKey();
        const uint64_t epoch = shards->shard(shard_index).epoch;
        std::shared_ptr<const QueryView> view = view_cache_.Get(view_key);
        const bool rebuild = view == nullptr || view->source_epoch != epoch;
        if (rebuild) {
          QueryView built = MaterializeView(
              shards->shard(shard_index).rows(), canon, shard_opts);
          built.constraints = canon.constraints;
          built.source_shard = static_cast<int>(shard_index);
          built.source_epoch = epoch;
          auto holder = std::make_shared<const QueryView>(std::move(built));
          PutViewIfCurrent(name, version, minor, view_key, holder);
          view = std::move(holder);
          if (config_.metrics) inst_.view_builds->Add();
        }
        if (built_out != nullptr) *built_out = rebuild;
        return view;
      };
      // Per-shard zonemap indexes for the direct path, cached next to the
      // shard views under fixed keys (so mutations can repair them) and
      // epoch-guarded the same way. Custom Options::block_rows bypasses the
      // cache entirely — the executor builds privately.
      const ZonemapProvider zonemap_provider =
          [&](uint32_t shard_index) -> std::shared_ptr<const ZoneMapIndex> {
        if (eff.block_rows != 0 &&
            eff.block_rows != ZoneMapIndex::kDefaultBlockRows) {
          return nullptr;
        }
        const std::string zm_key =
            prefix + "zm|s" + std::to_string(shard_index);
        const Shard& shard = shards->shard(shard_index);
        std::shared_ptr<const ZoneMapIndex> zm = zonemap_cache_.Get(zm_key);
        if (zm == nullptr || zm->source_epoch != shard.epoch) {
          ZoneMapIndex built = ZoneMapIndex::Build(
              shard.rows(), /*block_rows=*/0, &shard.sketch);
          built.source_epoch = shard.epoch;
          built.source_shard = static_cast<int>(shard_index);
          auto holder = std::make_shared<const ZoneMapIndex>(std::move(built));
          PutZonemapIfCurrent(name, version, minor, zm_key, holder);
          zm = std::move(holder);
        }
        return zm;
      };
      int plan_span = -1;
      if (tb != nullptr) plan_span = tb->Open("plan", root);
      const ExecutionPlan plan =
          PlanQuery(*shards, canon, eff, config_.metrics ? &metrics_ : nullptr,
                    config_.cost_learning ? &learner_ : nullptr);
      if (tb != nullptr) {
        tb->Close(plan_span);
        tb->AttrCount(plan_span, "shards", plan.shards.size());
        tb->AttrCount(plan_span, "pruned", plan.pruned);
        tb->Attr(plan_span, "merge", MergeStrategyName(plan.merge));
        tb->AttrCount(plan_span, "shard_threads",
                      static_cast<uint64_t>(plan.shard_threads));
      }
      fresh = ExecuteShardedPlan(*shards, plan, canon, eff, provider,
                                 zonemap_provider, tb, root);
    } else if (eff.algorithm == Algorithm::kZonemap && canon.band_k == 1 &&
               canon.IsBoxOnlyTransform()) {
      // Unsharded direct path: traverse the whole-dataset zonemap index
      // against the constraint box on raw rows — first-ever sub-dataset
      // pruning with no view materialization. The cached index is guarded
      // by the minor version the way shard entries are guarded by epochs.
      const bool cacheable = eff.block_rows == 0 ||
                             eff.block_rows == ZoneMapIndex::kDefaultBlockRows;
      const std::string zm_key = prefix + "zm|d";
      std::shared_ptr<const ZoneMapIndex> zm;
      if (cacheable) {
        zm = zonemap_cache_.Get(zm_key);
        if (zm != nullptr && zm->source_epoch != minor) zm = nullptr;
      }
      double build_seconds = 0.0;
      const bool zm_built = zm == nullptr;
      const int is = tb != nullptr ? tb->Open("zonemap", root) : -1;
      if (zm_built) {
        WallTimer build_timer;
        ZoneMapIndex built =
            ZoneMapIndex::Build(*data, eff.block_rows, sketch.get());
        built.source_epoch = minor;
        built.source_shard = -1;
        build_seconds = build_timer.Seconds();
        auto holder = std::make_shared<const ZoneMapIndex>(std::move(built));
        if (cacheable) {
          PutZonemapIfCurrent(name, version, minor, zm_key, holder);
        }
        zm = std::move(holder);
      }
      if (tb != nullptr) {
        tb->Close(is);
        tb->Attr(is, "source", zm_built ? "build" : "hit");
        tb->AttrCount(is, "blocks", zm->block_count());
      }
      const int ex = tb != nullptr ? tb->Open("execute", root) : -1;
      fresh = RunZonemapDirect(*data, *zm, nullptr, canon, eff);
      if (tb != nullptr) {
        tb->Close(ex);
        tb->Attr(ex, "algo", AlgorithmName(Algorithm::kZonemap));
        tb->AttrCount(ex, "rows", fresh.matched_rows);
      }
      fresh.stats.other_seconds += build_seconds;
      fresh.stats.total_seconds += build_seconds;
    } else if (canon.IsIdentityTransform()) {
      const int ex = tb != nullptr ? tb->Open("execute", root) : -1;
      fresh = RunOnTarget(*data, nullptr, canon, eff);
      if (tb != nullptr) {
        tb->Close(ex);
        if (!fresh.shard_algorithms.empty()) {
          tb->Attr(ex, "algo", AlgorithmName(fresh.shard_algorithms[0]));
        }
        tb->AttrCount(ex, "rows", fresh.matched_rows);
      }
    } else {
      // View reuse: specs sharing preferences/projection/constraints (same
      // ViewKey) share one materialized view, so e.g. a band_k / top-k
      // sweep over one box pays materialization once.
      const std::string view_key = prefix + "v|" + canon.ViewKey();
      const int vs = tb != nullptr ? tb->Open("view", root) : -1;
      std::shared_ptr<const QueryView> view = view_cache_.Get(view_key);
      double build_seconds = 0.0;
      const bool view_built = view == nullptr;
      if (view_built) {
        QueryView built = MaterializeView(*data, canon, eff);
        built.constraints = canon.constraints;
        built.source_shard = -1;
        auto holder = std::make_shared<const QueryView>(std::move(built));
        build_seconds = holder->materialize_seconds;
        PutViewIfCurrent(name, version, minor, view_key, holder);
        view = std::move(holder);
        if (config_.metrics) inst_.view_builds->Add();
      }
      if (tb != nullptr) {
        tb->Close(vs);
        tb->Attr(vs, "source", view_built ? "build" : "hit");
        tb->AttrCount(vs, "rows", view->data.count());
        if (view_built) {
          tb->AttrCount(vs, "threads",
                        static_cast<uint64_t>(view->build_threads));
        }
      }
      const int ex = tb != nullptr ? tb->Open("execute", root) : -1;
      fresh = RunOnTarget(view->data, &view->row_ids, canon, eff);
      if (tb != nullptr) {
        tb->Close(ex);
        if (!fresh.shard_algorithms.empty()) {
          tb->Attr(ex, "algo", AlgorithmName(fresh.shard_algorithms[0]));
        }
        tb->AttrCount(ex, "rows", fresh.matched_rows);
      }
      fresh.stats.other_seconds += build_seconds;
      fresh.stats.total_seconds += build_seconds;
    }
    fresh.constraints = canon.constraints;
    if (config_.cost_learning && fresh.shard_algorithms.size() == 1 &&
        (shards == nullptr || shards->shard_count() <= 1)) {
      // One observation per unsharded fresh compute (sharded runs overlap
      // several algorithms in one wall time, so they stay unattributed):
      // measured wall time against the model's prediction at the query's
      // *measured* selectivity, so the learner corrects coefficient error
      // rather than selectivity-estimate error.
      SelectionContext rctx;
      rctx.band_k = canon.band_k;
      rctx.threads = eff.ResolvedThreads();
      rctx.progressive = eff.progressive != nullptr;
      rctx.selectivity = sketch->n > 0
                             ? std::min(1.0, static_cast<double>(
                                                 fresh.matched_rows) /
                                                 static_cast<double>(sketch->n))
                             : 1.0;
      learner_.Record(
          fresh.shard_algorithms[0],
          EstimateAlgorithmCost(fresh.shard_algorithms[0], *sketch, rctx),
          fresh.stats.total_seconds);
    }
    if (config_.metrics) {
      inst_.queries->Add();
      // Planner decision tally: one bump per executed shard under the
      // algorithm it actually ran (covers explicit, auto, sharded and
      // unsharded paths uniformly).
      for (const Algorithm a : fresh.shard_algorithms) {
        inst_.algorithm[static_cast<size_t>(a)]->Add();
      }
    }
    const int put = tb != nullptr ? tb->Open("cache.put", root) : -1;
    try {
      PutResultIfCurrent(name, version, minor, key,
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
    std::shared_ptr<const Dataset> data;
    std::shared_ptr<const ShardMap> map;
    std::shared_ptr<const StatsSketch> sketch;
    uint64_t version = 0;
    uint64_t minor = 0;
    int dims = 0;
    size_t count = 0;
    {
      std::shared_lock lock(registry_mu_);
      auto it = registry_.find(name);
      if (it == registry_.end()) {
        throw std::runtime_error("query engine: unknown dataset '" + name +
                                 "'");
      }
      data = it->second.data;
      map = it->second.shards;
      sketch = it->second.sketch;
      version = it->second.version;
      minor = it->second.minor;
      dims = it->second.dims;
      count = it->second.count;
    }
    if (rows.dims() != dims) {
      throw std::runtime_error(
          "query engine: InsertPoints dimensionality mismatch");
    }
    const size_t add = rows.count();
    if (add == 0) return minor;  // nothing mutated: no bump, no fixup

    std::vector<Value> mut_lo = EmptyBoxLo(dims);
    std::vector<Value> mut_hi = EmptyBoxHi(dims);
    for (size_t b = 0; b < add; ++b) GrowBox(mut_lo, mut_hi, rows.Row(b), dims);

    std::shared_ptr<const Dataset> new_data;
    std::shared_ptr<const ShardMap> new_map = map;
    std::vector<uint8_t> touched;
    auto new_sketch = std::make_shared<StatsSketch>(*sketch);
    if (map != nullptr) {
      // Route each batch row to its shard, rebuild only the shards that
      // received rows (delta.h repairs their skyline / box / sketch
      // incrementally), and share every other shard by pointer. The
      // whole-dataset `data` mirror is dropped — Find() reconcatenates
      // lazily — so the batch costs O(touched shards), not O(n).
      const size_t n_shards = map->shard_count();
      std::vector<std::vector<size_t>> routed(n_shards);
      for (size_t b = 0; b < add; ++b) {
        routed[map->RouteInsert(rows.Row(b))].push_back(b);
      }
      ShardMap next = *map;
      touched.assign(n_shards, 0);
      std::vector<size_t> touched_idx;
      for (size_t s = 0; s < n_shards; ++s) {
        if (routed[s].empty()) continue;
        touched[s] = 1;
        touched_idx.push_back(s);
      }
      // Each touched shard's repair is an independent pure function of
      // immutable inputs, so the repairs fan out as a capped task group
      // on the engine's shared executor (a cap of 1 runs inline with no
      // synchronisation) — no per-mutation pool construction. Each slot
      // gets its own RepairStats; summed after the join.
      std::vector<std::shared_ptr<const Shard>> repaired(touched_idx.size());
      std::vector<RepairStats> repair_stats(touched_idx.size());
      ThreadPool repair_pool(&executor_,
                             std::min<int>(
                                 Executor::DefaultThreads(),
                                 static_cast<int>(touched_idx.size())));
      repair_pool.ParallelFor(
          touched_idx.size(), 1, [&](size_t lo, size_t hi) {
            for (size_t t = lo; t < hi; ++t) {
              // A repair failure (failpoint or real) unwinds out of the
              // join below and aborts the whole batch pre-publish: the
              // registry still holds the untouched generation.
              SKY_FAILPOINT("shard_repair");
              const size_t s = touched_idx[t];
              repaired[t] = ShardWithInserts(map->shard(s), rows, routed[s],
                                             static_cast<PointId>(count),
                                             /*sketch_seed=*/version + s,
                                             &repair_stats[t]);
            }
          });
      for (size_t t = 0; t < touched_idx.size(); ++t) {
        next.ReplaceShard(touched_idx[t], std::move(repaired[t]));
      }
      if (config_.metrics) {
        RepairStats sum;
        for (const RepairStats& rs : repair_stats) {
          sum.dom_tests += rs.dom_tests;
          sum.sketch_rebuilds += rs.sketch_rebuilds;
        }
        inst_.repair_dom_tests->Add(sum.dom_tests);
        inst_.sketch_rebuilds->Add(sum.sketch_rebuilds);
      }
      new_map = std::make_shared<const ShardMap>(std::move(next));
      UpdateSketchOnInsert(*new_sketch, rows.Row(0), rows.stride(), add);
      if (SketchNeedsRebuild(*new_sketch)) {
        *new_sketch =
            ComputeSketch(*ReconcatenateRows(*new_map, dims, count + add));
        if (config_.metrics) inst_.sketch_rebuilds->Add();
      }
    } else {
      new_data = std::make_shared<const Dataset>(
          DatasetWithAppendedRows(*data, rows));
      UpdateSketchOnInsert(*new_sketch, rows.Row(0), rows.stride(), add);
      if (SketchNeedsRebuild(*new_sketch)) {
        *new_sketch = ComputeSketch(*new_data);
        if (config_.metrics) inst_.sketch_rebuilds->Add();
      }
    }

    // Block-local zonemap repair, pre-publish and outside the registry
    // lock: a still-valid cached index of a mutated target absorbs the
    // appended rows (tail-block extension) and is re-stamped with its
    // post-mutation epoch; FixupCachesLocked installs the repairs after
    // erasing the stale entries.
    std::vector<RepairedZonemap> repaired_zm;
    const std::string prefix = CacheKeyPrefix(version);
    if (map != nullptr) {
      for (size_t s = 0; s < map->shard_count(); ++s) {
        if (touched[s] == 0) continue;
        const std::string zm_key = prefix + "zm|s" + std::to_string(s);
        std::shared_ptr<const ZoneMapIndex> zm = zonemap_cache_.Get(zm_key);
        if (zm == nullptr || zm->source_epoch != map->shard(s).epoch) {
          continue;
        }
        ZoneMapIndex rep = zm->WithAppendedRows(
            new_map->shard(s).rows(), map->shard(s).rows().count());
        rep.source_epoch = new_map->shard(s).epoch;
        rep.source_shard = static_cast<int>(s);
        repaired_zm.emplace_back(
            zm_key, std::make_shared<const ZoneMapIndex>(std::move(rep)));
      }
    } else {
      const std::string zm_key = prefix + "zm|d";
      std::shared_ptr<const ZoneMapIndex> zm = zonemap_cache_.Get(zm_key);
      if (zm != nullptr && zm->source_epoch == minor) {
        ZoneMapIndex rep = zm->WithAppendedRows(*new_data, count);
        rep.source_epoch = minor + 1;  // the bump published below
        rep.source_shard = -1;
        repaired_zm.emplace_back(
            zm_key, std::make_shared<const ZoneMapIndex>(std::move(rep)));
      }
    }

    std::unique_lock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it == registry_.end()) {
      throw std::runtime_error("query engine: dataset '" + name +
                               "' evicted during InsertPoints");
    }
    if (it->second.version != version) {
      if (config_.metrics) inst_.retries->Add();
      continue;  // replaced: retry
    }
    it->second.data = std::move(new_data);  // null for sharded datasets
    it->second.shards = std::move(new_map);
    it->second.sketch = std::move(new_sketch);
    it->second.count = count + add;
    const uint64_t bumped = ++it->second.minor;
    FixupCachesLocked(prefix, mut_lo, mut_hi, touched,
                      /*id_shift=*/{}, repaired_zm);
    if (config_.metrics) {
      inst_.inserts->Add();
      inst_.rows_inserted->Add(add);
      inst_.mutation_latency->Observe(timer.Seconds());
    }
    return bumped;
  }
}

uint64_t SkylineEngine::DeletePoints(const std::string& name,
                                     std::span<const PointId> ids) {
  WallTimer timer;
  std::lock_guard<std::mutex> mutation_lock(mutation_mu_);
  for (;;) {
    std::shared_ptr<const Dataset> data;
    std::shared_ptr<const ShardMap> map;
    std::shared_ptr<const StatsSketch> sketch;
    uint64_t version = 0;
    uint64_t minor = 0;
    int dims = 0;
    size_t count = 0;
    {
      std::shared_lock lock(registry_mu_);
      auto it = registry_.find(name);
      if (it == registry_.end()) {
        throw std::runtime_error("query engine: unknown dataset '" + name +
                                 "'");
      }
      data = it->second.data;
      map = it->second.shards;
      sketch = it->second.sketch;
      version = it->second.version;
      minor = it->second.minor;
      dims = it->second.dims;
      count = it->second.count;
    }
    std::vector<PointId> drop(ids.begin(), ids.end());
    std::sort(drop.begin(), drop.end());
    drop.erase(std::unique(drop.begin(), drop.end()), drop.end());
    if (!drop.empty() && drop.back() >= count) {
      throw std::runtime_error("query engine: DeletePoints id out of range");
    }
    if (drop.empty()) return minor;

    // Compaction map: a surviving global id shifts down by the number of
    // deleted ids below it.
    std::vector<uint8_t> deleted(count, 0);
    for (const PointId id : drop) deleted[id] = 1;
    std::vector<uint32_t> shift(count, 0);
    uint32_t cum = 0;
    for (size_t i = 0; i < count; ++i) {
      shift[i] = cum;
      cum += deleted[i];
    }

    std::vector<Value> mut_lo = EmptyBoxLo(dims);
    std::vector<Value> mut_hi = EmptyBoxHi(dims);
    std::shared_ptr<const Dataset> new_data;
    std::shared_ptr<const ShardMap> new_map = map;
    std::vector<uint8_t> touched;
    auto new_sketch = std::make_shared<StatsSketch>(*sketch);
    if (map != nullptr) {
      // Shards that lost rows get a delta repair (re-promotion scan +
      // compaction); every other shard only has its global row ids
      // compacted through `shift`, sharing rows / skyline / sketch with
      // the old shard.
      const size_t n_shards = map->shard_count();
      ShardMap next = *map;
      touched.assign(n_shards, 0);
      std::vector<std::vector<PointId>> drop_locals(n_shards);
      for (size_t s = 0; s < n_shards; ++s) {
        const Shard& shard = map->shard(s);
        for (size_t i = 0; i < shard.row_ids.size(); ++i) {
          if (!deleted[shard.row_ids[i]]) continue;
          drop_locals[s].push_back(static_cast<PointId>(i));
          GrowBox(mut_lo, mut_hi, shard.rows().Row(i), dims);
        }
        touched[s] = !drop_locals[s].empty();
      }
      // Touched-shard repairs (re-promotion scan + compaction) are
      // independent pure functions of immutable inputs; run them in
      // parallel. The cheap id remaps stay sequential.
      std::vector<std::shared_ptr<const Shard>> repaired(n_shards);
      std::vector<size_t> touched_idx;
      for (size_t s = 0; s < n_shards; ++s) {
        if (touched[s]) touched_idx.push_back(s);
      }
      if (!touched_idx.empty()) {
        std::vector<RepairStats> repair_stats(touched_idx.size());
        // Shared-executor task group, not a per-mutation pool (see the
        // insert path).
        ThreadPool repair_pool(&executor_,
                               std::min<int>(
                                   Executor::DefaultThreads(),
                                   static_cast<int>(touched_idx.size())));
        repair_pool.ParallelFor(
            touched_idx.size(), 1, [&](size_t lo, size_t hi) {
              for (size_t t = lo; t < hi; ++t) {
                // Pre-publish abort on failure, exactly like the insert
                // path's repair fan-out.
                SKY_FAILPOINT("shard_repair");
                const size_t s = touched_idx[t];
                repaired[s] =
                    ShardWithDeletes(map->shard(s), drop_locals[s], shift,
                                     /*sketch_seed=*/version + s,
                                     &repair_stats[t]);
              }
            });
        if (config_.metrics) {
          RepairStats sum;
          for (const RepairStats& rs : repair_stats) {
            sum.dom_tests += rs.dom_tests;
            sum.sketch_rebuilds += rs.sketch_rebuilds;
          }
          inst_.repair_dom_tests->Add(sum.dom_tests);
          inst_.sketch_rebuilds->Add(sum.sketch_rebuilds);
        }
      }
      for (size_t s = 0; s < n_shards; ++s) {
        next.ReplaceShard(s, touched[s]
                                 ? std::move(repaired[s])
                                 : ShardWithRemappedIds(map->shard(s), shift));
      }
      new_map = std::make_shared<const ShardMap>(std::move(next));
      UpdateSketchOnDelete(*new_sketch, drop.size());
      if (SketchNeedsRebuild(*new_sketch)) {
        *new_sketch = ComputeSketch(
            *ReconcatenateRows(*new_map, dims, count - drop.size()));
        if (config_.metrics) inst_.sketch_rebuilds->Add();
      }
    } else {
      for (const PointId id : drop)
        GrowBox(mut_lo, mut_hi, data->Row(id), dims);
      new_data = std::make_shared<const Dataset>(
          DatasetWithoutRows(*data, deleted));
      UpdateSketchOnDelete(*new_sketch, drop.size());
      if (SketchNeedsRebuild(*new_sketch)) {
        *new_sketch = ComputeSketch(*new_data);
        if (config_.metrics) inst_.sketch_rebuilds->Add();
      }
    }

    // Block-local zonemap repair, pre-publish (see InsertPoints): drop
    // the deleted local rows from their blocks and recompute only the
    // touched AABBs. Untouched shards keep their indexes through
    // FixupCachesLocked (shard-local numbering is unchanged by a pure
    // global-id remap, and the shard epoch proves it).
    std::vector<RepairedZonemap> repaired_zm;
    const std::string prefix = CacheKeyPrefix(version);
    if (map != nullptr) {
      for (size_t s = 0; s < map->shard_count(); ++s) {
        if (touched[s] == 0) continue;
        const std::string zm_key = prefix + "zm|s" + std::to_string(s);
        std::shared_ptr<const ZoneMapIndex> zm = zonemap_cache_.Get(zm_key);
        if (zm == nullptr || zm->source_epoch != map->shard(s).epoch) {
          continue;
        }
        const Shard& old_shard = map->shard(s);
        std::vector<PointId> drop_local;  // ascending pre-delete numbering
        for (size_t i = 0; i < old_shard.row_ids.size(); ++i) {
          if (deleted[old_shard.row_ids[i]]) {
            drop_local.push_back(static_cast<PointId>(i));
          }
        }
        ZoneMapIndex rep =
            zm->WithDeletedRows(new_map->shard(s).rows(), drop_local);
        rep.source_epoch = new_map->shard(s).epoch;
        rep.source_shard = static_cast<int>(s);
        repaired_zm.emplace_back(
            zm_key, std::make_shared<const ZoneMapIndex>(std::move(rep)));
      }
    } else {
      const std::string zm_key = prefix + "zm|d";
      std::shared_ptr<const ZoneMapIndex> zm = zonemap_cache_.Get(zm_key);
      if (zm != nullptr && zm->source_epoch == minor) {
        ZoneMapIndex rep = zm->WithDeletedRows(*new_data, drop);
        rep.source_epoch = minor + 1;  // the bump published below
        rep.source_shard = -1;
        repaired_zm.emplace_back(
            zm_key, std::make_shared<const ZoneMapIndex>(std::move(rep)));
      }
    }

    std::unique_lock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it == registry_.end()) {
      throw std::runtime_error("query engine: dataset '" + name +
                               "' evicted during DeletePoints");
    }
    if (it->second.version != version) {
      if (config_.metrics) inst_.retries->Add();
      continue;  // replaced: retry
    }
    it->second.data = std::move(new_data);  // null for sharded datasets
    it->second.shards = std::move(new_map);
    it->second.sketch = std::move(new_sketch);
    it->second.count = count - drop.size();
    const uint64_t bumped = ++it->second.minor;
    FixupCachesLocked(prefix, mut_lo, mut_hi, touched, shift, repaired_zm);
    if (config_.metrics) {
      inst_.deletes->Add();
      inst_.rows_deleted->Add(drop.size());
      inst_.mutation_latency->Observe(timer.Seconds());
    }
    return bumped;
  }
}

void SkylineEngine::FixupCachesLocked(
    const std::string& prefix, const std::vector<Value>& mut_lo,
    const std::vector<Value>& mut_hi,
    const std::vector<uint8_t>& touched_shards,
    const std::vector<uint32_t>& id_shift,
    const std::vector<RepairedZonemap>& repaired_zonemaps) {
  const bool is_delete = !id_shift.empty();
  // Result cache: an entry survives iff its constraint box provably
  // excludes every mutated row — then no inserted or deleted row is in
  // the constraint region, so its member set, dominator counts, and
  // matched_rows are all unchanged. Deletes still compact the surviving
  // ids through `id_shift` (no surviving entry can reference a deleted
  // row: deleted rows are outside its box).
  const size_t results_erased = cache_.EditPrefix(
      prefix,
      [&](const std::string&, const std::shared_ptr<const QueryResult>& v)
          -> std::shared_ptr<const QueryResult> {
        if (v->constraints.empty() ||
            BoxIntersectsConstraints(mut_lo, mut_hi, v->constraints)) {
          return nullptr;
        }
        if (!is_delete) return v;
        auto remapped = std::make_shared<QueryResult>(*v);
        for (PointId& id : remapped->ids) id -= id_shift[id];
        return remapped;
      });
  // View cache: a shard-cut view is the shard's rows filtered by the
  // box, in shard-local numbering — it survives iff its shard was
  // untouched (deletes included: shard-local indices only move when the
  // shard itself loses rows, and the executor composes global ids from
  // the *new* shard's row_ids). A whole-dataset view survives an insert
  // iff its box excludes every inserted row; any delete erases it — its
  // row_ids are global, and remapping them would deep-copy the
  // dataset-sized view for little gain.
  const size_t views_erased = view_cache_.EditPrefix(
      prefix,
      [&](const std::string&, const std::shared_ptr<const QueryView>& v)
          -> std::shared_ptr<const QueryView> {
        if (v->source_shard >= 0) {
          const size_t s = static_cast<size_t>(v->source_shard);
          const bool untouched =
              s < touched_shards.size() && touched_shards[s] == 0;
          return untouched ? v : nullptr;
        }
        if (is_delete || v->constraints.empty() ||
            BoxIntersectsConstraints(mut_lo, mut_hi, v->constraints)) {
          return nullptr;
        }
        return v;
      });
  // Selectivity cache: estimates are advisory (they steer algorithm
  // selection, never correctness), so box-excluded entries survive even
  // though the total row count drifted; intersecting ones are
  // re-estimated on the next miss from the staleness-damped sketch.
  const size_t selectivities_erased = selectivity_cache_.EditPrefix(
      prefix,
      [&](const std::string&, const std::shared_ptr<const SelectivityEntry>& v)
          -> std::shared_ptr<const SelectivityEntry> {
        if (v->constraints.empty() ||
            BoxIntersectsConstraints(mut_lo, mut_hi, v->constraints)) {
          return nullptr;
        }
        return v;
      });
  // Zonemap cache: indexes live in shard-local row space, exactly like
  // shard-cut views — a shard entry survives iff its shard kept its rows
  // (deletes of *other* shards only remap global ids, which the index
  // never stores). The whole-dataset entry is always erased: any
  // unsharded mutation changed its rows, and any sharded mutation means
  // the key is unused anyway. The pre-built block-local repairs are then
  // installed in place of what was erased.
  const size_t zonemaps_erased = zonemap_cache_.EditPrefix(
      prefix,
      [&](const std::string&, const std::shared_ptr<const ZoneMapIndex>& v)
          -> std::shared_ptr<const ZoneMapIndex> {
        if (v->source_shard >= 0) {
          const size_t s = static_cast<size_t>(v->source_shard);
          const bool untouched =
              s < touched_shards.size() && touched_shards[s] == 0;
          return untouched ? v : nullptr;
        }
        return nullptr;
      });
  for (const RepairedZonemap& rz : repaired_zonemaps) {
    zonemap_cache_.Put(rz.first, rz.second);
  }
  if (config_.metrics) {
    inst_.invalidated_results->Add(results_erased);
    inst_.invalidated_views->Add(views_erased);
    inst_.invalidated_selectivities->Add(selectivities_erased);
    inst_.invalidated_zonemaps->Add(zonemaps_erased);
    inst_.zonemap_repairs->Add(repaired_zonemaps.size());
  }
}

}  // namespace sky
