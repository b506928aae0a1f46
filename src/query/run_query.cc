// Copyright (c) SkyBench-NG contributors.
// The one-shot oracle path: RunQuery materializes the spec's view with
// MaterializeView and runs the algorithm on it, and VerifyQuery checks a
// result by brute force on the same view. Neither shares the engine's
// RowSource loads, plan or merge, so tests and the benchmark's
// correctness gate can hold the engine against them.
#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/skyband.h"
#include "core/skyline.h"
#include "query/cost_model.h"
#include "query/engine.h"
#include "query/view.h"

namespace sky {
namespace {

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
    run_opts.progressive = [&opts, row_map](std::span<const PointId> rows) {
      std::vector<PointId> ids(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) ids[i] = (*row_map)[rows[i]];
      opts.progressive(ids);
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
      scores[i] = RankScore(target.Row(view_rows[i]), target.dims());
    }
    RankAndTruncate(r, canon.top_k, scores);
  }
  r.stats.skyline_size = r.ids.size();
  return r;
}

}  // namespace

QueryResult RunQuery(const Dataset& data, const QuerySpec& spec,
                     const Options& opts) {
  const QuerySpec canon = spec.Canonicalize(data.dims());
  obs::TraceScope root = obs::TraceScope::Root(opts.trace, "query");
  const auto execute = [&](const Dataset& target,
                           const std::vector<PointId>* row_map) {
    obs::TraceScope span(root, "execute");
    QueryResult r = RunOnTarget(target, row_map, canon, opts);
    if (!r.shard_algorithms.empty()) {
      span.Attr("algo", AlgorithmName(r.shard_algorithms[0]));
    }
    span.AttrCount("rows", r.matched_rows);
    return r;
  };
  QueryResult r;
  if (canon.IsIdentityTransform()) {
    // Fast path: the native question needs no view at all.
    r = execute(data, nullptr);
  } else {
    const QueryView view = [&] {
      obs::TraceScope span(root, "view.build");
      QueryView built = MaterializeView(data, canon, opts);
      span.AttrCount("rows", built.data.count());
      span.AttrCount("threads", static_cast<uint64_t>(built.build_threads));
      return built;
    }();
    r = execute(view.data, &view.row_ids);
    r.stats.other_seconds += view.materialize_seconds;
    r.stats.total_seconds += view.materialize_seconds;
  }
  root.AttrCount("members", r.ids.size());
  r.trace = root.Finish();
  return r;
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
      const Value sa = RankScore(v.Row(rows[a]), d);
      const Value sb = RankScore(v.Row(rows[b]), d);
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

}  // namespace sky
