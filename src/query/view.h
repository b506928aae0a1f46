// Copyright (c) SkyBench-NG contributors.
// Query rewriter: materializes a QuerySpec against a Dataset as a plain
// Dataset *view* the unmodified algorithm suite can consume. The rewrite
// is purely in data space — MAX dimensions are negated (dominance under
// "larger is better" equals min-dominance of the negated column), IGNORE
// dimensions are dropped, and rows outside the constraint box are removed
// — so every algorithm keeps answering its one native question while the
// engine answers many.
//
// MaterializeView is the one-shot RunQuery / VerifyQuery oracle path
// only. The engine never builds a view: its shard runs load through a
// RowSource (data/row_source.h), which applies the same rewrite while
// making the algorithm's working copy. The two are implemented
// independently so each can check the other (tests/row_source_test.cc).
#ifndef SKY_QUERY_VIEW_H_
#define SKY_QUERY_VIEW_H_

#include <cstddef>
#include <vector>

#include "core/options.h"
#include "data/dataset.h"
#include "query/query_spec.h"

namespace sky {

/// A materialized query view plus the bookkeeping to translate results
/// back into the original dataset's row ids.
struct QueryView {
  /// Transformed dataset: one row per constraint-surviving original row,
  /// one column per non-ignored dimension, MAX columns negated.
  Dataset data;
  /// View row -> original row id (size == data.count()).
  std::vector<PointId> row_ids;
  /// View column -> original dimension (ascending; size == data.dims()).
  std::vector<int> kept_dims;
  /// Wall time spent building the view.
  double materialize_seconds = 0.0;
  /// Parallelism the build ran at: the request's thread budget, clamped
  /// to the executor's width and to the number of row chunks.
  int build_threads = 1;
};

/// Rows per unit of work in MaterializeView: each chunk is box-tested,
/// counted and scattered by one worker. A multiple of 64 so every word
/// of the survivor bitmap belongs to exactly one chunk.
inline constexpr size_t kViewChunkRows = 4096;

/// Build the view of `data` under `spec`. `spec` must already be in
/// canonical form for `data.dims()` (see QuerySpec::Canonicalize).
/// Runs as one TaskGroup on opts.ResolvedExecutor() at `opts.threads`
/// parallelism and polls `opts.cancel` once per row chunk, throwing
/// CancelledError when it trips. The result is identical at every width.
QueryView MaterializeView(const Dataset& data, const QuerySpec& spec,
                          const Options& opts);

/// Serial build: MaterializeView(data, spec, opts) with threads = 1.
QueryView MaterializeView(const Dataset& data, const QuerySpec& spec);

/// Rank score of a view row under the top-k cap: the sum of its (already
/// preference-oriented) view coordinates in column order — "best combined
/// trade-off first". Exposed so engine and tests share one float-exact
/// definition.
Value ViewRowScore(const Value* view_row, int dims);

}  // namespace sky

#endif  // SKY_QUERY_VIEW_H_
