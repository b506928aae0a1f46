// Copyright (c) SkyBench-NG contributors.
// The rows one skyline run loads: a dataset plus the query transform that
// turns it into the run's input — a constraint box, the kept columns and
// the MAX-negate bit pattern — applied while the rows are copied into the
// run's private working copy (WorkingSet::Load), not in a view built
// beforehand. A constrained source may carry the dataset's zonemap index
// (index/zonemap.h): the load then walks its blocks, skipping those the
// box misses and copying those inside it without a row test. A box-only
// source (every column kept, none negated) can also be read in place by
// a zonemap traversal (core/zonemap_skyline.h), which loads nothing. A
// Dataset converts implicitly to its identity source, so every algorithm
// entry point taking a RowSource still accepts a plain Dataset.
#ifndef SKY_DATA_ROW_SOURCE_H_
#define SKY_DATA_ROW_SOURCE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/types.h"
#include "data/dataset.h"
#include "parallel/executor.h"
#include "query/query_spec.h"

namespace sky {

class ZoneMapIndex;

/// What one non-identity load did, for the engine's `view.build` span. A
/// traversal of a box-only source in place reports only `rows_in` and
/// `rows_loaded` (the rows inside the box) and leaves `done` false: it
/// loaded nothing.
struct LoadStats {
  size_t rows_in = 0;             ///< source rows
  size_t rows_loaded = 0;         ///< rows inside the box
  size_t blocks = 0;              ///< index blocks (0 = no index walk)
  size_t blocks_visited = 0;      ///< blocks whose rows were read
  size_t blocks_inside = 0;       ///< visited blocks copied without a test
  size_t blocks_box_skipped = 0;  ///< blocks whose AABB misses the box
  int threads = 1;                ///< parallelism the load ran at
  std::chrono::steady_clock::time_point start{};
  double seconds = 0.0;
  bool done = false;  ///< set once the load completed
};

class RowSource {
 public:
  /// Identity source: every row of `rows`, unchanged, in row order.
  RowSource(const Dataset& rows);  // NOLINT(runtime/explicit)

  /// `rows` under `spec`, whose preferences must be expanded to
  /// rows.dims() entries (QuerySpec::Canonicalize does that); its
  /// constraints are taken as listed — intersected, possibly empty or
  /// inverted — and its depth and cap are ignored. `index`, when given,
  /// must cover `rows`; constrained loads then walk its blocks. `stats`,
  /// when given, receives what each non-identity load did. Both are
  /// borrowed and must outlive the source.
  RowSource(const Dataset& rows, const QuerySpec& spec,
            const ZoneMapIndex* index = nullptr, LoadStats* stats = nullptr);

  const Dataset& rows() const { return *rows_; }
  /// True when a load is a plain copy of rows() (no box, no transform).
  bool identity() const { return identity_; }
  /// True when every column is kept and none negated: at most a box
  /// separates the loaded rows from rows().
  bool plain() const { return plain_; }
  bool constrained() const { return !constraints_.empty(); }
  std::span<const DimConstraint> constraints() const { return constraints_; }
  /// The borrowed zonemap index over rows(), or null.
  const ZoneMapIndex* index() const { return index_; }

  /// For a run that reads rows() in place instead of loading them: report
  /// the `rows_matched` rows inside the box to the stats sink, if any.
  void ReportInPlace(size_t rows_matched) const;
  /// Loaded row dimensionality: the kept columns.
  int dims() const { return static_cast<int>(kept_.size()); }
  /// Padded stride of a loaded row.
  int stride() const { return Dataset::StrideFor(dims()); }

  /// Write source row `row` in loaded form to `dst` (dims() floats): the
  /// kept columns in order, MAX columns negated by a sign-bit flip.
  void EmitRow(size_t row, Value* dst) const { Emit(rows_->Row(row), dst); }

  /// Where one load writes its `count` rows: row i at rows + i * stride(),
  /// its source row id at ids[i]. Rows arrive zero-filled.
  struct Target {
    Value* rows = nullptr;
    PointId* ids = nullptr;
  };

  /// Load every selected row, transformed, into the storage `alloc(count)`
  /// returns, on `group`. Identity sources copy rows() in order. Other
  /// unconstrained sources transform every row in source order.
  /// Constrained sources with an index walk its blocks in cut order —
  /// disjoint blocks skipped, inside blocks copied untested, partial ones
  /// tested row by row from the clustered copy — then test the irregular
  /// rows one by one; without an index they scan rows in source order.
  /// Non-identity loads hit the `view_build` failpoint, poll `cancel` once
  /// per chunk (throwing CancelledError) and fill the stats sink. The
  /// result is identical at every group width.
  void Load(Executor::TaskGroup& group, const CancelToken* cancel,
            const std::function<Target(size_t count)>& alloc) const;

  /// The loaded rows as a Dataset plus the source row of each — for
  /// algorithms that run on a Dataset rather than a WorkingSet.
  struct Materialized {
    Dataset data;
    std::vector<PointId> ids;
  };
  Materialized Materialize(Executor::TaskGroup& group,
                           const CancelToken* cancel) const;

 private:
  void Emit(const Value* src, Value* dst) const;
  void LoadScan(Executor::TaskGroup& group, const CancelToken* cancel,
                const std::function<Target(size_t)>& alloc,
                LoadStats& st) const;
  void LoadBlocks(Executor::TaskGroup& group, const CancelToken* cancel,
                  const std::function<Target(size_t)>& alloc,
                  LoadStats& st) const;

  const Dataset* rows_;
  const ZoneMapIndex* index_ = nullptr;
  LoadStats* stats_ = nullptr;
  bool identity_ = true;
  bool plain_ = true;  ///< every column kept, none negated
  std::vector<int> kept_;
  std::vector<uint32_t> flip_;  ///< per kept column: sign-bit XOR mask
  std::vector<DimConstraint> constraints_;
  std::vector<Value> box_lo_;  ///< expanded box, rows().dims() entries
  std::vector<Value> box_hi_;
};

}  // namespace sky

#endif  // SKY_DATA_ROW_SOURCE_H_
