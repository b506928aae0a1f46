// Copyright (c) SkyBench-NG contributors.
// Block zonemap index: a flat 1-2 level block summary cut over a dataset's
// rows. Level 0 is an ordered list of fixed-size blocks (~256 rows each),
// every block carrying its exact per-dimension minimum (the "min corner" of
// BBS [Papadias et al. 2003]) and full AABB; level 1 groups consecutive
// blocks into super-blocks with merged AABBs. core/zonemap_skyline.h runs a
// best-first branch-and-bound traversal over this structure, and constrained
// loads (data/row_source.h) classify block AABBs against the constraint box
// to skip or bulk-copy whole blocks.
#ifndef SKY_INDEX_ZONEMAP_H_
#define SKY_INDEX_ZONEMAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "data/dataset.h"

namespace sky {

struct StatsSketch;

/// Relation of an axis-aligned box to a query box.
enum class BoxRel { kDisjoint, kInside, kPartial };

/// Relation of the AABB [lo, hi] to the expanded query box [box_lo,
/// box_hi] (all `dims` dimensions, unconstrained ones at +-inf). Exact for
/// the finite AABBs of index blocks: disjoint blocks hold no box row,
/// inside blocks hold only box rows. An inverted box (box_lo > box_hi on
/// some dimension) is never classified inside.
inline BoxRel ClassifyBox(const Value* lo, const Value* hi,
                          const Value* box_lo, const Value* box_hi,
                          int dims) {
  bool inside = true;
  for (int j = 0; j < dims; ++j) {
    if (lo[j] > box_hi[j] || hi[j] < box_lo[j]) return BoxRel::kDisjoint;
    inside &= lo[j] >= box_lo[j] && hi[j] <= box_hi[j];
  }
  return inside ? BoxRel::kInside : BoxRel::kPartial;
}

/// Immutable block summary of one dataset (typically one shard's rows).
/// Rows with any non-finite coordinate (NaN or +-inf) are segregated into
/// the `irregular` list and never enter a block, so every block AABB is
/// finite and min-corner dominance reasoning is exact.
///
/// The index is clustering: finite rows are copied into cut order (dataset
/// stride preserved), so block scans read sequential memory instead of
/// gathering through the source row order.
///
/// Blocks are cut after ordering finite rows along a Z-order (Morton) curve
/// over their normalized quantile ranks: each coordinate is ranked against
/// the owning shard's StatsSketch quantiles (min-max normalisation when no
/// sketch is available) and the rank bits are interleaved MSB-first across
/// dimensions, so consecutive rows share a spatial cell and AABBs stay
/// tight on every axis — even on round-robin shards whose row order is
/// interleaved.
///
/// Mutation repair is block-local: WithAppendedRows extends the tail block
/// and appends fresh blocks (AABBs stay exact; rank order degrades only for
/// the appended tail until a rebuild), WithDeletedRows drops rows from their
/// blocks and recomputes only the touched AABBs.
class ZoneMapIndex {
 public:
  static constexpr size_t kDefaultBlockRows = 256;
  static constexpr size_t kSuperFan = 64;  ///< blocks per super-block

  ZoneMapIndex() = default;

  /// Build over all rows of `data`. `block_rows` 0 = kDefaultBlockRows.
  /// `sketch`, when given, supplies the per-dimension quantile samples the
  /// rank-sum cut key is computed against.
  static ZoneMapIndex Build(const Dataset& data, size_t block_rows = 0,
                            const StatsSketch* sketch = nullptr);

  /// Repaired index after rows were appended: `data` is the post-insert
  /// dataset whose first `old_count` rows this index was built over.
  ZoneMapIndex WithAppendedRows(const Dataset& data, size_t old_count) const;

  /// Repaired index after deletes: `drop_local` holds the deleted local row
  /// indices (ascending, pre-delete numbering) and `data` is the compacted
  /// post-delete dataset (survivors keep their relative order).
  ZoneMapIndex WithDeletedRows(const Dataset& data,
                               std::span<const PointId> drop_local) const;

  int dims() const { return dims_; }
  /// Total rows indexed (blocks + irregular) == source dataset count.
  size_t rows() const { return rows_; }
  size_t block_rows() const { return block_rows_; }

  size_t block_count() const {
    return block_begin_.empty() ? 0 : block_begin_.size() - 1;
  }
  /// Local row indices of block `b`, in cut order.
  std::span<const uint32_t> block_points(size_t b) const {
    return {order_.data() + block_begin_[b],
            order_.data() + block_begin_[b + 1]};
  }
  /// Clustered copy of block `b`'s rows: the i-th row of block_points(b)
  /// starts at block_row_data(b) + i * stride(). Blocks are concatenated in
  /// cut order, so a traversal scan is sequential instead of gathering
  /// through the dataset's row order.
  const Value* block_row_data(size_t b) const {
    return clustered_.data() + static_cast<size_t>(block_begin_[b]) * stride_;
  }
  /// Floats per clustered row (the source dataset's padded stride).
  size_t stride() const { return stride_; }
  /// Rows held in blocks (== rows() - irregular().size()).
  size_t finite_count() const { return order_.size(); }
  /// Exact per-dimension minimum (min corner) / maximum of block `b`.
  const Value* block_lo(size_t b) const { return block_lo_.data() + b * dims_; }
  const Value* block_hi(size_t b) const { return block_hi_.data() + b * dims_; }

  size_t super_count() const {
    return super_begin_.empty() ? 0 : super_begin_.size() - 1;
  }
  /// Half-open block range [first, last) covered by super-block `s`.
  uint32_t super_first(size_t s) const { return super_begin_[s]; }
  uint32_t super_last(size_t s) const { return super_begin_[s + 1]; }
  const Value* super_lo(size_t s) const { return super_lo_.data() + s * dims_; }
  const Value* super_hi(size_t s) const { return super_hi_.data() + s * dims_; }

  /// Rows excluded from blocks because some coordinate is non-finite.
  std::span<const uint32_t> irregular() const { return irregular_; }

  /// Full structural check against the dataset the index claims to cover:
  /// blocks + irregular partition [0, rows), AABBs are exact, every block
  /// row is finite, supers tile the block list with merged AABBs. Used by
  /// tests and mutation-repair assertions; O(n*d).
  bool Validate(const Dataset& data) const;

 private:
  void RebuildSupers();

  int dims_ = 0;
  size_t rows_ = 0;
  size_t stride_ = 0;
  size_t block_rows_ = kDefaultBlockRows;
  std::vector<uint32_t> order_;        ///< block row lists, concatenated
  std::vector<Value> clustered_;       ///< order_'s rows, stride_ floats each
  std::vector<uint32_t> block_begin_;  ///< block_count+1 offsets into order_
  std::vector<Value> block_lo_;        ///< block_count x dims
  std::vector<Value> block_hi_;        ///< block_count x dims
  std::vector<uint32_t> super_begin_;  ///< super_count+1 offsets into blocks
  std::vector<Value> super_lo_;        ///< super_count x dims
  std::vector<Value> super_hi_;        ///< super_count x dims
  std::vector<uint32_t> irregular_;    ///< rows with a non-finite coordinate
};

}  // namespace sky

#endif  // SKY_INDEX_ZONEMAP_H_
