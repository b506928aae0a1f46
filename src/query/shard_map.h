// Copyright (c) SkyBench-NG contributors.
// Sharded dataset representation for the serving layer: every registered
// dataset is split once, at registration time, into K >= 1 shards, each a
// self-contained Dataset plus the row-id mapping back to the original and
// an axis-aligned bounding box over the original dimensions. The planner
// (query/planner.h) prunes shards whose boxes miss the constraint box and
// the engine executes the survivors independently, merging partial
// skylines with the paper's M(S) union-then-filter operator.
#ifndef SKY_QUERY_SHARD_MAP_H_
#define SKY_QUERY_SHARD_MAP_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/sketch.h"

namespace sky {

class Executor;
class ZoneMapIndex;

/// How rows are assigned to shards at build time.
enum class ShardPolicy : uint8_t {
  kRoundRobin,   ///< row i -> shard i mod K (balanced, box-agnostic)
  kMedianPivot,  ///< group by median-pivot partition mask (paper §VI-A2),
                 ///< then cut the mask order into K equal runs — spatially
                 ///< coherent shards with tight boxes, so constraint
                 ///< pruning actually fires
};

const char* ShardPolicyName(ShardPolicy policy);
/// Parse "rr" / "roundrobin" / "median". Throws std::runtime_error.
ShardPolicy ParseShardPolicy(const std::string& name);

/// One shard: a contiguous Dataset (rows re-padded), the original row id
/// of each shard row, and a bounding box per original dimension that
/// covers every row. NaN coordinates are excluded from the box — they can
/// never satisfy a closed-interval constraint, so pruning on the NaN-free
/// box never drops a matching row. A one-shard map aliases the whole
/// dataset instead: its ids stay implicit (the identity) and its box is
/// unbounded, so building it costs no pass over the rows.
struct Shard {
  /// Shared so a copy-on-write ShardMap clone can alias the untouched
  /// shards' row storage instead of deep-copying it; never null once
  /// built.
  std::shared_ptr<const Dataset> data;
  /// Shard row -> original dataset row; empty when shard row i is
  /// original row i for every i, as in a one-shard map (read ids through
  /// global_id()).
  std::vector<PointId> row_ids;
  std::vector<Value> box_lo;  ///< per-dim minimum (+inf if all-NaN)
  std::vector<Value> box_hi;  ///< per-dim maximum (-inf if all-NaN)
  /// Registration-time statistics of this shard's rows — the planner's
  /// per-shard cost-model input (query/cost_model.h). Incrementally
  /// updated (with staleness tracking) under mutation.
  StatsSketch sketch;
  /// Maintained shard-local skyline: ascending shard row indices of this
  /// shard's skyline, or nullptr when never computed. Built lazily by the
  /// first mutation (delta repair needs it) and consumed by the executor
  /// as a precomputed candidate set for identity band-1 queries.
  std::shared_ptr<const std::vector<PointId>> skyline;

  const Dataset& rows() const { return *data; }
  /// Original dataset row of shard row `row`.
  PointId global_id(size_t row) const {
    return row_ids.empty() ? static_cast<PointId>(row) : row_ids[row];
  }

  /// Default-block zonemap index over rows() (index/zonemap.h), built on
  /// first use and kept for the life of this shard. Concurrent first uses
  /// build it once; a build that throws leaves the slot empty, so the
  /// next call retries.
  std::shared_ptr<const ZoneMapIndex> zonemap() const;
  /// The index if it was built or installed, else nullptr (never builds).
  std::shared_ptr<const ZoneMapIndex> built_zonemap() const;
  /// Install an index over rows() — a delta repair of the parent shard's.
  void set_zonemap(std::shared_ptr<const ZoneMapIndex> index);

 private:
  struct ZonemapSlot {
    std::mutex mu;
    std::shared_ptr<const ZoneMapIndex> index;  // guarded by mu
  };
  /// Held by pointer so a copy of the shard shares it: the copy shares
  /// `data` too (ShardWithRemappedIds), so the index describes its rows.
  /// A builder that gives a shard new rows starts from a fresh Shard.
  std::shared_ptr<ZonemapSlot> zonemap_ = std::make_shared<ZonemapSlot>();
};

/// Immutable shard decomposition of one dataset, with shards held by
/// shared_ptr so mutation produces a cheap copy-on-write clone: the new
/// map shares every untouched shard's storage and swaps in freshly built
/// replacements for the touched ones.
class ShardMap {
 public:
  /// Split `data` into min(shards, max(count, 1)) shards under `policy`.
  /// `seed` feeds pivot selection and shard s's sketch (seed + s). Every
  /// original row lands in exactly one shard; shard sizes differ by at
  /// most one. A single shard aliases `data` itself (implicit ids,
  /// unbounded box). The median-pivot mask pass runs on `executor` when
  /// given (the engine passes its shared scheduler), otherwise on
  /// Executor::Default().
  static ShardMap Build(std::shared_ptr<const Dataset> data, size_t shards,
                        ShardPolicy policy, uint64_t seed = 42,
                        Executor* executor = nullptr);
  /// Same, for callers that do not own `data` in a shared_ptr: a single
  /// shard then holds a copy.
  static ShardMap Build(const Dataset& data, size_t shards,
                        ShardPolicy policy, uint64_t seed = 42,
                        Executor* executor = nullptr);

  size_t shard_count() const { return shards_.size(); }
  const Shard& shard(size_t i) const { return *shards_[i]; }
  std::shared_ptr<const Shard> shard_ptr(size_t i) const {
    return shards_[i];
  }
  /// Swap shard i for a repaired replacement and refresh total_count()
  /// from the new shard sizes (copy-on-write publish step).
  void ReplaceShard(size_t i, std::shared_ptr<const Shard> shard);
  /// Pick the shard a new row should join: round-robin routes to the
  /// least-loaded shard; median-pivot routes to the shard whose bounding
  /// box needs the least (range-normalized) expansion to admit the row,
  /// ties broken least-loaded then lowest index. Deterministic; the
  /// assignment need not match what a fresh Build would produce — M(S)
  /// makes query results invariant to the shard decomposition.
  size_t RouteInsert(const Value* row) const;
  ShardPolicy policy() const { return policy_; }
  int dims() const { return dims_; }
  /// Sum of shard row counts (== the source dataset's count).
  size_t total_count() const { return total_count_; }
  /// Every row at its original id, as one Dataset: the aliased rows of a
  /// single implicit-id shard, otherwise an O(n) concatenation.
  std::shared_ptr<const Dataset> WholeRows() const;

 private:
  std::vector<std::shared_ptr<const Shard>> shards_;
  ShardPolicy policy_ = ShardPolicy::kRoundRobin;
  int dims_ = 0;
  size_t total_count_ = 0;
};

}  // namespace sky

#endif  // SKY_QUERY_SHARD_MAP_H_
