// Copyright (c) SkyBench-NG contributors.
// Shard-local delta repair: the builders behind SkylineEngine's
// InsertPoints / DeletePoints. A mutation never re-registers the
// dataset — each touched shard gets a copy-on-write replacement whose
// skyline is repaired incrementally with the streaming window
// (core/streaming.h) and the batched tile kernels, and whose sketch is
// updated in place (data/sketch.h) with a periodic exact rebuild.
// Untouched shards are shared by pointer; M(S) makes the global answer
// invariant to which shard each row lives in, so repairing only the
// touched shards is sufficient for global correctness.
#ifndef SKY_QUERY_DELTA_H_
#define SKY_QUERY_DELTA_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "query/shard_map.h"

namespace sky {

/// Ascending skyline row indices of `rows` — the lazy first build of a
/// shard's maintained skyline (later mutations repair it incrementally).
std::vector<PointId> ComputeShardSkyline(const Dataset& rows);

/// Work accounting of one shard repair, reported through the optional
/// out-param of ShardWithInserts / ShardWithDeletes so the engine can
/// feed its metrics registry. Repairs used to measure these and drop
/// them on the floor; mutation work was invisible at runtime.
struct RepairStats {
  uint64_t dom_tests = 0;        ///< dominance tests the repair executed
  uint64_t sketch_rebuilds = 0;  ///< exact sketch rebuilds triggered
  uint64_t zonemap_repairs = 0;  ///< zonemap indexes repaired block-locally

  RepairStats& operator+=(const RepairStats& o) {
    dom_tests += o.dom_tests;
    sketch_rebuilds += o.sketch_rebuilds;
    zonemap_repairs += o.zonemap_repairs;
    return *this;
  }
};

/// COW replacement for `shard` with the selected batch rows appended:
/// `batch_rows` are row indices into `batch` (the engine-level insert
/// batch) routed to this shard, and the appended row with batch index b
/// gets global id `base_global_id + b`. The shard skyline is repaired by
/// window-scanning each new row against the maintained skyline (seeded
/// without any dominance work); the box grows exactly; the sketch is
/// updated incrementally and rebuilt exactly once stale enough. A built
/// zonemap index is repaired with WithAppendedRows; an unbuilt one stays
/// unbuilt.
std::shared_ptr<const Shard> ShardWithInserts(
    const Shard& shard, const Dataset& batch,
    const std::vector<size_t>& batch_rows, PointId base_global_id,
    uint64_t sketch_seed, RepairStats* repair_stats = nullptr);

/// COW replacement for `shard` with the ascending shard-local rows
/// `drop_local` removed. Deleted skyline members trigger re-promotion:
/// the shard is scanned for rows dominated by a removed member
/// (exclusive-dominator candidates) and the survivors-seeded window
/// re-inserts them — transitivity guarantees no other row can enter the
/// skyline. Surviving global row ids are compacted through
/// `global_shift` (new id = old id - global_shift[old id], the count of
/// deleted global ids below it). Box and sketch are refreshed; the box
/// is recomputed exactly during the compaction rewrite. A built zonemap
/// index is repaired with WithDeletedRows.
std::shared_ptr<const Shard> ShardWithDeletes(
    const Shard& shard, const std::vector<PointId>& drop_local,
    const std::vector<uint32_t>& global_shift, uint64_t sketch_seed,
    RepairStats* repair_stats = nullptr);

/// COW replacement for a shard no row was deleted from, with row_ids
/// compacted through `global_shift`. Shares the row storage, box,
/// sketch, skyline, and zonemap index of the original.
std::shared_ptr<const Shard> ShardWithRemappedIds(
    const Shard& shard, const std::vector<uint32_t>& global_shift);

}  // namespace sky

#endif  // SKY_QUERY_DELTA_H_
