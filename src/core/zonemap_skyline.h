// Copyright (c) SkyBench-NG contributors.
// BBS-style branch-and-bound skyline over a block zonemap index
// (index/zonemap.h): a min-heap ordered by min-corner L1 norm pops
// super-blocks, blocks and individual points best-first; any entry whose
// min corner is dominated by an already-confirmed member is pruned with a
// single DominatedByAny tile call, and block AABBs are intersected with
// the query's constraint box so constrained specs skip whole blocks
// without touching a row. Registered as Algorithm::kZonemap.
#ifndef SKY_CORE_ZONEMAP_SKYLINE_H_
#define SKY_CORE_ZONEMAP_SKYLINE_H_

#include <span>
#include <vector>

#include "core/options.h"
#include "data/dataset.h"
#include "data/row_source.h"
#include "index/zonemap.h"
#include "query/query_spec.h"

namespace sky {

/// Outcome of one zonemap traversal, in the index's local row space.
struct ZonemapRunResult {
  std::vector<PointId> skyline;  ///< local row indices, confirmation order
  RunStats stats;                ///< init = heap seed, phase1 = traversal,
                                 ///< phase2 = irregular/final filter
  size_t matched_rows = 0;       ///< rows inside the constraint box (exact)
  size_t blocks_visited = 0;     ///< blocks whose rows entered the heap
  size_t blocks_pruned = 0;      ///< blocks skipped: min corner dominated
  size_t blocks_box_skipped = 0; ///< blocks skipped: AABB misses the box
  std::vector<uint32_t> pruned_blocks;  ///< indices of dominance-pruned blocks
};

/// Best-first traversal of `index` (which must have been built over
/// `data`). `constraints` restricts candidates to a box exactly like
/// MaterializeView does (closed intervals; a NaN coordinate fails its
/// constraint); empty = unconstrained. Finite rows are resolved by the
/// branch-and-bound traversal; rows the index segregated as irregular
/// (non-finite coordinates) are box-checked individually and folded in
/// with a final FilterTile pass, so results match the flat algorithms on
/// any input. opts.progressive streams confirmed members (local ids) in
/// dominance order — only when no irregular row passes the box, since a
/// late irregular row could otherwise retract a streamed member.
ZonemapRunResult ZonemapSkylineRun(const Dataset& data,
                                   const ZoneMapIndex& index,
                                   std::span<const DimConstraint> constraints,
                                   const Options& opts);

/// Registry entry point (AlgorithmTable row for Algorithm::kZonemap). A
/// box-only source (RowSource::plain) is traversed in place with its own
/// constraints over its own index — the engine attaches the shard's —
/// or, when it carries none, over a private default-size build; the
/// rows inside the box go to the source's stats sink
/// (RowSource::ReportInPlace). Any other source is materialized
/// (RunOnMaterialized) and the loaded copy traversed over a private build.
Result ZonemapSkylineCompute(const RowSource& source, const Options& opts);

}  // namespace sky

#endif  // SKY_CORE_ZONEMAP_SKYLINE_H_
