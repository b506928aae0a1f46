// Copyright (c) SkyBench-NG contributors.
#include "query/delta.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>

#include "core/skyline.h"
#include "core/streaming.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"
#include "index/zonemap.h"

namespace sky {
namespace {

/// Exact bounding box of `data` (NaN coordinates excluded, matching
/// ShardMap::Build).
void ComputeBox(const Dataset& data, std::vector<Value>& lo,
                std::vector<Value>& hi) {
  const int dims = data.dims();
  lo.assign(static_cast<size_t>(dims),
            std::numeric_limits<Value>::infinity());
  hi.assign(static_cast<size_t>(dims),
            -std::numeric_limits<Value>::infinity());
  for (size_t i = 0; i < data.count(); ++i) {
    const Value* row = data.Row(i);
    for (int j = 0; j < dims; ++j) {
      if (row[j] < lo[static_cast<size_t>(j)]) {
        lo[static_cast<size_t>(j)] = row[j];
      }
      if (row[j] > hi[static_cast<size_t>(j)]) {
        hi[static_cast<size_t>(j)] = row[j];
      }
    }
  }
}

std::vector<PointId> BaseSkyline(const Shard& shard) {
  if (shard.skyline != nullptr) return *shard.skyline;
  return ComputeShardSkyline(shard.rows());
}

}  // namespace

std::vector<PointId> ComputeShardSkyline(const Dataset& rows) {
  if (rows.count() == 0) return {};
  Result run = ComputeSkyline(rows, Options{});
  std::sort(run.skyline.begin(), run.skyline.end());
  return std::move(run.skyline);
}

std::shared_ptr<const Shard> ShardWithInserts(
    const Shard& shard, const Dataset& batch,
    const std::vector<size_t>& batch_rows, PointId base_global_id,
    uint64_t sketch_seed, RepairStats* repair_stats) {
  const Dataset& old_rows = shard.rows();
  const int dims = old_rows.dims();
  const size_t old_count = old_rows.count();
  const size_t add = batch_rows.size();
  const size_t stride = static_cast<size_t>(old_rows.stride());
  const size_t row_bytes = sizeof(Value) * stride;

  auto out = std::make_shared<Shard>();
  auto rows = std::make_shared<Dataset>(dims, old_count + add);
  if (old_count > 0) {
    std::memcpy(rows->MutableRow(0), old_rows.Row(0),
                row_bytes * old_count);
  }
  // Ids stay implicit while appended row k of an implicit shard gets
  // global id old_count + k — the one-shard map's every insert.
  bool implicit_ids = shard.row_ids.empty() && base_global_id == old_count;
  for (size_t k = 0; implicit_ids && k < add; ++k) {
    implicit_ids = batch_rows[k] == k;
  }
  if (!implicit_ids) {
    out->row_ids.reserve(old_count + add);
    for (size_t i = 0; i < old_count; ++i) {
      out->row_ids.push_back(shard.global_id(i));
    }
  }
  out->box_lo = shard.box_lo;
  out->box_hi = shard.box_hi;
  for (size_t k = 0; k < add; ++k) {
    const Value* src = batch.Row(batch_rows[k]);
    std::memcpy(rows->MutableRow(old_count + k), src, row_bytes);
    if (!implicit_ids) {
      out->row_ids.push_back(base_global_id +
                             static_cast<PointId>(batch_rows[k]));
    }
    for (int j = 0; j < dims; ++j) {
      if (src[j] < out->box_lo[static_cast<size_t>(j)]) {
        out->box_lo[static_cast<size_t>(j)] = src[j];
      }
      if (src[j] > out->box_hi[static_cast<size_t>(j)]) {
        out->box_hi[static_cast<size_t>(j)] = src[j];
      }
    }
  }

  // Skyline repair, fully batched — streaming the rows one at a time
  // through a seeded window would pay a whole-window sweep per row. One
  // FilterTile pass rejects the new rows some maintained member
  // dominates (any old dominator implies a member dominator by
  // transitivity), a second tiled pass resolves dominance among the new
  // rows themselves, and one reverse pass tombstones the members an
  // accepted row dominates. Coincident rows never dominate, so
  // duplicates are retained throughout.
  const std::vector<PointId> base = BaseSkyline(shard);
  const DomCtx dom(dims, rows->stride(), /*use_simd=*/true);
  uint64_t dts = 0;
  std::vector<uint8_t> rejected(add, 0);
  if (!base.empty() && add > 0) {
    TileBlock base_tiles(dims, base.size());
    for (const PointId i : base) base_tiles.PushRow(rows->Row(i));
    dom.FilterTile(rows->Row(old_count), add, base_tiles, rejected.data(),
                   &dts);
  }
  if (add > 1) {
    // Intra-batch resolution through the same tile kernel, self-exclusion
    // free: a row never dominates its own (coincident) tile lane, and
    // tiling the base-rejected rows too changes nothing — any row such a
    // reject dominates is already flagged (the reject's own base
    // dominator dominates it transitively), and FilterTile skips flagged
    // rows. "Dominated by some batch row" is order-independent, so one
    // sweep matches the pairwise answer exactly.
    TileBlock batch_tiles(dims, add);
    batch_tiles.AppendRows(rows->Row(old_count), rows->stride(), add);
    dom.FilterTile(rows->Row(old_count), add, batch_tiles, rejected.data(),
                   &dts);
  }
  size_t accepted = 0;
  for (const uint8_t r : rejected) accepted += (r == 0);
  std::vector<PointId> sky;
  sky.reserve(base.size() + accepted);
  if (accepted > 0 && !base.empty()) {
    TileBlock new_tiles(dims, accepted);
    for (size_t k = 0; k < add; ++k) {
      if (!rejected[k]) new_tiles.PushRow(rows->Row(old_count + k));
    }
    // Evict members an accepted row dominates: scan the old rows with
    // every non-member pre-flagged (FilterTile skips flagged rows), so
    // a base position i flips to 1 iff the member was evicted.
    std::vector<uint8_t> flags(old_count, 1);
    for (const PointId i : base) flags[i] = 0;
    dom.FilterTile(rows->Row(0), old_count, new_tiles, flags.data(), &dts);
    for (const PointId i : base) {
      if (!flags[i]) sky.push_back(i);
    }
  } else {
    sky = base;
  }
  for (size_t k = 0; k < add; ++k) {
    if (!rejected[k]) sky.push_back(static_cast<PointId>(old_count + k));
  }
  // base is ascending and the appended locals are ascending above it, so
  // `sky` is sorted by construction.
  out->skyline =
      std::make_shared<const std::vector<PointId>>(std::move(sky));

  out->sketch = shard.sketch;
  if (add > 0) {
    UpdateSketchOnInsert(out->sketch, rows->Row(old_count),
                         rows->stride(), add);
  }
  if (SketchNeedsRebuild(out->sketch)) {
    out->sketch = ComputeSketch(*rows, sketch_seed);
    if (repair_stats != nullptr) repair_stats->sketch_rebuilds += 1;
  }
  if (repair_stats != nullptr) repair_stats->dom_tests += dts;
  if (const auto zm = shard.built_zonemap()) {
    out->set_zonemap(std::make_shared<const ZoneMapIndex>(
        zm->WithAppendedRows(*rows, old_count)));
    if (repair_stats != nullptr) repair_stats->zonemap_repairs += 1;
  }
  out->data = std::move(rows);
  return out;
}

std::shared_ptr<const Shard> ShardWithDeletes(
    const Shard& shard, const std::vector<PointId>& drop_local,
    const std::vector<uint32_t>& global_shift, uint64_t sketch_seed,
    RepairStats* repair_stats) {
  const Dataset& old_rows = shard.rows();
  const int dims = old_rows.dims();
  const size_t old_count = old_rows.count();
  std::vector<uint8_t> deleted(old_count, 0);
  for (const PointId i : drop_local) deleted[i] = 1;

  // Repair in the old row space first (the old rows back both the
  // dominance scans and the window), remap to compacted indices after.
  const std::vector<PointId> base = BaseSkyline(shard);
  std::vector<PointId> removed_sky, survivors;
  std::set_intersection(base.begin(), base.end(), drop_local.begin(),
                        drop_local.end(), std::back_inserter(removed_sky));
  std::set_difference(base.begin(), base.end(), drop_local.begin(),
                      drop_local.end(), std::back_inserter(survivors));

  StreamingSkyline window(dims);
  window.Seed(old_rows, survivors);
  if (!removed_sky.empty()) {
    // Re-promotion: only rows a removed member was dominating can enter
    // the skyline (any other non-member is dominated by a surviving
    // skyline point — its minimal dominator chain ends in the skyline).
    // One batched FilterTile sweep finds them; pre-flagging the deleted
    // rows keeps them out. No survivor can be flagged (the skyline is an
    // antichain), so every newly flagged row is a re-promotion
    // candidate, and the window's insert logic resolves dominance among
    // the candidates themselves.
    TileBlock removed_tiles(dims, removed_sky.size());
    for (const PointId i : removed_sky) {
      removed_tiles.PushRow(old_rows.Row(i));
    }
    std::vector<uint8_t> flags = deleted;
    const DomCtx dom(dims, old_rows.stride(), /*use_simd=*/true);
    uint64_t dts = 0;
    dom.FilterTile(old_rows.Row(0), old_count, removed_tiles, flags.data(),
                   &dts);
    if (repair_stats != nullptr) repair_stats->dom_tests += dts;
    for (size_t i = 0; i < old_count; ++i) {
      if (flags[i] && !deleted[i]) {
        window.Insert(std::span<const Value>(old_rows.Row(i),
                                             static_cast<size_t>(dims)),
                      static_cast<PointId>(i));
      }
    }
  }

  // Compact: old local index -> new local index, rows, ids, exact box.
  auto out = std::make_shared<Shard>();
  auto rows = std::make_shared<Dataset>(
      dims, old_count - drop_local.size());
  std::vector<PointId> local_map(old_count, 0);
  const size_t row_bytes = sizeof(Value) * static_cast<size_t>(
                                               old_rows.stride());
  // Implicit ids stay implicit: they are global rows 0..n-1, so every
  // deleted id below a survivor is a local delete and the compaction
  // preserves the identity.
  const bool implicit_ids = shard.row_ids.empty();
  if (!implicit_ids) out->row_ids.reserve(rows->count());
  size_t w = 0;
  for (size_t i = 0; i < old_count; ++i) {
    if (deleted[i]) continue;
    local_map[i] = static_cast<PointId>(w);
    std::memcpy(rows->MutableRow(w), old_rows.Row(i), row_bytes);
    if (!implicit_ids) {
      const PointId old_gid = shard.global_id(i);
      out->row_ids.push_back(old_gid - global_shift[old_gid]);
    }
    ++w;
  }
  ComputeBox(*rows, out->box_lo, out->box_hi);

  std::vector<PointId> sky = window.Ids();
  for (PointId& id : sky) id = local_map[id];
  std::sort(sky.begin(), sky.end());
  out->skyline =
      std::make_shared<const std::vector<PointId>>(std::move(sky));

  out->sketch = shard.sketch;
  UpdateSketchOnDelete(out->sketch, drop_local.size());
  if (SketchNeedsRebuild(out->sketch)) {
    out->sketch = ComputeSketch(*rows, sketch_seed);
    if (repair_stats != nullptr) repair_stats->sketch_rebuilds += 1;
  }
  if (repair_stats != nullptr) {
    // The re-promotion window counts its own insert scans.
    repair_stats->dom_tests += window.dominance_tests();
  }
  if (const auto zm = shard.built_zonemap()) {
    out->set_zonemap(std::make_shared<const ZoneMapIndex>(
        zm->WithDeletedRows(*rows, drop_local)));
    if (repair_stats != nullptr) repair_stats->zonemap_repairs += 1;
  }
  out->data = std::move(rows);
  return out;
}

std::shared_ptr<const Shard> ShardWithRemappedIds(
    const Shard& shard, const std::vector<uint32_t>& global_shift) {
  // Only global ids move: the copy shares the rows and so the zonemap
  // index, whose shard-local numbering is unchanged. Implicit ids (global
  // rows 0..n-1) stay put: every deleted id lies above them, so their
  // shift is zero.
  auto out = std::make_shared<Shard>(shard);  // shares data/skyline/sketch
  for (PointId& gid : out->row_ids) gid -= global_shift[gid];
  return out;
}

}  // namespace sky
