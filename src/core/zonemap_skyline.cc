// Copyright (c) SkyBench-NG contributors.
#include "core/zonemap_skyline.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "common/cancel.h"
#include "common/macros.h"
#include "common/timer.h"
#include "core/algorithm_registry.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"

namespace sky {
namespace {

// Heap keys are L1 norms accumulated in dimension order as doubles. For a
// dominating pair p <= q (coordinatewise) every partial sum of p is <= the
// matching partial sum of q because rounded addition is monotone, so a
// dominator never pops *after* its victim — but rounding can collapse the
// strict inequality into a tie. Ties are therefore resolved by popping all
// equal-key entries as one batch: containers first (comparator), then the
// point batch cross-checks its own survivors pairwise (ResolveTieBatch)
// so a dominator that ties with its victim still eliminates it.
double L1Key(const Value* row, int dims) {
  double s = 0.0;
  for (int j = 0; j < dims; ++j) s += static_cast<double>(row[j]);
  return s;
}

enum Kind : uint8_t { kSuper = 0, kBlock = 1, kPoint = 2 };

struct HeapEntry {
  double key;
  Kind kind;
  uint32_t idx;
  // For kPoint: confirmed.size() when pushed. The block visit already
  // checked the point against that prefix, so the pop only probes the
  // suffix of members confirmed while the point sat in the heap.
  uint32_t seen = 0;
};

// Min-heap on key; containers (lower kind) pop before points at equal key
// so every equal-key point is already in the heap when the first one pops.
struct HeapLater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.kind > b.kind;
  }
};

/// Finite rows only (a NaN would fail); mirrors MaterializeView's
/// closed-interval predicate with unconstrained dims expanded to +-inf.
bool RowInExpandedBox(const Value* row, const Value* box_lo,
                      const Value* box_hi, int dims) {
  for (int j = 0; j < dims; ++j) {
    if (!(row[j] >= box_lo[j] && row[j] <= box_hi[j])) return false;
  }
  return true;
}

}  // namespace

ZonemapRunResult ZonemapSkylineRun(const Dataset& data,
                                   const ZoneMapIndex& index,
                                   std::span<const DimConstraint> constraints,
                                   const Options& opts) {
  ZonemapRunResult r;
  const int dims = data.dims();
  SKY_CHECK(index.dims() == dims && index.rows() == data.count());
  SKY_CHECK(index.stride() == static_cast<size_t>(data.stride()));
  const size_t row_floats = static_cast<size_t>(data.stride());
  WallTimer total;
  WallTimer phase;

  const bool boxed = !constraints.empty();
  std::vector<Value> box_lo(dims, -std::numeric_limits<Value>::infinity());
  std::vector<Value> box_hi(dims, std::numeric_limits<Value>::infinity());
  for (const DimConstraint& c : constraints) {
    SKY_CHECK(c.dim >= 0 && c.dim < dims);
    box_lo[c.dim] = std::max(box_lo[c.dim], c.lo);
    box_hi[c.dim] = std::min(box_hi[c.dim], c.hi);
  }

  DomCtx dom(dims, data.stride(), opts.use_simd);
  uint64_t dts = 0;

  // Irregular rows (non-finite coordinates) are outside the min-corner
  // reasoning entirely: resolve their box membership up front. When any
  // survive, confirmed members cannot stream (a -inf or NaN row may
  // dominate finite rows) and a final FilterTile pass folds them in.
  std::vector<uint32_t> extra;
  for (uint32_t row : index.irregular()) {
    if (!boxed || RowInConstraints(data.Row(row), constraints)) {
      extra.push_back(row);
    }
  }
  const bool stream = opts.progressive != nullptr && extra.empty();

  // The confirmed tile set grows geometrically: Reset pads the whole
  // capacity, so sizing it to data.count() up front would touch the full
  // dataset's worth of memory before the first block is even visited.
  TileBlock confirmed(dims, std::min<size_t>(data.count(), 1024));
  std::vector<PointId> confirmed_ids;
  std::vector<PointId> chunk;  // pending progressive flush
  const auto confirm = [&](PointId id) {
    if (confirmed.size() == confirmed.capacity()) {
      TileBlock bigger(dims, confirmed.capacity() * 2);
      for (PointId c : confirmed_ids) bigger.PushRow(data.Row(c));
      confirmed = std::move(bigger);
    }
    confirmed.PushRow(data.Row(id));
    confirmed_ids.push_back(id);
  };

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLater> heap;
  for (size_t s = 0; s < index.super_count(); ++s) {
    heap.push({L1Key(index.super_lo(s), dims), kSuper,
               static_cast<uint32_t>(s)});
  }
  r.stats.init_seconds = phase.Seconds();
  phase.Restart();

  // Count one dominance-pruned block: box-disjoint parts contribute no
  // matches, fully-inside blocks contribute their size without a scan,
  // partial blocks need a row scan for the exact matched_rows count.
  const auto prune_block = [&](uint32_t b) {
    ++r.blocks_pruned;
    r.pruned_blocks.push_back(b);
    if (!boxed) return;
    const BoxRel rel = ClassifyBox(index.block_lo(b), index.block_hi(b),
                                   box_lo.data(), box_hi.data(), dims);
    if (rel == BoxRel::kDisjoint) return;
    if (rel == BoxRel::kInside) {
      r.matched_rows += index.block_points(b).size();
      return;
    }
    const size_t n = index.block_points(b).size();
    const Value* rows = index.block_row_data(b);
    for (size_t i = 0; i < n; ++i) {
      r.matched_rows += RowInExpandedBox(rows + i * row_floats, box_lo.data(),
                                         box_hi.data(), dims);
    }
  };

  std::vector<Value> scratch;  // AoS staging for the irregular fold
  std::vector<uint8_t> flags;
  struct BatchEntry {
    uint32_t row;
    uint32_t seen;
  };
  std::vector<BatchEntry> batch;  // equal-key point batch
  std::vector<uint32_t> passed;

  while (!heap.empty()) {
    // Deadline checkpoint per heap pop. The traversal is progressive:
    // everything confirmed (and streamed) so far is exact global skyline,
    // so stopping here truncates cleanly.
    CheckCancel(opts.cancel);
    const HeapEntry e = heap.top();
    heap.pop();
    if (e.kind == kSuper) {
      const uint32_t first = index.super_first(e.idx);
      const uint32_t last = index.super_last(e.idx);
      if (boxed && ClassifyBox(index.super_lo(e.idx), index.super_hi(e.idx),
                               box_lo.data(), box_hi.data(), dims) ==
                       BoxRel::kDisjoint) {
        r.blocks_box_skipped += last - first;
        continue;
      }
      if (dom.DominatedByAny(index.super_lo(e.idx), confirmed,
                             confirmed.size(), &dts)) {
        for (uint32_t b = first; b < last; ++b) prune_block(b);
        continue;
      }
      for (uint32_t b = first; b < last; ++b) {
        if (boxed && ClassifyBox(index.block_lo(b), index.block_hi(b),
                                 box_lo.data(), box_hi.data(), dims) ==
                         BoxRel::kDisjoint) {
          ++r.blocks_box_skipped;
          continue;
        }
        heap.push({L1Key(index.block_lo(b), dims), kBlock, b});
      }
      continue;
    }
    if (e.kind == kBlock) {
      // The confirmed set has grown since this block was pushed: one
      // min-corner probe prunes the whole block (a member dominating the
      // min corner strictly dominates every point of the block).
      if (dom.DominatedByAny(index.block_lo(e.idx), confirmed,
                             confirmed.size(), &dts)) {
        prune_block(e.idx);
        continue;
      }
      ++r.blocks_visited;
      const std::span<const uint32_t> points = index.block_points(e.idx);
      const Value* rows = index.block_row_data(e.idx);
      const BoxRel rel =
          boxed ? ClassifyBox(index.block_lo(e.idx), index.block_hi(e.idx),
                              box_lo.data(), box_hi.data(), dims)
                : BoxRel::kInside;
      // Out-of-box rows are pre-flagged so FilterTile skips them and the
      // clustered block feeds the kernel in place — no row copies.
      flags.assign(points.size(), 0);
      size_t in_box = points.size();
      if (rel == BoxRel::kPartial) {
        in_box = 0;
        for (size_t i = 0; i < points.size(); ++i) {
          const bool ok = RowInExpandedBox(rows + i * row_floats,
                                           box_lo.data(), box_hi.data(), dims);
          flags[i] = ok ? 0 : 1;
          in_box += ok;
        }
      }
      if (boxed) r.matched_rows += in_box;
      if (in_box > 0 && !confirmed.empty()) {
        dom.FilterTile(rows, points.size(), confirmed, flags.data(), &dts);
      }
      const uint32_t seen = static_cast<uint32_t>(confirmed.size());
      for (size_t i = 0; i < points.size(); ++i) {
        if (flags[i]) continue;
        heap.push({L1Key(rows + i * row_floats, dims), kPoint, points[i],
                   seen});
      }
      continue;
    }
    // Point pop: drain every point tying on the key (all are already in
    // the heap — containers with this key expanded first), check against
    // the confirmed set, then cross-check survivors within the batch so a
    // dominator whose key rounded onto its victim's still eliminates it.
    batch.clear();
    batch.push_back({e.idx, e.seen});
    while (!heap.empty() && heap.top().key == e.key) {
      SKY_DCHECK(heap.top().kind == kPoint);
      batch.push_back({heap.top().idx, heap.top().seen});
      heap.pop();
    }
    passed.clear();
    for (const BatchEntry& be : batch) {
      // The block visit's FilterTile covered confirmed[0, seen); only the
      // members confirmed since then still need probing.
      if (!dom.DominatedInRange(data.Row(be.row), confirmed, be.seen,
                                &dts)) {
        passed.push_back(be.row);
      }
    }
    for (size_t i = 0; i < passed.size(); ++i) {
      bool member = true;
      for (size_t j = 0; member && j < passed.size(); ++j) {
        if (j == i) continue;
        ++dts;
        member = !dom.Dominates(data.Row(passed[j]), data.Row(passed[i]));
      }
      if (!member) continue;
      confirm(passed[i]);
      if (stream) {
        chunk.push_back(passed[i]);
        if (chunk.size() >= 256) {
          opts.progressive(chunk);
          chunk.clear();
        }
      }
    }
  }
  if (stream && !chunk.empty()) opts.progressive(chunk);
  r.stats.phase1_seconds = phase.Seconds();
  phase.Restart();

  if (extra.empty()) {
    r.skyline = std::move(confirmed_ids);
  } else {
    // Fold the box-passing irregular rows in with one many-vs-many pass:
    // SKY(confirmed ∪ extra) is the exact answer because every finite
    // non-member is dominated by a confirmed member, and tile kernels
    // share the scalar NaN/inf conventions.
    std::vector<uint32_t> pool = std::move(confirmed_ids);
    pool.insert(pool.end(), extra.begin(), extra.end());
    TileBlock tiles(dims, pool.size());
    scratch.resize(pool.size() * row_floats);
    for (size_t i = 0; i < pool.size(); ++i) {
      tiles.PushRow(data.Row(pool[i]));
      std::copy_n(data.Row(pool[i]), row_floats,
                  scratch.data() + i * row_floats);
    }
    flags.assign(pool.size(), 0);
    dom.FilterTile(scratch.data(), pool.size(), tiles, flags.data(), &dts);
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!flags[i]) r.skyline.push_back(pool[i]);
    }
  }
  r.matched_rows = boxed ? r.matched_rows + extra.size() : data.count();
  r.stats.phase2_seconds = phase.Seconds();
  if (opts.count_dts) r.stats.dominance_tests = dts;
  r.stats.skyline_size = r.skyline.size();
  r.stats.total_seconds = total.Seconds();
  return r;
}

Result ZonemapSkylineCompute(const RowSource& source, const Options& opts) {
  if (!source.plain()) {
    // Projected or negated rows have no index of their own: traverse the
    // loaded copy, an identity source.
    return RunOnMaterialized(source, opts,
                             [](const Dataset& data, const Options& o) {
                               return ZonemapSkylineCompute(data, o);
                             });
  }
  WallTimer total;
  const Dataset& data = source.rows();
  std::optional<ZoneMapIndex> own;
  const ZoneMapIndex* index = source.index();
  double build_seconds = 0.0;
  if (index == nullptr) {
    WallTimer build;
    index = &own.emplace(ZoneMapIndex::Build(data));
    build_seconds = build.Seconds();
  }
  ZonemapRunResult run =
      ZonemapSkylineRun(data, *index, source.constraints(), opts);
  source.ReportInPlace(run.matched_rows);
  Result res;
  res.skyline = std::move(run.skyline);
  res.stats = run.stats;
  res.stats.init_seconds += build_seconds;
  res.stats.total_seconds = total.Seconds();
  return res;
}

}  // namespace sky
