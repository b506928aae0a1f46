// Copyright (c) SkyBench-NG contributors.
#include "core/hybrid.h"

#include <algorithm>
#include <atomic>

#include "common/bits.h"
#include "common/cancel.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/sky_structure.h"
#include "data/prefilter.h"
#include "data/sorting.h"
#include "data/working_set.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

namespace {

constexpr size_t kPhaseGrain = 16;

/// compareToPeers (paper Algorithm 4): is block point `me` dominated by a
/// preceding point of the same α-block? The block is sorted by
/// (level, mask, L1), so the predecessors decompose into three runs:
/// lower levels (mask-filtered DTs), same level with a different mask
/// (provably incomparable — skipped), and the same partition
/// (unconditional DTs). The runs are resolved from per-block run-start
/// tables — the lower-level run is exactly [0, level_start[me]) and the
/// same-partition run is [mask_start[me], me) — and each is scanned 8
/// peers per compare over the block's SoA tiles.
bool DominatedByPeer(const WorkingSet& ws, size_t block_begin, size_t me,
                     const DomCtx& dom, const TileBlock& tiles,
                     const std::vector<uint32_t>& level_start,
                     const std::vector<uint32_t>& mask_start,
                     std::vector<uint8_t>& flags, uint64_t* dts,
                     uint64_t* skips) {
  const Value* q = ws.Row(block_begin + me);
  const Mask* masks = ws.masks.data() + block_begin;
  // Run 1: strictly lower levels — survivors mask-filtered 8 at a time,
  // pruned peers skipped. Reading flags that other workers are writing is
  // a benign optimisation race: a stale 0 only costs extra tests.
  if (dom.DominatedInMaskedRange(q, tiles, masks, masks[me], 0,
                                 level_start[me], flags.data(), dts, skips)) {
    return true;
  }
  // Run 2: same level, different mask — provably incomparable, skipped.
  // Run 3: same partition — unconditional tests (every mask passes ~0).
  return dom.DominatedInMaskedRange(q, tiles, masks, ~Mask{0}, mask_start[me],
                                    me, nullptr, dts, skips);
}

}  // namespace

Result HybridCompute(const RowSource& source, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (source.rows().count() == 0) return res;

  WallTimer total;
  Executor::TaskGroup group(opts.ResolvedExecutor(), opts.ResolvedThreads());
  DomCtx dom(source.dims(), source.stride(), opts.use_simd);
  DtCounter counter(opts.count_dts);
  DtCounter* counter_ptr = opts.count_dts ? &counter : nullptr;

  WorkingSet ws = WorkingSet::Load(source, group, opts.cancel);
  if (ws.count == 0) return res;
  const int dims = ws.dims;

  // ---- Initialization part 1: L1 norms (parallel).
  WallTimer phase;
  ws.ComputeL1(group);
  st.init_seconds += phase.Lap();

  // ---- Pre-filter (paper §VI-A1).
  if (opts.prefilter_beta > 0) {
    st.prefiltered_points =
        Prefilter(ws, group, opts.prefilter_beta, dom, counter_ptr);
  }
  st.prefilter_seconds = phase.Lap();
  if (ws.count == 0) {  // degenerate: cannot happen with beta>0, but safe
    st.total_seconds = total.Seconds();
    return res;
  }

  // ---- Pivot selection + level-1 partitioning (paper §VI-A2).
  const std::vector<Value> pivot =
      SelectPivot(ws, opts.pivot, group, opts.seed);
  AssignMasks(ws, pivot.data(), dom, group);
  st.pivot_seconds = phase.Lap();

  // ---- Initialization part 2: composite (level, mask, L1) sort.
  SortByMaskThenL1(ws, group);
  st.init_seconds += phase.Lap();

  const size_t alpha = opts.AlphaFor(Algorithm::kHybrid);
  SkyStructure sky(dims, ws.stride, ws.count);
  std::vector<uint8_t> flags(std::min(alpha, ws.count));

  // Phase II state, rebuilt per block: SoA tiles over the block's
  // Phase-I survivors plus the run-start tables that locate each
  // candidate's predecessor runs.
  TileBlock peer_tiles(dims, std::min(alpha, ws.count));
  std::vector<uint32_t> level_start;
  std::vector<uint32_t> mask_start;

  for (size_t b = 0; b < ws.count; b += alpha) {
    // Deadline / cancellation checkpoint, once per α-block: S holds only
    // confirmed global members, so stopping here is a clean truncation.
    CheckCancel(opts.cancel);
    const size_t e = std::min(b + alpha, ws.count);
    const size_t blen = e - b;
    std::fill_n(flags.begin(), blen, uint8_t{0});

    // ---- Phase I: block points vs. M(S) (Algorithm 3).
    phase.Restart();
    group.ParallelFor(blen, kPhaseGrain, [&](size_t lo, size_t hi) {
      uint64_t dts = 0, skips = 0;
      for (size_t k = lo; k < hi; ++k) {
        if (sky.Dominated(ws.Row(b + k), ws.masks[b + k], dom, &dts,
                          &skips)) {
          flags[k] = 1;
        }
      }
      counter.AddTests(dts);
      counter.AddMaskSkips(skips);
    });
    st.phase1_seconds += phase.Lap();

    const size_t survivors = ws.CompressRange(b, e, flags.data());
    st.compress_seconds += phase.Lap();

    // ---- Phase II: survivors vs. preceding in-block survivors
    // (Algorithm 4).
    std::fill_n(flags.begin(), survivors, uint8_t{0});
    peer_tiles.Clear();
    peer_tiles.AppendRows(ws.Row(b), ws.stride, survivors);
    level_start.resize(survivors);
    mask_start.resize(survivors);
    for (size_t i = 0; i < survivors; ++i) {
      if (i == 0) {
        level_start[0] = mask_start[0] = 0;
        continue;
      }
      const Mask m = ws.masks[b + i];
      const Mask pm = ws.masks[b + i - 1];
      mask_start[i] = m == pm ? mask_start[i - 1] : static_cast<uint32_t>(i);
      level_start[i] = MaskLevel(m) == MaskLevel(pm)
                           ? level_start[i - 1]
                           : static_cast<uint32_t>(i);
    }
    group.ParallelFor(survivors, kPhaseGrain, [&](size_t lo, size_t hi) {
      uint64_t dts = 0, skips = 0;
      for (size_t k = lo; k < hi; ++k) {
        if (DominatedByPeer(ws, b, k, dom, peer_tiles, level_start,
                            mask_start, flags, &dts, &skips)) {
          std::atomic_ref<uint8_t>(flags[k]).store(
              1, std::memory_order_relaxed);
        }
      }
      counter.AddTests(dts);
      counter.AddMaskSkips(skips);
    });
    st.phase2_seconds += phase.Lap();

    const size_t confirmed = ws.CompressRange(b, b + survivors, flags.data());
    // ---- updateS&M (Algorithm 2).
    sky.Append(ws, b, confirmed, dom);
    st.compress_seconds += phase.Lap();

    if (opts.progressive && confirmed > 0) {
      opts.progressive(sky.LastAppended());
    }
  }

  res.skyline = sky.ids();
  st.skyline_size = sky.size();
  st.dominance_tests = counter.tests();
  st.mask_filter_hits = counter.mask_skips();
  st.total_seconds = total.Seconds();
  st.other_seconds = std::max(
      0.0, st.total_seconds -
               (st.init_seconds + st.prefilter_seconds + st.pivot_seconds +
                st.phase1_seconds + st.phase2_seconds + st.compress_seconds));
  return res;
}

}  // namespace sky
