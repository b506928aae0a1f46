// Copyright (c) SkyBench-NG contributors.
#include "baselines/bskytree_s.h"

#include <vector>

#include "common/bits.h"
#include "common/timer.h"
#include "data/partition.h"
#include "data/sorting.h"
#include "data/working_set.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

Result BSkyTreeSCompute(const RowSource& source, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (source.rows().count() == 0) return res;
  WallTimer total;
  Executor::TaskGroup group(nullptr, 1);  // sequential by design
  DomCtx dom(source.dims(), source.stride(), opts.use_simd);
  DtCounter counter(opts.count_dts);

  WorkingSet ws = WorkingSet::Load(source, group, opts.cancel);
  if (ws.count == 0) return res;
  WallTimer phase;
  ws.ComputeL1(group);
  st.init_seconds += phase.Lap();

  // One global pivot (Balanced, per Lee & Hwang) and level-1 masks.
  const std::vector<Value> pivot =
      SelectPivot(ws, PivotPolicy::kBalanced, group, opts.seed);
  AssignMasks(ws, pivot.data(), dom, group);
  st.pivot_seconds = phase.Lap();

  SortByMaskThenL1(ws, group);
  st.init_seconds += phase.Lap();

  // SFS-style scan over the sorted points: the window holds confirmed
  // skyline points (sort order guarantees no successor dominates a
  // predecessor); each dominance test is guarded by the subset filter on
  // the stored masks (paper §VI-A2).
  std::vector<uint32_t> window;
  std::vector<PointId> out;
  uint64_t dts = 0, skips = 0;
  for (size_t i = 0; i < ws.count; ++i) {
    const Value* p = ws.Row(i);
    const Mask m = ws.masks[i];
    bool dominated = false;
    for (const uint32_t w : window) {
      if (MaskIncomparable(ws.masks[w], m)) {
        ++skips;
        continue;
      }
      ++dts;
      if (dom.Dominates(ws.Row(w), p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      window.push_back(static_cast<uint32_t>(i));
      out.push_back(ws.ids[i]);
      if (opts.progressive) {
        opts.progressive(std::span<const PointId>(&out.back(), 1));
      }
    }
  }
  counter.AddTests(dts);
  counter.AddMaskSkips(skips);
  st.phase1_seconds = phase.Lap();

  res.skyline = std::move(out);
  st.skyline_size = res.skyline.size();
  st.dominance_tests = counter.tests();
  st.mask_filter_hits = counter.mask_skips();
  st.total_seconds = total.Seconds();
  return res;
}

}  // namespace sky
