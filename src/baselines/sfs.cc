// Copyright (c) SkyBench-NG contributors.
#include "baselines/sfs.h"

#include <vector>

#include "common/timer.h"
#include "data/sorting.h"
#include "data/working_set.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

Result SfsCompute(const Dataset& data, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (data.count() == 0) return res;
  WallTimer total;
  Executor::TaskGroup group(nullptr, 1);  // SFS is sequential
  DomCtx dom(data.dims(), data.stride(), opts.use_simd);
  DtCounter counter(opts.count_dts);

  WorkingSet ws = WorkingSet::FromDataset(data, group);
  WallTimer phase;
  ws.ComputeL1(group);
  SortByL1(ws, group);
  st.init_seconds = phase.Lap();

  // Window of confirmed skyline points (indices into the sorted ws).
  std::vector<uint32_t> window;
  window.reserve(256);
  uint64_t dts = 0;
  std::vector<PointId> out;
  for (size_t i = 0; i < ws.count; ++i) {
    const Value* p = ws.Row(i);
    bool dominated = false;
    for (const uint32_t w : window) {
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
  st.phase1_seconds = phase.Lap();

  res.skyline = std::move(out);
  st.skyline_size = res.skyline.size();
  st.dominance_tests = counter.tests();
  st.total_seconds = total.Seconds();
  return res;
}

}  // namespace sky
