// Copyright (c) SkyBench-NG contributors.
#include "baselines/salsa.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"
#include "data/sorting.h"
#include "data/working_set.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

Result SalsaCompute(const RowSource& source, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (source.rows().count() == 0) return res;
  WallTimer total;
  Executor::TaskGroup group(nullptr, 1);  // SaLSa is sequential
  DomCtx dom(source.dims(), source.stride(), opts.use_simd);
  DtCounter counter(opts.count_dts);

  WorkingSet ws = WorkingSet::Load(source, group, opts.cancel);
  if (ws.count == 0) return res;
  WallTimer phase;
  ws.ComputeL1(group);
  SortByMinCoord(ws, group);
  st.init_seconds = phase.Lap();

  const int d = ws.dims;
  // Smallest "maximum coordinate" among skyline points found so far. Once
  // min_i(p) > stop_threshold, the stop point s* satisfies
  // s*[i] <= stop_threshold < min_i(p) <= p[i] for all i: p is strictly
  // dominated and so is every later point in the sort order.
  float stop_threshold = 1e30f;

  std::vector<uint32_t> window;
  std::vector<PointId> out;
  uint64_t dts = 0;
  for (size_t i = 0; i < ws.count; ++i) {
    const Value* p = ws.Row(i);
    float mn = p[0], mx = p[0];
    for (int j = 1; j < d; ++j) {
      mn = std::min(mn, p[j]);
      mx = std::max(mx, p[j]);
    }
    if (mn > stop_threshold) break;  // early termination
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
      stop_threshold = std::min(stop_threshold, mx);
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
