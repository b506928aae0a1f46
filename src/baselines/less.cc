// Copyright (c) SkyBench-NG contributors.
#include "baselines/less.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"
#include "data/sorting.h"
#include "data/working_set.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

namespace {
/// Size of the elimination-filter window (points with the smallest L1
/// norms seen so far). Godfrey et al. use a buffer-pool page; a handful
/// of strong points captures nearly all of the effect in main memory.
constexpr size_t kEfWindow = 16;
}  // namespace

Result LessCompute(const RowSource& source, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (source.rows().count() == 0) return res;
  WallTimer total;
  Executor::TaskGroup group(nullptr, 1);  // LESS is sequential
  DomCtx dom(source.dims(), source.stride(), opts.use_simd);
  DtCounter counter(opts.count_dts);

  WorkingSet ws = WorkingSet::Load(source, group, opts.cancel);
  if (ws.count == 0) return res;
  WallTimer phase;
  ws.ComputeL1(group);

  // ---- Pass 0: elimination-filter scan. The EF window keeps the
  // kEfWindow points with smallest L1; every point is tested against the
  // window and flagged if dominated. This removes the bulk of easy
  // points before sorting (the sort then runs on the survivors only).
  std::vector<uint32_t> ef;  // indices into ws, max-L1 kept at front
  ef.reserve(kEfWindow);
  const auto ef_less = [&](uint32_t a, uint32_t b) {
    return ws.l1[a] < ws.l1[b];
  };
  std::vector<uint8_t> flagged(ws.count, 0);
  uint64_t dts = 0;
  for (size_t i = 0; i < ws.count; ++i) {
    bool dominated = false;
    for (const uint32_t e : ef) {
      ++dts;
      if (dom.Dominates(ws.Row(e), ws.Row(i))) {
        dominated = true;
        break;
      }
    }
    if (dominated) {
      flagged[i] = 1;
      continue;
    }
    const uint32_t idx = static_cast<uint32_t>(i);
    if (ef.size() < kEfWindow) {
      ef.push_back(idx);
      std::push_heap(ef.begin(), ef.end(), ef_less);
    } else if (ws.l1[i] < ws.l1[ef.front()]) {
      std::pop_heap(ef.begin(), ef.end(), ef_less);
      ef.back() = idx;
      std::push_heap(ef.begin(), ef.end(), ef_less);
    }
  }
  const size_t kept = ws.CompressRange(0, ws.count, flagged.data());
  ws.count = kept;
  ws.ids.resize(kept);
  ws.l1.resize(kept);
  st.prefilter_seconds = phase.Lap();

  // ---- Sort survivors by L1, then SFS-style confirmed-window filter.
  SortByL1(ws, group);
  st.init_seconds = phase.Lap();

  std::vector<uint32_t> window;
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
