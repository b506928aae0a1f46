// Copyright (c) SkyBench-NG contributors.
#include "baselines/pskyline.h"

#include <algorithm>
#include <vector>

#include "baselines/sskyline.h"
#include "common/cancel.h"
#include "common/timer.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

namespace {

constexpr size_t kMergeGrain = 64;

/// skyline(A ∪ B) for two sets that are each skylines already. A point of
/// B survives iff no A point dominates it; a point of A survives iff no
/// *surviving* B point dominates it (any dominating B point is itself
/// undominated by A, by transitivity, so checking survivors suffices).
std::vector<PointId> MergeSkylines(const Dataset& data,
                                   const std::vector<PointId>& a,
                                   const std::vector<PointId>& b,
                                   const DomCtx& dom,
                                   Executor::TaskGroup& group,
                                   DtCounter& counter) {
  std::vector<uint8_t> b_dead(b.size(), 0);
  group.ParallelFor(b.size(), kMergeGrain, [&](size_t lo, size_t hi) {
    uint64_t dts = 0;
    for (size_t i = lo; i < hi; ++i) {
      const Value* q = data.Row(b[i]);
      for (const PointId pa : a) {
        ++dts;
        if (dom.Dominates(data.Row(pa), q)) {
          b_dead[i] = 1;
          break;
        }
      }
    }
    counter.AddTests(dts);
  });
  std::vector<PointId> b_live;
  b_live.reserve(b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    if (!b_dead[i]) b_live.push_back(b[i]);
  }

  std::vector<uint8_t> a_dead(a.size(), 0);
  group.ParallelFor(a.size(), kMergeGrain, [&](size_t lo, size_t hi) {
    uint64_t dts = 0;
    for (size_t i = lo; i < hi; ++i) {
      const Value* q = data.Row(a[i]);
      for (const PointId pb : b_live) {
        ++dts;
        if (dom.Dominates(data.Row(pb), q)) {
          a_dead[i] = 1;
          break;
        }
      }
    }
    counter.AddTests(dts);
  });

  std::vector<PointId> out;
  out.reserve(a.size() + b_live.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_dead[i]) out.push_back(a[i]);
  }
  out.insert(out.end(), b_live.begin(), b_live.end());
  return out;
}

}  // namespace

Result PSkylineCompute(const Dataset& data, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (data.count() == 0) return res;
  WallTimer total;
  const int t = opts.ResolvedThreads();
  Executor::TaskGroup group(opts.ResolvedExecutor(), t);
  DomCtx dom(data.dims(), data.stride(), opts.use_simd);
  DtCounter counter(opts.count_dts);

  // ---- Phase I (parallel map): local skylines of t linear blocks.
  WallTimer phase;
  const size_t n = data.count();
  std::vector<PointId> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<PointId>(i);
  const size_t blocks = static_cast<size_t>(t);
  const size_t per = (n + blocks - 1) / blocks;
  std::vector<std::vector<PointId>> locals(blocks);
  group.ParallelFor(blocks, 1, [&](size_t lo, size_t hi) {
    uint64_t dts = 0;
    for (size_t blk = lo; blk < hi; ++blk) {
      const size_t begin = std::min(n, blk * per);
      const size_t end = std::min(n, begin + per);
      // The in-block scan polls the token itself; a raised CancelledError
      // is captured by the TaskGroup and rethrown at the join.
      const size_t k =
          SSkylineBlock(data, idx, begin, end, dom, &dts, opts.cancel);
      locals[blk].assign(idx.begin() + static_cast<ptrdiff_t>(begin),
                         idx.begin() + static_cast<ptrdiff_t>(begin + k));
    }
    counter.AddTests(dts);
  });
  st.phase1_seconds = phase.Lap();

  // ---- Phase II (parallel reduce): fold local skylines into the global
  // one; each fold step is internally parallel.
  std::vector<PointId> global;
  for (const auto& local : locals) {
    CheckCancel(opts.cancel);  // per-fold-step deadline checkpoint
    if (global.empty()) {
      global = local;
    } else if (!local.empty()) {
      global = MergeSkylines(data, global, local, dom, group, counter);
    }
  }
  st.phase2_seconds = phase.Lap();

  res.skyline = std::move(global);
  st.skyline_size = res.skyline.size();
  st.dominance_tests = counter.tests();
  st.total_seconds = total.Seconds();
  return res;
}

}  // namespace sky
