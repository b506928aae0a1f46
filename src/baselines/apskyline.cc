// Copyright (c) SkyBench-NG contributors.
#include "baselines/apskyline.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/sskyline.h"
#include "common/cancel.h"
#include "common/timer.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

namespace {

constexpr size_t kMergeGrain = 64;

/// Hyperspherical angles of a point (shifted to the positive orthant):
/// phi_k = atan2(norm(x_{k+1..d}), x_k), k = 0..d-2. Dominance tends to
/// happen between points of similar direction, which is what the angular
/// partitioning exploits.
void AnglesOf(const Value* row, const std::vector<Value>& mins, int d,
              float* out) {
  // Shift so all coordinates are >= 0 (angles need a consistent orthant).
  float sq_suffix = 0.0f;
  std::vector<float> shifted(static_cast<size_t>(d));
  for (int j = 0; j < d; ++j) {
    shifted[static_cast<size_t>(j)] = row[j] - mins[static_cast<size_t>(j)];
  }
  for (int j = d - 1; j >= 1; --j) {
    sq_suffix +=
        shifted[static_cast<size_t>(j)] * shifted[static_cast<size_t>(j)];
    if (j - 1 < d - 1) {
      out[j - 1] = std::atan2(std::sqrt(sq_suffix),
                              shifted[static_cast<size_t>(j - 1)]);
    }
  }
}

/// Split `t` into per-angle grid extents, most splits on the first
/// angles (coarse factorization: repeatedly halve).
std::vector<int> GridExtents(int t, int angles) {
  std::vector<int> ext(static_cast<size_t>(std::max(1, angles)), 1);
  int remaining = std::max(1, t);
  size_t axis = 0;
  while (remaining > 1) {
    ext[axis] *= 2;
    remaining = (remaining + 1) / 2;
    axis = (axis + 1) % ext.size();
  }
  return ext;
}

/// skyline(A ∪ B) for two skylines (same reasoning as PSkyline's merge).
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
      for (const PointId pa : a) {
        ++dts;
        if (dom.Dominates(data.Row(pa), data.Row(b[i]))) {
          b_dead[i] = 1;
          break;
        }
      }
    }
    counter.AddTests(dts);
  });
  std::vector<PointId> b_live;
  for (size_t i = 0; i < b.size(); ++i) {
    if (!b_dead[i]) b_live.push_back(b[i]);
  }
  std::vector<uint8_t> a_dead(a.size(), 0);
  group.ParallelFor(a.size(), kMergeGrain, [&](size_t lo, size_t hi) {
    uint64_t dts = 0;
    for (size_t i = lo; i < hi; ++i) {
      for (const PointId pb : b_live) {
        ++dts;
        if (dom.Dominates(data.Row(pb), data.Row(a[i]))) {
          a_dead[i] = 1;
          break;
        }
      }
    }
    counter.AddTests(dts);
  });
  std::vector<PointId> out;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_dead[i]) out.push_back(a[i]);
  }
  out.insert(out.end(), b_live.begin(), b_live.end());
  return out;
}

}  // namespace

Result APSkylineCompute(const Dataset& data, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (data.count() == 0) return res;
  WallTimer total;
  const int t = opts.ResolvedThreads();
  Executor::TaskGroup group(opts.ResolvedExecutor(), t);
  DomCtx dom(data.dims(), data.stride(), opts.use_simd);
  DtCounter counter(opts.count_dts);
  const int d = data.dims();
  const size_t n = data.count();

  // ---- Angular partitioning. d=1 has no angles: fall back to one cell
  // per thread, linear split.
  WallTimer phase;
  const int num_angles = d - 1;
  std::vector<size_t> cell_of(n, 0);
  size_t num_cells = 1;
  if (num_angles >= 1 && n > 1) {
    const std::vector<Value> mins = data.MinPerDim();
    const std::vector<int> ext = GridExtents(t, num_angles);
    std::vector<std::vector<float>> angles(
        static_cast<size_t>(num_angles), std::vector<float>(n));
    group.ParallelForStatic(n, [&](size_t b, size_t e, int) {
      float buf[kMaxDims];
      for (size_t i = b; i < e; ++i) {
        AnglesOf(data.Row(i), mins, d, buf);
        for (int k = 0; k < num_angles; ++k) {
          angles[static_cast<size_t>(k)][i] = buf[k];
        }
      }
    });
    // Equi-depth boundaries per angle (quantiles of the marginal).
    num_cells = 1;
    for (size_t k = 0; k < ext.size(); ++k) {
      const int splits = ext[k];
      if (splits <= 1) continue;
      std::vector<float> sorted = angles[k];
      std::vector<float> bounds;
      for (int s = 1; s < splits; ++s) {
        auto nth = sorted.begin() +
                   static_cast<ptrdiff_t>(n * static_cast<size_t>(s) /
                                          static_cast<size_t>(splits));
        std::nth_element(sorted.begin(), nth, sorted.end());
        bounds.push_back(*nth);
      }
      group.ParallelForStatic(n, [&](size_t b, size_t e, int) {
        for (size_t i = b; i < e; ++i) {
          const size_t bucket = static_cast<size_t>(
              std::upper_bound(bounds.begin(), bounds.end(), angles[k][i]) -
              bounds.begin());
          cell_of[i] = cell_of[i] * static_cast<size_t>(splits) + bucket;
        }
      });
      num_cells *= static_cast<size_t>(splits);
    }
  } else {
    // Linear fallback: one chunk per thread.
    num_cells = static_cast<size_t>(t);
    const size_t per = (n + num_cells - 1) / num_cells;
    for (size_t i = 0; i < n; ++i) cell_of[i] = i / per;
  }
  std::vector<std::vector<PointId>> cells(num_cells);
  for (size_t i = 0; i < n; ++i) {
    cells[cell_of[i]].push_back(static_cast<PointId>(i));
  }
  st.init_seconds = phase.Lap();

  // ---- Phase I: local skyline per angular cell, in parallel.
  std::vector<std::vector<PointId>> locals(num_cells);
  group.ParallelFor(num_cells, 1, [&](size_t lo, size_t hi) {
    uint64_t dts = 0;
    for (size_t c = lo; c < hi; ++c) {
      if (cells[c].empty()) continue;
      const size_t k = SSkylineBlock(data, cells[c], 0, cells[c].size(), dom,
                                     &dts, opts.cancel);
      locals[c].assign(cells[c].begin(),
                       cells[c].begin() + static_cast<ptrdiff_t>(k));
    }
    counter.AddTests(dts);
  });
  st.phase1_seconds = phase.Lap();

  // ---- Phase II: fold local skylines into the global one.
  std::vector<PointId> global;
  for (const auto& local : locals) {
    CheckCancel(opts.cancel);  // per-fold-step deadline checkpoint
    if (local.empty()) continue;
    if (global.empty()) {
      global = local;
    } else {
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
