// Copyright (c) SkyBench-NG contributors.
#include "data/partition.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/random.h"

namespace sky {

const char* PivotPolicyName(PivotPolicy policy) {
  switch (policy) {
    case PivotPolicy::kMedian:
      return "median";
    case PivotPolicy::kBalanced:
      return "balanced";
    case PivotPolicy::kManhattan:
      return "manhattan";
    case PivotPolicy::kVolume:
      return "volume";
    case PivotPolicy::kRandom:
      return "random";
  }
  return "?";
}

PivotPolicy ParsePivotPolicy(const std::string& name) {
  if (name == "median") return PivotPolicy::kMedian;
  if (name == "balanced") return PivotPolicy::kBalanced;
  if (name == "manhattan") return PivotPolicy::kManhattan;
  if (name == "volume") return PivotPolicy::kVolume;
  if (name == "random") return PivotPolicy::kRandom;
  throw std::invalid_argument("unknown pivot policy: " + name);
}

namespace {

std::vector<Value> PaddedCopy(const WorkingSet& ws, const Value* row) {
  std::vector<Value> out(static_cast<size_t>(ws.stride), 0.0f);
  std::copy(row, row + ws.dims, out.begin());
  return out;
}

std::vector<Value> MedianPivot(const WorkingSet& ws,
                               Executor::TaskGroup& group) {
  // Per-dimension medians, computed exactly via nth_element on a column
  // copy; dimensions are independent so they parallelise trivially.
  std::vector<Value> pivot(static_cast<size_t>(ws.stride), 0.0f);
  group.ParallelFor(static_cast<size_t>(ws.dims), 1, [&](size_t b, size_t e) {
    std::vector<Value> column(ws.count);
    for (size_t dim = b; dim < e; ++dim) {
      for (size_t i = 0; i < ws.count; ++i) {
        column[i] = ws.Row(i)[dim];
      }
      auto mid = column.begin() + static_cast<ptrdiff_t>(ws.count / 2);
      std::nth_element(column.begin(), mid, column.end());
      pivot[dim] = *mid;
    }
  });
  return pivot;
}

std::vector<Value> ManhattanPivot(const WorkingSet& ws) {
  SKY_DCHECK(ws.l1.size() == ws.count);
  size_t best = 0;
  for (size_t i = 1; i < ws.count; ++i) {
    if (ws.l1[i] < ws.l1[best]) best = i;
  }
  return PaddedCopy(ws, ws.Row(best));
}

std::vector<Value> VolumePivot(const WorkingSet& ws) {
  // Paper (Fig. 9, after SaLSa [2]): the point with maximum coordinate
  // product. Products are computed in log space for stability; values are
  // shifted by the per-dimension minimum so negative coordinates (e.g.
  // negated "larger is better" attributes) stay in the log domain.
  std::vector<double> shift(static_cast<size_t>(ws.dims), 0.0);
  for (size_t i = 0; i < ws.count; ++i) {
    const Value* r = ws.Row(i);
    for (int j = 0; j < ws.dims; ++j) {
      shift[static_cast<size_t>(j)] =
          std::min(shift[static_cast<size_t>(j)], static_cast<double>(r[j]));
    }
  }
  size_t best = 0;
  double best_log = -1e300;
  for (size_t i = 0; i < ws.count; ++i) {
    const Value* r = ws.Row(i);
    double acc = 0.0;
    for (int j = 0; j < ws.dims; ++j) {
      acc += std::log(static_cast<double>(r[j]) -
                      shift[static_cast<size_t>(j)] + 1e-9);
    }
    if (acc > best_log) {
      best_log = acc;
      best = i;
    }
  }
  return PaddedCopy(ws, ws.Row(best));
}

/// One-way replacement scan: start from `start`, replace the candidate
/// whenever a point dominates it. Terminates at a skyline point (the
/// replacement chain strictly decreases in the dominance order).
size_t SkylinePointScan(const WorkingSet& ws, const DomCtx& dom,
                        size_t start) {
  size_t cand = start;
  for (size_t i = 0; i < ws.count; ++i) {
    if (i == cand) continue;
    if (dom.Dominates(ws.Row(i), ws.Row(cand))) cand = i;
  }
  return cand;
}

std::vector<Value> RandomPivot(const WorkingSet& ws, const DomCtx& dom,
                               uint64_t seed) {
  Rng rng(seed);
  const size_t start = static_cast<size_t>(rng.NextBounded(ws.count));
  return PaddedCopy(ws, ws.Row(SkylinePointScan(ws, dom, start)));
}

std::vector<Value> BalancedPivot(const WorkingSet& ws, const DomCtx& dom) {
  // Min-max normalised range: range(p) = max_i p̂[i] - min_i p̂[i]. Small
  // range means the point sits near the "diagonal" of the data and splits
  // all dimensions evenly — Lee & Hwang's balanced criterion [15].
  std::vector<Value> lo(static_cast<size_t>(ws.dims));
  std::vector<Value> hi(static_cast<size_t>(ws.dims));
  for (int j = 0; j < ws.dims; ++j) {
    lo[static_cast<size_t>(j)] = ws.Row(0)[j];
    hi[static_cast<size_t>(j)] = ws.Row(0)[j];
  }
  for (size_t i = 1; i < ws.count; ++i) {
    const Value* r = ws.Row(i);
    for (int j = 0; j < ws.dims; ++j) {
      lo[static_cast<size_t>(j)] = std::min(lo[static_cast<size_t>(j)], r[j]);
      hi[static_cast<size_t>(j)] = std::max(hi[static_cast<size_t>(j)], r[j]);
    }
  }
  auto range_of = [&](size_t i) {
    const Value* r = ws.Row(i);
    float mn = 1e30f, mx = -1e30f;
    for (int j = 0; j < ws.dims; ++j) {
      const float span =
          hi[static_cast<size_t>(j)] - lo[static_cast<size_t>(j)];
      const float norm =
          span > 0 ? (r[j] - lo[static_cast<size_t>(j)]) / span : 0.0f;
      mn = std::min(mn, norm);
      mx = std::max(mx, norm);
    }
    return mx - mn;
  };
  // Greedy scan preferring dominators, then smaller range; a final
  // replacement pass repairs any non-skyline choice the greedy scan can
  // make (range-based replacement does not preserve skyline membership).
  size_t cand = 0;
  float cand_range = range_of(0);
  for (size_t i = 1; i < ws.count; ++i) {
    if (dom.Dominates(ws.Row(i), ws.Row(cand))) {
      cand = i;
      cand_range = range_of(i);
    } else if (!dom.Dominates(ws.Row(cand), ws.Row(i))) {
      const float r = range_of(i);
      if (r < cand_range) {
        cand = i;
        cand_range = r;
      }
    }
  }
  return PaddedCopy(ws, ws.Row(SkylinePointScan(ws, dom, cand)));
}

}  // namespace

std::vector<Value> SelectPivot(const WorkingSet& ws, PivotPolicy policy,
                               Executor::TaskGroup& group, uint64_t seed) {
  SKY_CHECK(ws.count > 0);
  DomCtx dom(ws.dims, ws.stride, /*use_simd=*/true);
  switch (policy) {
    case PivotPolicy::kMedian:
      return MedianPivot(ws, group);
    case PivotPolicy::kBalanced:
      return BalancedPivot(ws, dom);
    case PivotPolicy::kManhattan:
      return ManhattanPivot(ws);
    case PivotPolicy::kVolume:
      return VolumePivot(ws);
    case PivotPolicy::kRandom:
      return RandomPivot(ws, dom, seed);
  }
  return MedianPivot(ws, group);
}

void AssignMasks(WorkingSet& ws, const Value* pivot, const DomCtx& dom,
                 Executor::TaskGroup& group) {
  ws.masks.resize(ws.count);
  group.ParallelForStatic(ws.count, [&](size_t b, size_t e, int) {
    for (size_t i = b; i < e; ++i) {
      ws.masks[i] = dom.PartitionMask(ws.Row(i), pivot);
    }
  });
}

}  // namespace sky
