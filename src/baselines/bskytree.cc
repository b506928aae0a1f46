// Copyright (c) SkyBench-NG contributors.
#include "baselines/bskytree.h"

#include <algorithm>
#include <utility>

#include "baselines/skytree_common.h"
#include "common/timer.h"
#include "parallel/executor.h"

namespace sky {

namespace skytree {

size_t BalancedPivotIndex(const WorkingSet& ws,
                          const std::vector<uint32_t>& pts,
                          const std::vector<Value>& lo,
                          const std::vector<Value>& hi, const DomCtx& dom,
                          uint64_t* dts) {
  const int d = ws.dims;
  const auto range_of = [&](uint32_t p) {
    const Value* r = ws.Row(p);
    float mn = 1e30f, mx = -1e30f;
    for (int j = 0; j < d; ++j) {
      const float span =
          hi[static_cast<size_t>(j)] - lo[static_cast<size_t>(j)];
      const float norm =
          span > 0 ? (r[j] - lo[static_cast<size_t>(j)]) / span : 0.0f;
      mn = std::min(mn, norm);
      mx = std::max(mx, norm);
    }
    return mx - mn;
  };
  size_t cand = 0;
  float cand_range = range_of(pts[0]);
  for (size_t i = 1; i < pts.size(); ++i) {
    ++*dts;
    if (dom.Dominates(ws.Row(pts[i]), ws.Row(pts[cand]))) {
      cand = i;
      cand_range = range_of(pts[i]);
    } else if (!dom.Dominates(ws.Row(pts[cand]), ws.Row(pts[i]))) {
      const float r = range_of(pts[i]);
      if (r < cand_range) {
        cand = i;
        cand_range = r;
      }
    }
  }
  // Repair pass: a range-based switch can land on a dominated point; the
  // one-way replacement chain below always terminates on a skyline point
  // of `pts`.
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i == cand) continue;
    ++*dts;
    if (dom.Dominates(ws.Row(pts[i]), ws.Row(pts[cand]))) cand = i;
  }
  return cand;
}

size_t RandomPivotIndex(const WorkingSet& ws,
                        const std::vector<uint32_t>& pts, const DomCtx& dom,
                        Rng& rng, uint64_t* dts) {
  size_t cand = static_cast<size_t>(rng.NextBounded(pts.size()));
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i == cand) continue;
    ++*dts;
    if (dom.Dominates(ws.Row(pts[i]), ws.Row(pts[cand]))) cand = i;
  }
  return cand;
}

size_t ManhattanPivotIndex(const WorkingSet& ws,
                           const std::vector<uint32_t>& pts, uint64_t* dts) {
  (void)dts;
  SKY_DCHECK(ws.l1.size() == ws.count);
  size_t cand = 0;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (ws.l1[pts[i]] < ws.l1[pts[cand]]) cand = i;
  }
  return cand;
}

size_t SubsetPivotIndex(const WorkingSet& ws, const std::vector<uint32_t>& pts,
                        const std::vector<Value>& lo,
                        const std::vector<Value>& hi, const DomCtx& dom,
                        PivotPolicy policy, Rng& rng, uint64_t* dts) {
  switch (policy) {
    case PivotPolicy::kRandom:
      return RandomPivotIndex(ws, pts, dom, rng, dts);
    case PivotPolicy::kManhattan:
      if (!ws.l1.empty()) return ManhattanPivotIndex(ws, pts, dts);
      [[fallthrough]];
    case PivotPolicy::kBalanced:
    case PivotPolicy::kMedian:  // no in-subset analogue: use balanced
    case PivotPolicy::kVolume:
      return BalancedPivotIndex(ws, pts, lo, hi, dom, dts);
  }
  return BalancedPivotIndex(ws, pts, lo, hi, dom, dts);
}

}  // namespace skytree

namespace {

using skytree::Tree;

/// Sequential recursive construction (BSkyTree-P).
class Builder {
 public:
  Builder(const WorkingSet& ws, const DomCtx& dom,
          const std::vector<Value>& lo, const std::vector<Value>& hi,
          PivotPolicy policy, uint64_t seed)
      : ws_(ws), dom_(dom), lo_(lo), hi_(hi), tree_(ws, dom),
        full_(FullMask(ws.dims)), policy_(policy), rng_(seed) {}

  uint32_t Build(std::vector<uint32_t>& pts) {
    SKY_DCHECK(!pts.empty());
    const size_t pivot_pos = skytree::SubsetPivotIndex(
        ws_, pts, lo_, hi_, dom_, policy_, rng_, &dts_);
    const uint32_t pivot = pts[pivot_pos];
    const uint32_t node = tree_.NewNode(pivot, /*mask=*/0);

    // Partition the remaining points by mask relative to the pivot;
    // full-mask points are dominated (or coincident duplicates).
    std::vector<std::pair<uint32_t, uint32_t>> keyed;  // (composite key, pt)
    keyed.reserve(pts.size());
    std::vector<uint32_t> duplicates;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (i == pivot_pos) continue;
      const uint32_t p = pts[i];
      const Mask m = dom_.PartitionMask(ws_.Row(p), ws_.Row(pivot));
      ++dts_;
      if (m == full_) {
        if (dom_.Equal(ws_.Row(p), ws_.Row(pivot))) duplicates.push_back(p);
        continue;  // dominated by the pivot: pruned
      }
      keyed.emplace_back(CompositeMaskKey(m, ws_.dims), p);
    }
    std::sort(keyed.begin(), keyed.end());

    // Process mask groups in (level, mask) order: a group's potential
    // dominators are always in already-completed sibling subtrees.
    size_t g = 0;
    std::vector<uint32_t> survivors;
    while (g < keyed.size()) {
      size_t g_end = g;
      while (g_end < keyed.size() && keyed[g_end].first == keyed[g].first) {
        ++g_end;
      }
      const Mask m = KeyToMask(keyed[g].first, ws_.dims);
      survivors.clear();
      for (size_t i = g; i < g_end; ++i) {
        const uint32_t p = keyed[i].second;
        bool dominated = false;
        for (const uint32_t c : tree_.At(node).children) {
          if (MaskMayDominate(tree_.At(c).mask, m)) {
            if (tree_.Filter(c, p, &dts_, &skips_)) {
              dominated = true;
              break;
            }
          } else {
            ++skips_;
          }
        }
        if (!dominated) survivors.push_back(p);
      }
      if (!survivors.empty()) {
        const uint32_t child = Build(survivors);
        tree_.At(child).mask = m;
        tree_.At(node).children.push_back(child);
      }
      g = g_end;
    }

    // Coincident duplicates of the pivot are skyline points; attach as
    // full-mask leaves (they can neither dominate nor be dominated).
    for (const uint32_t p : duplicates) {
      tree_.At(node).children.push_back(tree_.NewNode(p, full_));
    }
    return node;
  }

  Tree& tree() { return tree_; }
  uint64_t dts() const { return dts_; }
  uint64_t skips() const { return skips_; }

 private:
  const WorkingSet& ws_;
  const DomCtx& dom_;
  const std::vector<Value>& lo_;
  const std::vector<Value>& hi_;
  Tree tree_;
  const Mask full_;
  PivotPolicy policy_;
  Rng rng_;
  uint64_t dts_ = 0;
  uint64_t skips_ = 0;
};

}  // namespace

Result BSkyTreeCompute(const Dataset& data, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (data.count() == 0) return res;
  WallTimer total;
  Executor::TaskGroup group(nullptr, 1);
  DomCtx dom(data.dims(), data.stride(), opts.use_simd);

  WorkingSet ws = WorkingSet::FromDataset(data, group);
  WallTimer phase;
  ws.ComputeL1(group);  // used by the Manhattan subset-pivot policy
  const std::vector<Value> lo = data.MinPerDim();
  const std::vector<Value> hi = data.MaxPerDim();
  st.init_seconds = phase.Lap();

  Builder builder(ws, dom, lo, hi, opts.pivot, opts.seed);
  std::vector<uint32_t> all(ws.count);
  for (size_t i = 0; i < ws.count; ++i) all[i] = static_cast<uint32_t>(i);
  builder.Build(all);
  st.phase1_seconds = phase.Lap();

  builder.tree().CollectIds(res.skyline);
  st.skyline_size = res.skyline.size();
  if (opts.count_dts) {
    st.dominance_tests = builder.dts();
    st.mask_filter_hits = builder.skips();
  }
  st.total_seconds = total.Seconds();
  return res;
}

}  // namespace sky
