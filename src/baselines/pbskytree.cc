// Copyright (c) SkyBench-NG contributors.
#include "baselines/pbskytree.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "baselines/skytree_common.h"
#include "common/cancel.h"
#include "common/timer.h"
#include "parallel/executor.h"
#include "parallel/parallel_sort.h"

namespace sky {

namespace {

using skytree::Tree;

/// Recursion is halted for groups smaller than this (paper Appendix A:
/// "we halt the recursion when there are fewer than 64 points").
constexpr size_t kRecursionHalt = 64;

/// Mask computation is parallelized only above this size; below it the
/// fork-join overhead dominates.
constexpr size_t kParallelPartitionThreshold = 1 << 13;

class ParallelBuilder {
 public:
  ParallelBuilder(const WorkingSet& ws, const DomCtx& dom,
                  const std::vector<Value>& lo, const std::vector<Value>& hi,
                  Executor::TaskGroup& group, PivotPolicy policy,
                  uint64_t seed, const CancelToken* cancel)
      : ws_(ws),
        cancel_(cancel),
        dom_(dom),
        lo_(lo),
        hi_(hi),
        group_(group),
        tree_(ws, dom),
        full_(FullMask(ws.dims)),
        policy_(policy),
        rng_(seed),
        // Batches hold whole groups only (a group split across flushes
        // could leak a dominated point into the tree), so the cap must be
        // at least the recursion-halt group size.
        batch_cap_(std::max<size_t>(
            kRecursionHalt, 16 * static_cast<size_t>(group.parallelism()))) {
  }

  uint32_t Build(std::vector<uint32_t>& pts) {
    SKY_DCHECK(!pts.empty());
    // Deadline checkpoint per recursion step (each step handles one mask
    // group); the partially built tree is discarded on unwind.
    CheckCancel(cancel_);
    const size_t pivot_pos = skytree::SubsetPivotIndex(
        ws_, pts, lo_, hi_, dom_, policy_, rng_, &dts_);
    const uint32_t pivot = pts[pivot_pos];
    const uint32_t node = tree_.NewNode(pivot, /*mask=*/0);

    // ---- Parallel partitioning (mask computation) of the remainder.
    std::vector<std::pair<uint32_t, uint32_t>> keyed(pts.size());
    std::vector<uint8_t> drop(pts.size(), 0);
    const auto classify = [&](size_t i, uint64_t* dts) {
      const uint32_t p = pts[i];
      if (i == pivot_pos) {
        drop[i] = 1;
        return;
      }
      const Mask m = dom_.PartitionMask(ws_.Row(p), ws_.Row(pivot));
      ++*dts;
      if (m == full_) {
        drop[i] = dom_.Equal(ws_.Row(p), ws_.Row(pivot)) ? 2 : 1;
        return;
      }
      keyed[i] = {CompositeMaskKey(m, ws_.dims), p};
    };
    if (pts.size() >= kParallelPartitionThreshold) {
      std::atomic<uint64_t> par_dts{0};
      group_.ParallelForStatic(pts.size(), [&](size_t b, size_t e, int) {
        uint64_t local = 0;
        for (size_t i = b; i < e; ++i) classify(i, &local);
        par_dts.fetch_add(local, std::memory_order_relaxed);
      });
      dts_ += par_dts.load(std::memory_order_relaxed);
    } else {
      for (size_t i = 0; i < pts.size(); ++i) classify(i, &dts_);
    }
    std::vector<uint32_t> duplicates;
    {
      size_t w = 0;
      for (size_t i = 0; i < pts.size(); ++i) {
        if (drop[i] == 2) {
          duplicates.push_back(pts[i]);
        } else if (drop[i] == 0) {
          keyed[w++] = keyed[i];
        }
      }
      keyed.resize(w);
    }
    if (keyed.size() >= kParallelPartitionThreshold) {
      ParallelSort(keyed, group_);
    } else {
      std::sort(keyed.begin(), keyed.end());
    }

    // ---- Process mask groups in (level, mask) order, batching small
    // groups (Appendix A).
    Batch batch;
    size_t g = 0;
    std::vector<uint32_t> survivors;
    while (g < keyed.size()) {
      CheckCancel(cancel_);  // per-mask-group deadline checkpoint
      size_t g_end = g;
      while (g_end < keyed.size() && keyed[g_end].first == keyed[g].first) {
        ++g_end;
      }
      const Mask m = KeyToMask(keyed[g].first, ws_.dims);
      const size_t group_size = g_end - g;
      if (group_size < kRecursionHalt) {
        // Halted group: queue the whole group for batched parallel
        // processing; flush first if it would overflow the cap.
        if (batch.points.size() + group_size > batch_cap_) {
          FlushBatch(node, batch);
        }
        for (size_t i = g; i < g_end; ++i) {
          batch.points.push_back(keyed[i].second);
          batch.masks.push_back(m);
        }
      } else {
        // Large group: the batch must land in the tree first so the
        // group's sibling filter sees its survivors.
        FlushBatch(node, batch);
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
      }
      g = g_end;
    }
    FlushBatch(node, batch);

    for (const uint32_t p : duplicates) {
      tree_.At(node).children.push_back(tree_.NewNode(p, full_));
    }
    return node;
  }

  Tree& tree() { return tree_; }
  uint64_t dts() const { return dts_; }
  uint64_t skips() const { return skips_; }

 private:
  struct Batch {
    std::vector<uint32_t> points;  // DFS (level, mask) order
    std::vector<Mask> masks;       // masks relative to the parent pivot
  };

  /// Process the pending batch: parallel sibling-subtree filtering
  /// (Phase I), parallel peer resolution in DFS order (Phase II), then
  /// attach survivors as leaf children of `node`.
  void FlushBatch(uint32_t node, Batch& batch) {
    const size_t bn = batch.points.size();
    if (bn == 0) return;
    std::vector<uint8_t> flags(bn, 0);
    std::atomic<uint64_t> par_dts{0}, par_skips{0};

    // Phase I: each batch point against the completed sibling subtrees.
    group_.ParallelFor(bn, 4, [&](size_t lo, size_t hi) {
      uint64_t dts = 0, skips = 0;
      for (size_t k = lo; k < hi; ++k) {
        const uint32_t p = batch.points[k];
        const Mask m = batch.masks[k];
        for (const uint32_t c : tree_.At(node).children) {
          if (MaskMayDominate(tree_.At(c).mask, m)) {
            if (tree_.Filter(c, p, &dts, &skips)) {
              flags[k] = 1;
              break;
            }
          } else {
            ++skips;
          }
        }
      }
      par_dts.fetch_add(dts, std::memory_order_relaxed);
      par_skips.fetch_add(skips, std::memory_order_relaxed);
    });

    // Phase II: peer resolution. Earlier groups are scanned with the mask
    // filter (the (level, mask) order guarantees no backward dominance
    // across groups); same-group peers carry no such guarantee, so they
    // are tested in BOTH positions (each point scans the whole group).
    group_.ParallelFor(bn, 4, [&](size_t lo, size_t hi) {
      uint64_t dts = 0, skips = 0;
      for (size_t k = lo; k < hi; ++k) {
        if (flags[k]) continue;
        const Value* q = ws_.Row(batch.points[k]);
        for (size_t j = 0; j < bn; ++j) {
          if (j == k) continue;
          const bool same_group = batch.masks[j] == batch.masks[k];
          if (!same_group) {
            if (j > k || MaskIncomparable(batch.masks[j], batch.masks[k])) {
              ++skips;
              continue;
            }
          }
          if (std::atomic_ref<uint8_t>(flags[j]).load(
                  std::memory_order_relaxed) != 0) {
            continue;
          }
          ++dts;
          if (dom_.Dominates(ws_.Row(batch.points[j]), q)) {
            std::atomic_ref<uint8_t>(flags[k]).store(
                1, std::memory_order_relaxed);
            break;
          }
        }
      }
      par_dts.fetch_add(dts, std::memory_order_relaxed);
      par_skips.fetch_add(skips, std::memory_order_relaxed);
    });
    dts_ += par_dts.load(std::memory_order_relaxed);
    skips_ += par_skips.load(std::memory_order_relaxed);

    for (size_t k = 0; k < bn; ++k) {
      if (!flags[k]) {
        tree_.At(node).children.push_back(
            tree_.NewNode(batch.points[k], batch.masks[k]));
      }
    }
    batch.points.clear();
    batch.masks.clear();
  }

  const WorkingSet& ws_;
  const CancelToken* cancel_;
  const DomCtx& dom_;
  const std::vector<Value>& lo_;
  const std::vector<Value>& hi_;
  Executor::TaskGroup& group_;
  Tree tree_;
  const Mask full_;
  PivotPolicy policy_;
  Rng rng_;
  const size_t batch_cap_;
  uint64_t dts_ = 0;
  uint64_t skips_ = 0;
};

}  // namespace

Result PBSkyTreeCompute(const RowSource& source, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (source.rows().count() == 0) return res;
  WallTimer total;
  Executor::TaskGroup group(opts.ResolvedExecutor(), opts.ResolvedThreads());
  DomCtx dom(source.dims(), source.stride(), opts.use_simd);

  WorkingSet ws = WorkingSet::Load(source, group, opts.cancel);
  if (ws.count == 0) return res;
  WallTimer phase;
  ws.ComputeL1(group);  // used by the Manhattan subset-pivot policy
  const std::vector<Value> lo = ws.MinPerDim();
  const std::vector<Value> hi = ws.MaxPerDim();
  st.init_seconds = phase.Lap();

  ParallelBuilder builder(ws, dom, lo, hi, group, opts.pivot, opts.seed,
                          opts.cancel);
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
