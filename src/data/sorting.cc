// Copyright (c) SkyBench-NG contributors.
#include "data/sorting.h"

#include <algorithm>

#include "common/bits.h"
#include "parallel/parallel_sort.h"

namespace sky {

namespace {

/// Sort record: `primary` fully encodes the sort order, `idx` is the
/// point's current position. Packing the float key through ToOrderedBits
/// keeps the comparator a single integer compare.
struct SortRec {
  uint64_t primary;
  uint32_t idx;
};

void ApplyOrder(WorkingSet& ws, std::vector<SortRec>& recs) {
  std::vector<uint32_t> order(ws.count);
  for (size_t i = 0; i < ws.count; ++i) order[i] = recs[i].idx;
  ws.PermuteBy(order);
}

}  // namespace

void SortByL1(WorkingSet& ws, Executor::TaskGroup& group) {
  SKY_DCHECK(ws.l1.size() == ws.count);
  std::vector<SortRec> recs(ws.count);
  group.ParallelForStatic(ws.count, [&](size_t b, size_t e, int) {
    for (size_t i = b; i < e; ++i) {
      recs[i] = {static_cast<uint64_t>(ToOrderedBits(ws.l1[i])),
                 static_cast<uint32_t>(i)};
    }
  });
  ParallelSort(recs, group, [](const SortRec& a, const SortRec& b) {
    return a.primary < b.primary;
  });
  ApplyOrder(ws, recs);
}

void SortByMaskThenL1(WorkingSet& ws, Executor::TaskGroup& group) {
  SKY_DCHECK(ws.l1.size() == ws.count && ws.masks.size() == ws.count);
  std::vector<SortRec> recs(ws.count);
  const int d = ws.dims;
  group.ParallelForStatic(ws.count, [&](size_t b, size_t e, int) {
    for (size_t i = b; i < e; ++i) {
      const uint64_t key =
          (static_cast<uint64_t>(CompositeMaskKey(ws.masks[i], d)) << 32) |
          ToOrderedBits(ws.l1[i]);
      recs[i] = {key, static_cast<uint32_t>(i)};
    }
  });
  ParallelSort(recs, group, [](const SortRec& a, const SortRec& b) {
    return a.primary < b.primary;
  });
  ApplyOrder(ws, recs);
}

void SortByMinCoord(WorkingSet& ws, Executor::TaskGroup& group) {
  SKY_DCHECK(ws.l1.size() == ws.count);
  std::vector<SortRec> recs(ws.count);
  group.ParallelForStatic(ws.count, [&](size_t b, size_t e, int) {
    for (size_t i = b; i < e; ++i) {
      const Value* r = ws.Row(i);
      float mn = r[0];
      for (int j = 1; j < ws.dims; ++j) mn = std::min(mn, r[j]);
      const uint64_t key = (static_cast<uint64_t>(ToOrderedBits(mn)) << 32) |
                           ToOrderedBits(ws.l1[i]);
      recs[i] = {key, static_cast<uint32_t>(i)};
    }
  });
  ParallelSort(recs, group, [](const SortRec& a, const SortRec& b) {
    return a.primary < b.primary;
  });
  ApplyOrder(ws, recs);
}

bool IsSortedByL1(const WorkingSet& ws) {
  for (size_t i = 1; i < ws.count; ++i) {
    if (ws.l1[i - 1] > ws.l1[i]) return false;
  }
  return true;
}

}  // namespace sky
