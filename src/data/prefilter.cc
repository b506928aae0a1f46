// Copyright (c) SkyBench-NG contributors.
#include "data/prefilter.h"

#include <algorithm>
#include <vector>

namespace sky {

namespace {

/// Fixed-capacity max-heap (by L1) of candidate filter points.
struct FilterHeap {
  struct Entry {
    float l1;
    uint32_t idx;
    bool operator<(const Entry& o) const { return l1 < o.l1; }
  };
  std::vector<Entry> heap;
  size_t cap;

  explicit FilterHeap(size_t beta) : cap(beta) { heap.reserve(beta); }

  bool WouldAccept(float l1) const {
    return heap.size() < cap || l1 < heap.front().l1;
  }

  void Insert(float l1, uint32_t idx) {
    if (heap.size() < cap) {
      heap.push_back({l1, idx});
      std::push_heap(heap.begin(), heap.end());
    } else {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {l1, idx};
      std::push_heap(heap.begin(), heap.end());
    }
  }
};

}  // namespace

size_t Prefilter(WorkingSet& ws, Executor::TaskGroup& group, int beta,
                 const DomCtx& dom, DtCounter* counter) {
  const size_t n = ws.count;
  if (n == 0 || beta <= 0) return 0;
  SKY_DCHECK(ws.l1.size() == n);

  const int t = group.parallelism();
  std::vector<uint8_t> flagged(n, 0);
  std::vector<FilterHeap> heaps(static_cast<size_t>(t),
                                FilterHeap(static_cast<size_t>(beta)));
  std::vector<uint64_t> dts(static_cast<size_t>(t), 0);

  // Pass 1: per-worker heaps of smallest-L1 points; everything else is
  // tested against the worker's current heap.
  group.ParallelForStatic(n, [&](size_t b, size_t e, int w) {
    FilterHeap& heap = heaps[static_cast<size_t>(w)];
    uint64_t local_dts = 0;
    for (size_t i = b; i < e; ++i) {
      if (heap.WouldAccept(ws.l1[i])) {
        heap.Insert(ws.l1[i], static_cast<uint32_t>(i));
        continue;
      }
      for (const auto& entry : heap.heap) {
        ++local_dts;
        if (dom.Dominates(ws.Row(entry.idx), ws.Row(i))) {
          flagged[i] = 1;
          break;
        }
      }
    }
    dts[static_cast<size_t>(w)] += local_dts;
  });

  // Pass 2: every surviving point against the union of all heaps.
  group.ParallelForStatic(n, [&](size_t b, size_t e, int w) {
    uint64_t local_dts = 0;
    for (size_t i = b; i < e; ++i) {
      if (flagged[i]) continue;
      for (const auto& heap : heaps) {
        for (const auto& entry : heap.heap) {
          if (entry.idx == i) continue;
          ++local_dts;
          if (dom.Dominates(ws.Row(entry.idx), ws.Row(i))) {
            flagged[i] = 1;
            break;
          }
        }
        if (flagged[i]) break;
      }
    }
    dts[static_cast<size_t>(w)] += local_dts;
  });

  if (counter != nullptr) {
    uint64_t total = 0;
    for (uint64_t v : dts) total += v;
    counter->AddTests(total);
  }

  const size_t kept = ws.CompressRange(0, n, flagged.data());
  ws.count = kept;
  ws.ids.resize(kept);
  ws.l1.resize(kept);
  if (!ws.masks.empty()) ws.masks.resize(kept);
  return n - kept;
}

}  // namespace sky
