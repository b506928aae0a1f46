// Copyright (c) SkyBench-NG contributors.
#include "data/sorting.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bits.h"
#include "parallel/parallel_sort.h"

namespace sky {

namespace {

/// Width of the infinity rank in a norm key; kMaxDims fits in each half.
constexpr int kInfRankBits = 10;
static_assert(kMaxDims < (1 << (kInfRankBits / 2)));
/// Width of a norm key: the infinity rank above the ordered finite sum.
constexpr int kNormKeyBits = kInfRankBits + 32;
// A composite mask key, (level << d) | mask, stays below (d + 1) << d.
static_assert((uint64_t{kMaxDims} + 1) << kMaxDims <=
                  uint64_t{1} << (64 - kNormKeyBits),
              "a composite mask key must fit above a norm key");

/// Norm key of row `i`: the count of -inf coordinates descending, the
/// count of +inf coordinates ascending, then the sum of the finite
/// coordinates, packed through ToOrderedBits into one integer. On finite
/// rows it orders exactly as the L1 norm; with infinities it keeps every
/// dominator at or before its victim, which an L1 of -inf or +inf cannot
/// do: a row dominating another has at least its -inf coordinates, at
/// most its +inf ones and, when both counts tie (the same infinite
/// dimensions), a finite sum no larger.
uint64_t NormKey(const WorkingSet& ws, size_t i) {
  float sum = ws.l1[i];
  uint32_t neg = 0;
  uint32_t pos = 0;
  if (!std::isfinite(sum)) {
    sum = 0.0f;
    const Value* r = ws.Row(i);
    for (int j = 0; j < ws.dims; ++j) {
      if (std::isfinite(r[j])) {
        sum += r[j];
      } else if (r[j] < 0.0f) {
        ++neg;
      } else if (r[j] > 0.0f) {
        ++pos;
      }
    }
  }
  const uint64_t rank =
      ((static_cast<uint64_t>(kMaxDims) - neg) << (kInfRankBits / 2)) | pos;
  return (rank << 32) | ToOrderedBits(sum);
}

/// Sort ws ascending by key_of(i). An integer key keeps the comparator a
/// single compare.
template <typename KeyOf>
void SortByKey(WorkingSet& ws, Executor::TaskGroup& group, KeyOf key_of) {
  SKY_DCHECK(ws.l1.size() == ws.count);
  struct Rec {
    decltype(key_of(size_t{0})) key;
    uint32_t idx;
  };
  std::vector<Rec> recs(ws.count);
  group.ParallelForStatic(ws.count, [&](size_t b, size_t e, int) {
    for (size_t i = b; i < e; ++i) {
      recs[i] = {key_of(i), static_cast<uint32_t>(i)};
    }
  });
  ParallelSort(recs, group,
               [](const Rec& a, const Rec& b) { return a.key < b.key; });
  std::vector<uint32_t> order(ws.count);
  for (size_t i = 0; i < ws.count; ++i) order[i] = recs[i].idx;
  ws.PermuteBy(order);
}

}  // namespace

void SortByL1(WorkingSet& ws, Executor::TaskGroup& group) {
  SortByKey(ws, group, [&](size_t i) { return NormKey(ws, i); });
}

void SortByMaskThenL1(WorkingSet& ws, Executor::TaskGroup& group) {
  SKY_DCHECK(ws.masks.size() == ws.count);
  const int d = ws.dims;
  SortByKey(ws, group, [&](size_t i) {
    return (static_cast<uint64_t>(CompositeMaskKey(ws.masks[i], d))
            << kNormKeyBits) |
           NormKey(ws, i);
  });
}

void SortByMinCoord(WorkingSet& ws, Executor::TaskGroup& group) {
  SortByKey(ws, group, [&](size_t i) {
    const Value* r = ws.Row(i);
    float mn = r[0];
    for (int j = 1; j < ws.dims; ++j) mn = std::min(mn, r[j]);
    return std::pair<uint32_t, uint64_t>(ToOrderedBits(mn), NormKey(ws, i));
  });
}

bool IsSortedByL1(const WorkingSet& ws) {
  for (size_t i = 1; i < ws.count; ++i) {
    if (ws.l1[i - 1] > ws.l1[i]) return false;
  }
  return true;
}

}  // namespace sky
