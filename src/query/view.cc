// Copyright (c) SkyBench-NG contributors.
#include "query/view.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "parallel/executor.h"

namespace sky {

static_assert(kViewChunkRows % 64 == 0,
              "a survivor-bitmap word must never straddle two chunks");

QueryView MaterializeView(const Dataset& data, const QuerySpec& spec,
                          const Options& opts) {
  SKY_FAILPOINT("view_build");
  WallTimer timer;
  QueryView view;
  const int dims = data.dims();
  // Per kept column: its source dimension and a sign-bit mask that
  // negates MAX columns. XOR on the bit pattern is exactly unary minus
  // (NaN payloads included), without a preference branch per value.
  std::vector<uint32_t> flip;
  for (int j = 0; j < dims; ++j) {
    const Preference pref = spec.preferences[static_cast<size_t>(j)];
    if (pref == Preference::kIgnore) continue;
    view.kept_dims.push_back(j);
    flip.push_back(pref == Preference::kMax ? 0x80000000u : 0u);
  }

  const size_t n = data.count();
  const size_t chunks = (n + kViewChunkRows - 1) / kViewChunkRows;
  // A group wider than the chunk count would only idle, so a view of at
  // most one chunk builds inline.
  const size_t threads = static_cast<size_t>(opts.ResolvedThreads());
  const int width =
      static_cast<int>(std::max<size_t>(1, std::min(chunks, threads)));
  Executor::TaskGroup group(opts.ResolvedExecutor(), width);
  view.build_threads = group.parallelism();
  const bool constrained = !spec.constraints.empty();

  // Pass 1: per chunk, the survivor bitmap (one bit per row, set when the
  // row lies inside every box) and the survivor count. Unconstrained
  // views keep every row and skip the box test. The first box is tested
  // on every row, branch-free; later boxes only on the rows still inside.
  // The inclusion form makes a NaN coordinate fail a box (the closed-
  // interval contract) instead of silently passing it.
  const auto inside = [&](size_t row, const DimConstraint& box) {
    const Value v = data.Row(row)[box.dim];
    return static_cast<uint64_t>(v >= box.lo && v <= box.hi);
  };
  std::vector<uint64_t> bitmap(constrained ? (n + 63) / 64 : 0);
  std::vector<size_t> offsets(chunks + 1, 0);
  group.ParallelFor(chunks, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      CheckCancel(opts.cancel);
      const size_t lo = c * kViewChunkRows;
      const size_t hi = std::min(n, lo + kViewChunkRows);
      if (!constrained) {
        offsets[c + 1] = hi - lo;
        continue;
      }
      size_t count = 0;
      for (size_t base = lo; base < hi; base += 64) {
        const size_t rows = std::min<size_t>(64, hi - base);
        uint64_t word = 0;
        for (size_t k = 0; k < rows; ++k) {
          word |= inside(base + k, spec.constraints[0]) << k;
        }
        for (size_t b = 1; b < spec.constraints.size(); ++b) {
          for (uint64_t left = word; left != 0; left &= left - 1) {
            const size_t k = static_cast<size_t>(std::countr_zero(left));
            word &= ~((inside(base + k, spec.constraints[b]) ^ 1) << k);
          }
        }
        bitmap[base / 64] = word;
        count += static_cast<size_t>(std::popcount(word));
      }
      offsets[c + 1] = count;
    }
  });

  // Prefix sum: chunk c writes its survivors from offsets[c] on, so the
  // output is allocated once, at its exact size, in original row order.
  for (size_t c = 0; c < chunks; ++c) offsets[c + 1] += offsets[c];
  const int view_dims = static_cast<int>(view.kept_dims.size());
  view.data = Dataset(view_dims, offsets[chunks]);
  view.row_ids.resize(offsets[chunks]);

  // Pass 2: scatter each chunk's survivors to its offset, keeping only
  // non-ignored dimensions and flipping MAX columns so min-dominance on
  // the view is exactly the query's preference dominance on the original.
  const auto emit = [&](size_t row, size_t out) {
    const Value* src = data.Row(row);
    Value* dst = view.data.MutableRow(out);
    for (int j = 0; j < view_dims; ++j) {
      const size_t col = static_cast<size_t>(j);
      dst[j] = std::bit_cast<Value>(
          std::bit_cast<uint32_t>(src[view.kept_dims[col]]) ^ flip[col]);
    }
    view.row_ids[out] = static_cast<PointId>(row);
  };
  group.ParallelFor(chunks, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t lo = c * kViewChunkRows;
      const size_t hi = std::min(n, lo + kViewChunkRows);
      size_t out = offsets[c];
      if (!constrained) {
        for (size_t row = lo; row < hi; ++row) emit(row, out++);
        continue;
      }
      for (size_t base = lo; base < hi; base += 64) {
        for (uint64_t word = bitmap[base / 64]; word != 0; word &= word - 1) {
          emit(base + static_cast<size_t>(std::countr_zero(word)), out++);
        }
      }
    }
  });
  view.materialize_seconds = timer.Seconds();
  return view;
}

QueryView MaterializeView(const Dataset& data, const QuerySpec& spec) {
  Options serial;
  serial.threads = 1;
  return MaterializeView(data, spec, serial);
}

Value ViewRowScore(const Value* view_row, int dims) {
  Value sum = 0;
  for (int j = 0; j < dims; ++j) sum += view_row[j];
  return sum;
}

}  // namespace sky
