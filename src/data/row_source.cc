// Copyright (c) SkyBench-NG contributors.
#include "data/row_source.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/failpoint.h"
#include "common/macros.h"
#include "index/zonemap.h"

namespace sky {
namespace {

/// Rows per unit of work of a load: each chunk is box-tested, counted and
/// scattered by one worker, and polls the cancellation token once.
constexpr size_t kLoadChunkRows = 4096;
static_assert(kLoadChunkRows % 64 == 0,
              "a survivor-bitmap word must never straddle two chunks");

}  // namespace

RowSource::RowSource(const Dataset& rows) : rows_(&rows) {
  kept_.resize(static_cast<size_t>(rows.dims()));
  for (int j = 0; j < rows.dims(); ++j) kept_[static_cast<size_t>(j)] = j;
  flip_.assign(kept_.size(), 0u);
}

RowSource::RowSource(const Dataset& rows, const QuerySpec& spec,
                     const ZoneMapIndex* index, LoadStats* stats)
    : rows_(&rows),
      index_(index),
      stats_(stats),
      constraints_(spec.constraints) {
  const int dims = rows.dims();
  SKY_CHECK(spec.preferences.size() == static_cast<size_t>(dims));
  SKY_CHECK(index == nullptr || (index->rows() == rows.count() &&
                                 index->dims() == dims));
  for (int j = 0; j < dims; ++j) {
    const Preference pref = spec.preferences[static_cast<size_t>(j)];
    if (pref == Preference::kIgnore) continue;
    kept_.push_back(j);
    // XOR on the bit pattern is exactly unary minus (NaN payloads
    // included), without a preference branch per value.
    flip_.push_back(pref == Preference::kMax ? 0x80000000u : 0u);
  }
  plain_ = kept_.size() == static_cast<size_t>(dims) &&
           std::all_of(flip_.begin(), flip_.end(),
                       [](uint32_t f) { return f == 0; });
  identity_ = plain_ && constraints_.empty();
  box_lo_.assign(static_cast<size_t>(dims),
                 -std::numeric_limits<Value>::infinity());
  box_hi_.assign(static_cast<size_t>(dims),
                 std::numeric_limits<Value>::infinity());
  for (const DimConstraint& c : constraints_) {
    SKY_CHECK(c.dim >= 0 && c.dim < dims);
    const size_t d = static_cast<size_t>(c.dim);
    box_lo_[d] = std::max(box_lo_[d], c.lo);
    box_hi_[d] = std::min(box_hi_[d], c.hi);
  }
}

void RowSource::Emit(const Value* src, Value* dst) const {
  if (plain_) {
    std::memcpy(dst, src, sizeof(Value) * kept_.size());
    return;
  }
  for (size_t j = 0; j < kept_.size(); ++j) {
    dst[j] = std::bit_cast<Value>(
        std::bit_cast<uint32_t>(src[kept_[j]]) ^ flip_[j]);
  }
}

void RowSource::ReportInPlace(size_t rows_matched) const {
  if (stats_ == nullptr) return;
  *stats_ = LoadStats{};
  stats_->rows_in = rows_->count();
  stats_->rows_loaded = rows_matched;
}

void RowSource::Load(Executor::TaskGroup& group, const CancelToken* cancel,
                     const std::function<Target(size_t)>& alloc) const {
  if (identity_) {
    // Straight copy: rows and target share the padded stride, so each
    // worker's range is one contiguous memcpy.
    const size_t n = rows_->count();
    const Target t = alloc(n);
    const size_t row_floats = static_cast<size_t>(rows_->stride());
    group.ParallelForStatic(n, [&](size_t b, size_t e, int) {
      std::memcpy(t.rows + b * row_floats, rows_->Row(b),
                  sizeof(Value) * row_floats * (e - b));
      for (size_t i = b; i < e; ++i) t.ids[i] = static_cast<PointId>(i);
    });
    return;
  }
  SKY_FAILPOINT("view_build");
  LoadStats st;
  st.start = std::chrono::steady_clock::now();
  st.rows_in = rows_->count();
  if (constrained() && index_ != nullptr) {
    LoadBlocks(group, cancel, alloc, st);
  } else {
    LoadScan(group, cancel, alloc, st);
  }
  st.seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - st.start)
                   .count();
  st.done = true;
  if (stats_ != nullptr) *stats_ = st;
}

void RowSource::LoadScan(Executor::TaskGroup& group, const CancelToken* cancel,
                         const std::function<Target(size_t)>& alloc,
                         LoadStats& st) const {
  const Dataset& data = *rows_;
  const size_t n = data.count();
  const size_t chunks = (n + kLoadChunkRows - 1) / kLoadChunkRows;
  const bool boxed = constrained();
  // Pass 1: per chunk, the survivor bitmap (one bit per row) and count.
  std::vector<uint64_t> bitmap(boxed ? (n + 63) / 64 : 0);
  std::vector<size_t> offsets(chunks + 1, 0);
  group.ParallelFor(chunks, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      CheckCancel(cancel);
      const size_t lo = c * kLoadChunkRows;
      const size_t hi = std::min(n, lo + kLoadChunkRows);
      if (!boxed) {
        offsets[c + 1] = hi - lo;
        continue;
      }
      size_t count = 0;
      for (size_t base = lo; base < hi; base += 64) {
        const size_t rows = std::min<size_t>(64, hi - base);
        uint64_t word = 0;
        for (size_t k = 0; k < rows; ++k) {
          word |= static_cast<uint64_t>(
                      RowInConstraints(data.Row(base + k), constraints_))
                  << k;
        }
        bitmap[base / 64] = word;
        count += static_cast<size_t>(std::popcount(word));
      }
      offsets[c + 1] = count;
    }
  });
  for (size_t c = 0; c < chunks; ++c) offsets[c + 1] += offsets[c];
  st.rows_loaded = offsets[chunks];
  st.threads = static_cast<int>(
      std::max<size_t>(1, std::min<size_t>(chunks, group.parallelism())));

  // Pass 2: each chunk writes its survivors from its offset on, so the
  // output is allocated once, at its exact size, in source row order.
  const Target t = alloc(st.rows_loaded);
  const size_t out_floats = static_cast<size_t>(stride());
  const auto emit = [&](size_t row, size_t out) {
    Emit(data.Row(row), t.rows + out * out_floats);
    t.ids[out] = static_cast<PointId>(row);
  };
  group.ParallelFor(chunks, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t lo = c * kLoadChunkRows;
      const size_t hi = std::min(n, lo + kLoadChunkRows);
      size_t out = offsets[c];
      if (!boxed) {
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
}

void RowSource::LoadBlocks(Executor::TaskGroup& group,
                           const CancelToken* cancel,
                           const std::function<Target(size_t)>& alloc,
                           LoadStats& st) const {
  const ZoneMapIndex& index = *index_;
  const int dims = rows_->dims();
  const size_t row_floats = index.stride();
  const size_t blocks = index.block_count();
  // Whole blocks per chunk; the chunk after the last block chunk tests
  // the irregular rows.
  const size_t per_chunk =
      std::max<size_t>(1, kLoadChunkRows / index.block_rows());
  const size_t block_chunks = (blocks + per_chunk - 1) / per_chunk;
  const size_t chunks = block_chunks + 1;
  // Each block's survivor bits start on a word of their own, so chunks
  // never share a word even where repairs left blocks of odd sizes.
  std::vector<size_t> word_begin(blocks + 1, 0);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t words = (index.block_points(b).size() + 63) / 64;
    word_begin[b + 1] = word_begin[b] + words;
  }
  std::vector<uint64_t> bitmap(word_begin[blocks], 0);
  std::vector<BoxRel> rel(blocks);
  std::vector<uint32_t> extra;  // box-passing irregular rows
  std::vector<size_t> offsets(chunks + 1, 0);

  // Pass 1: classify each block against the box; count inside blocks
  // whole and test partial blocks row by row on the clustered copy.
  group.ParallelFor(chunks, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      CheckCancel(cancel);
      if (c == block_chunks) {
        // Non-finite rows sit outside every block AABB: test each one
        // against the constraint list, so a NaN fails only a
        // constrained dimension.
        for (const uint32_t row : index.irregular()) {
          if (RowInConstraints(rows_->Row(row), constraints_)) {
            extra.push_back(row);
          }
        }
        offsets[c + 1] = extra.size();
        continue;
      }
      size_t count = 0;
      const size_t last = std::min(blocks, (c + 1) * per_chunk);
      for (size_t b = c * per_chunk; b < last; ++b) {
        rel[b] = ClassifyBox(index.block_lo(b), index.block_hi(b),
                             box_lo_.data(), box_hi_.data(), dims);
        const size_t n = index.block_points(b).size();
        if (rel[b] == BoxRel::kInside) count += n;
        if (rel[b] != BoxRel::kPartial) continue;
        // Block rows are finite, so the constraint list alone decides.
        const Value* rows = index.block_row_data(b);
        uint64_t* words = bitmap.data() + word_begin[b];
        for (size_t i = 0; i < n; ++i) {
          const bool in = RowInConstraints(rows + i * row_floats, constraints_);
          words[i / 64] |= static_cast<uint64_t>(in) << (i % 64);
          count += in;
        }
      }
      offsets[c + 1] = count;
    }
  });
  for (size_t c = 0; c < chunks; ++c) offsets[c + 1] += offsets[c];
  st.rows_loaded = offsets[chunks];
  st.blocks = blocks;
  for (const BoxRel r : rel) {
    st.blocks_box_skipped += r == BoxRel::kDisjoint;
    st.blocks_inside += r == BoxRel::kInside;
  }
  st.blocks_visited = blocks - st.blocks_box_skipped;
  st.threads = static_cast<int>(
      std::max<size_t>(1, std::min<size_t>(chunks, group.parallelism())));

  // Pass 2: scatter in cut order — each chunk from its offset on.
  const Target t = alloc(st.rows_loaded);
  const size_t out_floats = static_cast<size_t>(stride());
  group.ParallelFor(chunks, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      size_t out = offsets[c];
      if (c == block_chunks) {
        for (const uint32_t row : extra) {
          Emit(rows_->Row(row), t.rows + out * out_floats);
          t.ids[out++] = row;
        }
        continue;
      }
      const size_t last = std::min(blocks, (c + 1) * per_chunk);
      for (size_t b = c * per_chunk; b < last; ++b) {
        if (rel[b] == BoxRel::kDisjoint) continue;
        const std::span<const uint32_t> points = index.block_points(b);
        const Value* rows = index.block_row_data(b);
        const auto emit = [&](size_t i) {
          Emit(rows + i * row_floats, t.rows + out * out_floats);
          t.ids[out++] = points[i];
        };
        if (rel[b] == BoxRel::kInside && plain_) {
          // Untransformed rows share the clustered copy's padded stride:
          // the whole block is one memcpy.
          std::memcpy(t.rows + out * out_floats, rows,
                      sizeof(Value) * row_floats * points.size());
          std::copy(points.begin(), points.end(), t.ids + out);
          out += points.size();
          continue;
        }
        if (rel[b] == BoxRel::kInside) {
          for (size_t i = 0; i < points.size(); ++i) emit(i);
          continue;
        }
        const uint64_t* words = bitmap.data() + word_begin[b];
        for (size_t w = 0; w < word_begin[b + 1] - word_begin[b]; ++w) {
          for (uint64_t word = words[w]; word != 0; word &= word - 1) {
            emit(w * 64 + static_cast<size_t>(std::countr_zero(word)));
          }
        }
      }
    }
  });
}

RowSource::Materialized RowSource::Materialize(
    Executor::TaskGroup& group, const CancelToken* cancel) const {
  Materialized m;
  Load(group, cancel, [&](size_t count) {
    m.data = Dataset(dims(), count);
    m.ids.resize(count);
    return Target{count > 0 ? m.data.MutableRow(0) : nullptr, m.ids.data()};
  });
  return m;
}

}  // namespace sky
