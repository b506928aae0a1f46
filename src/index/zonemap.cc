// Copyright (c) SkyBench-NG contributors.
#include "index/zonemap.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/failpoint.h"
#include "common/macros.h"
#include "data/sketch.h"

namespace sky {
namespace {

bool RowFinite(const Value* row, int dims) {
  for (int j = 0; j < dims; ++j) {
    if (!std::isfinite(row[j])) return false;
  }
  return true;
}

/// Per-dimension normaliser for the cut key: quantile rank when the sketch
/// carries a sample for the dimension, min-max otherwise. Returns a value
/// in [0, 1]; degenerate dimensions map to 0.5 so they don't perturb the
/// rank sum.
class DimRanker {
 public:
  DimRanker(const Dataset& data, const std::vector<uint32_t>& finite,
            const StatsSketch* sketch) {
    const int dims = data.dims();
    quantiles_.resize(dims, nullptr);
    lo_.assign(dims, std::numeric_limits<Value>::infinity());
    hi_.assign(dims, -std::numeric_limits<Value>::infinity());
    bool need_minmax = false;
    for (int j = 0; j < dims; ++j) {
      if (sketch != nullptr && j < static_cast<int>(sketch->quantiles.size()) &&
          !sketch->quantiles[j].empty()) {
        quantiles_[j] = &sketch->quantiles[j];
      } else {
        need_minmax = true;
      }
    }
    if (need_minmax) {
      for (uint32_t r : finite) {
        const Value* row = data.Row(r);
        for (int j = 0; j < dims; ++j) {
          lo_[j] = std::min(lo_[j], row[j]);
          hi_[j] = std::max(hi_[j], row[j]);
        }
      }
    }
  }

  double Rank(int j, Value v) const {
    if (quantiles_[j] != nullptr) {
      const std::vector<Value>& q = *quantiles_[j];
      const auto it = std::lower_bound(q.begin(), q.end(), v);
      return static_cast<double>(it - q.begin()) /
             static_cast<double>(q.size());
    }
    const double span =
        static_cast<double>(hi_[j]) - static_cast<double>(lo_[j]);
    if (!(span > 0.0)) return 0.5;
    return (static_cast<double>(v) - static_cast<double>(lo_[j])) / span;
  }

 private:
  std::vector<const std::vector<Value>*> quantiles_;
  std::vector<Value> lo_;
  std::vector<Value> hi_;
};

}  // namespace

ZoneMapIndex ZoneMapIndex::Build(const Dataset& data, size_t block_rows,
                                 const StatsSketch* sketch) {
  SKY_FAILPOINT("zonemap_build");
  ZoneMapIndex index;
  index.dims_ = data.dims();
  index.rows_ = data.count();
  index.stride_ = static_cast<size_t>(data.stride());
  index.block_rows_ = block_rows == 0 ? kDefaultBlockRows : block_rows;

  const int dims = data.dims();
  std::vector<uint32_t> finite;
  finite.reserve(data.count());
  for (size_t r = 0; r < data.count(); ++r) {
    if (RowFinite(data.Row(r), dims)) {
      finite.push_back(static_cast<uint32_t>(r));
    } else {
      index.irregular_.push_back(static_cast<uint32_t>(r));
    }
  }

  // Order finite rows along a Z-order (Morton) curve over their normalized
  // quantile ranks, so consecutive rows share a spatial cell and block
  // AABBs are tight in *every* dimension regardless of input order — the
  // flat-file analogue of BBS's R-tree leaves. A rank-sum key would cut
  // thin shells of the rank hyperplane instead: near-full-range AABBs on
  // every axis, which never go box-disjoint and rarely get min-corner
  // pruned. Stable sort keeps ties (duplicate cells) deterministic.
  if (!finite.empty()) {
    DimRanker ranker(data, finite, sketch);
    const int bits = std::max(1, std::min(8, 64 / dims));
    const double scale = static_cast<double>((1u << bits) - 1);
    std::vector<uint64_t> key(finite.size());
    std::vector<uint32_t> cell(dims);
    for (size_t i = 0; i < finite.size(); ++i) {
      const Value* row = data.Row(finite[i]);
      for (int j = 0; j < dims; ++j) {
        const double rank = std::clamp(ranker.Rank(j, row[j]), 0.0, 1.0);
        cell[j] = static_cast<uint32_t>(rank * scale);
      }
      uint64_t k = 0;
      for (int bit = bits - 1; bit >= 0; --bit) {
        for (int j = 0; j < dims; ++j) {
          k = (k << 1) | ((cell[j] >> bit) & 1u);
        }
      }
      key[i] = k;
    }
    std::vector<uint32_t> perm(finite.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::stable_sort(perm.begin(), perm.end(),
                     [&](uint32_t a, uint32_t b) { return key[a] < key[b]; });
    index.order_.reserve(finite.size());
    for (uint32_t p : perm) index.order_.push_back(finite[p]);
  }
  index.clustered_.resize(index.order_.size() * index.stride_);
  for (size_t i = 0; i < index.order_.size(); ++i) {
    std::copy_n(data.Row(index.order_[i]), index.stride_,
                index.clustered_.data() + i * index.stride_);
  }

  const size_t blocks =
      (index.order_.size() + index.block_rows_ - 1) / index.block_rows_;
  index.block_begin_.reserve(blocks + 1);
  index.block_begin_.push_back(0);
  index.block_lo_.reserve(blocks * dims);
  index.block_hi_.reserve(blocks * dims);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * index.block_rows_;
    const size_t end = std::min(begin + index.block_rows_, index.order_.size());
    index.block_begin_.push_back(static_cast<uint32_t>(end));
    for (int j = 0; j < dims; ++j) {
      index.block_lo_.push_back(std::numeric_limits<Value>::infinity());
      index.block_hi_.push_back(-std::numeric_limits<Value>::infinity());
    }
    Value* lo = index.block_lo_.data() + b * dims;
    Value* hi = index.block_hi_.data() + b * dims;
    for (size_t i = begin; i < end; ++i) {
      const Value* row = index.clustered_.data() + i * index.stride_;
      for (int j = 0; j < dims; ++j) {
        lo[j] = std::min(lo[j], row[j]);
        hi[j] = std::max(hi[j], row[j]);
      }
    }
  }
  index.RebuildSupers();
  return index;
}

ZoneMapIndex ZoneMapIndex::WithAppendedRows(const Dataset& data,
                                            size_t old_count) const {
  SKY_CHECK(old_count == rows_ && data.count() >= old_count);
  SKY_CHECK(data.dims() == dims_);
  SKY_CHECK(static_cast<size_t>(data.stride()) == stride_);
  ZoneMapIndex index = *this;
  index.rows_ = data.count();
  for (size_t r = old_count; r < data.count(); ++r) {
    const Value* row = data.Row(r);
    if (!RowFinite(row, dims_)) {
      index.irregular_.push_back(static_cast<uint32_t>(r));
      continue;
    }
    const size_t last = index.block_count();
    const bool tail_open =
        last > 0 && index.block_begin_[last] - index.block_begin_[last - 1] <
                        index.block_rows_;
    if (!tail_open) {
      // Open a fresh block whose AABB degenerates to this row.
      index.block_begin_.push_back(index.block_begin_.back());
      for (int j = 0; j < dims_; ++j) {
        index.block_lo_.push_back(row[j]);
        index.block_hi_.push_back(row[j]);
      }
    }
    const size_t b = index.block_count() - 1;
    index.order_.push_back(static_cast<uint32_t>(r));
    index.clustered_.insert(index.clustered_.end(), row, row + stride_);
    ++index.block_begin_[b + 1];
    Value* lo = index.block_lo_.data() + b * dims_;
    Value* hi = index.block_hi_.data() + b * dims_;
    for (int j = 0; j < dims_; ++j) {
      lo[j] = std::min(lo[j], row[j]);
      hi[j] = std::max(hi[j], row[j]);
    }
  }
  index.RebuildSupers();
  return index;
}

ZoneMapIndex ZoneMapIndex::WithDeletedRows(
    const Dataset& data, std::span<const PointId> drop_local) const {
  SKY_CHECK(data.count() + drop_local.size() == rows_);
  SKY_CHECK(data.dims() == dims_);
  // new_local = old_local - shift[old_local]; dropped rows map nowhere.
  std::vector<uint8_t> dropped(rows_, 0);
  for (PointId d : drop_local) {
    SKY_CHECK(d < rows_ && !dropped[d]);
    dropped[d] = 1;
  }
  std::vector<uint32_t> shift(rows_ + 1, 0);
  for (size_t r = 0; r < rows_; ++r) {
    shift[r + 1] = shift[r] + (dropped[r] ? 1u : 0u);
  }

  ZoneMapIndex index;
  index.dims_ = dims_;
  index.rows_ = data.count();
  index.stride_ = stride_;
  index.block_rows_ = block_rows_;
  index.order_.reserve(order_.size());
  index.clustered_.reserve(clustered_.size());
  index.block_begin_.push_back(0);
  SKY_CHECK(static_cast<size_t>(data.stride()) == stride_);
  for (size_t b = 0; b < block_count(); ++b) {
    const std::span<const uint32_t> points = block_points(b);
    const size_t first = index.order_.size();
    bool lost = false;
    for (size_t k = 0; k < points.size(); ++k) {
      const uint32_t old_row = points[k];
      if (dropped[old_row]) {
        lost = true;
        continue;
      }
      index.order_.push_back(old_row - shift[old_row]);
      const Value* src =
          clustered_.data() + (block_begin_[b] + k) * stride_;
      index.clustered_.insert(index.clustered_.end(), src, src + stride_);
    }
    const size_t kept = index.order_.size() - first;
    if (kept == 0) continue;  // block emptied: drop it entirely
    index.block_begin_.push_back(static_cast<uint32_t>(index.order_.size()));
    if (!lost) {
      // Untouched block: AABB unchanged (survivors keep their values).
      const Value* lo = block_lo(b);
      const Value* hi = block_hi(b);
      index.block_lo_.insert(index.block_lo_.end(), lo, lo + dims_);
      index.block_hi_.insert(index.block_hi_.end(), hi, hi + dims_);
      continue;
    }
    for (int j = 0; j < dims_; ++j) {
      index.block_lo_.push_back(std::numeric_limits<Value>::infinity());
      index.block_hi_.push_back(-std::numeric_limits<Value>::infinity());
    }
    Value* lo = index.block_lo_.data() + index.block_lo_.size() - dims_;
    Value* hi = index.block_hi_.data() + index.block_hi_.size() - dims_;
    for (size_t i = first; i < index.order_.size(); ++i) {
      const Value* row = index.clustered_.data() + i * stride_;
      for (int j = 0; j < dims_; ++j) {
        lo[j] = std::min(lo[j], row[j]);
        hi[j] = std::max(hi[j], row[j]);
      }
    }
  }
  for (uint32_t old_row : irregular_) {
    if (!dropped[old_row]) index.irregular_.push_back(old_row - shift[old_row]);
  }
  index.RebuildSupers();
  return index;
}

void ZoneMapIndex::RebuildSupers() {
  super_begin_.clear();
  super_lo_.clear();
  super_hi_.clear();
  const size_t blocks = block_count();
  if (blocks == 0) return;
  const size_t supers = (blocks + kSuperFan - 1) / kSuperFan;
  super_begin_.reserve(supers + 1);
  super_begin_.push_back(0);
  super_lo_.reserve(supers * dims_);
  super_hi_.reserve(supers * dims_);
  for (size_t s = 0; s < supers; ++s) {
    const size_t first = s * kSuperFan;
    const size_t last = std::min(first + kSuperFan, blocks);
    super_begin_.push_back(static_cast<uint32_t>(last));
    for (int j = 0; j < dims_; ++j) {
      super_lo_.push_back(std::numeric_limits<Value>::infinity());
      super_hi_.push_back(-std::numeric_limits<Value>::infinity());
    }
    Value* lo = super_lo_.data() + s * dims_;
    Value* hi = super_hi_.data() + s * dims_;
    for (size_t b = first; b < last; ++b) {
      const Value* blo = block_lo(b);
      const Value* bhi = block_hi(b);
      for (int j = 0; j < dims_; ++j) {
        lo[j] = std::min(lo[j], blo[j]);
        hi[j] = std::max(hi[j], bhi[j]);
      }
    }
  }
}

bool ZoneMapIndex::Validate(const Dataset& data) const {
  if (data.dims() != dims_ || data.count() != rows_) return false;
  if (static_cast<size_t>(data.stride()) != stride_) return false;
  if (clustered_.size() != order_.size() * stride_) return false;
  std::vector<uint8_t> seen(rows_, 0);
  for (size_t b = 0; b < block_count(); ++b) {
    const std::span<const uint32_t> points = block_points(b);
    if (points.empty()) return false;
    std::vector<Value> lo(dims_, std::numeric_limits<Value>::infinity());
    std::vector<Value> hi(dims_, -std::numeric_limits<Value>::infinity());
    for (size_t k = 0; k < points.size(); ++k) {
      const uint32_t r = points[k];
      if (r >= rows_ || seen[r]) return false;
      seen[r] = 1;
      const Value* row = data.Row(r);
      if (!RowFinite(row, dims_)) return false;
      const Value* cl = block_row_data(b) + k * stride_;
      for (int j = 0; j < dims_; ++j) {
        if (cl[j] != row[j]) return false;
        lo[j] = std::min(lo[j], row[j]);
        hi[j] = std::max(hi[j], row[j]);
      }
    }
    for (int j = 0; j < dims_; ++j) {
      if (lo[j] != block_lo(b)[j] || hi[j] != block_hi(b)[j]) return false;
    }
  }
  for (uint32_t r : irregular_) {
    if (r >= rows_ || seen[r]) return false;
    seen[r] = 1;
    if (RowFinite(data.Row(r), dims_)) return false;
  }
  for (size_t r = 0; r < rows_; ++r) {
    if (!seen[r]) return false;
  }
  // Supers tile the block list in order with merged AABBs.
  const size_t blocks = block_count();
  if (blocks == 0) return super_count() == 0;
  if (super_count() == 0 || super_first(0) != 0 ||
      super_last(super_count() - 1) != blocks) {
    return false;
  }
  for (size_t s = 0; s < super_count(); ++s) {
    if (super_first(s) >= super_last(s)) return false;
    if (s > 0 && super_first(s) != super_last(s - 1)) return false;
    std::vector<Value> lo(dims_, std::numeric_limits<Value>::infinity());
    std::vector<Value> hi(dims_, -std::numeric_limits<Value>::infinity());
    for (uint32_t b = super_first(s); b < super_last(s); ++b) {
      for (int j = 0; j < dims_; ++j) {
        lo[j] = std::min(lo[j], block_lo(b)[j]);
        hi[j] = std::max(hi[j], block_hi(b)[j]);
      }
    }
    for (int j = 0; j < dims_; ++j) {
      if (lo[j] != super_lo(s)[j] || hi[j] != super_hi(s)[j]) return false;
    }
  }
  return true;
}

}  // namespace sky
