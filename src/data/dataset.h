// Copyright (c) SkyBench-NG contributors.
// Immutable input container for skyline computation: an n x d matrix of
// float coordinates, row-major, with rows padded to the SIMD width.
#ifndef SKY_DATA_DATASET_H_
#define SKY_DATA_DATASET_H_

#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"

namespace sky {

/// A dataset of `count` points over `dims` ordinal dimensions. Smaller
/// values are preferred on every dimension (paper convention; invert signs
/// for "larger is better" attributes before loading).
///
/// Rows are padded with zeros to a multiple of kSimdWidth floats and the
/// backing store is 64-byte aligned, so all dominance kernels can use
/// aligned vector loads. Algorithms never mutate a Dataset; each run copies
/// it into a private WorkingSet it is free to permute.
class Dataset {
 public:
  Dataset() = default;

  /// Allocate an uninitialised (zeroed) dataset.
  Dataset(int dims, size_t count);

  /// Build from densely packed row-major values (count*dims floats).
  static Dataset FromRowMajor(int dims, const std::vector<Value>& values);

  /// Deep copy. Datasets are normally shared immutably (the engine hands
  /// out shared_ptrs); cloning is explicit so accidental copies can't
  /// happen silently.
  Dataset Clone() const;

  /// Parse a CSV of numeric columns (no header detection: lines starting
  /// with '#' are skipped). Throws std::runtime_error on malformed input.
  static Dataset LoadCsv(const std::string& path);

  /// Write as CSV (only real dimensions, not padding).
  void SaveCsv(const std::string& path) const;

  /// Compact binary format: magic, dims, count, then raw padded rows.
  static Dataset LoadBinary(const std::string& path);
  void SaveBinary(const std::string& path) const;

  /// True when `path` is readable and starts with the binary-snapshot
  /// magic — format auto-detection without trusting file extensions.
  static bool SniffBinary(const std::string& path);

  int dims() const { return dims_; }
  size_t count() const { return count_; }
  /// Padded row stride in floats (multiple of kSimdWidth).
  int stride() const { return stride_; }
  bool empty() const { return count_ == 0; }

  const Value* Row(size_t i) const {
    SKY_DCHECK(i < count_);
    return rows_.data() + i * static_cast<size_t>(stride_);
  }
  Value* MutableRow(size_t i) {
    SKY_DCHECK(i < count_);
    return rows_.data() + i * static_cast<size_t>(stride_);
  }

  /// Column-wise minima / maxima over real dimensions (empty for an empty
  /// dataset). Used for pivot normalisation.
  std::vector<Value> MinPerDim() const;
  std::vector<Value> MaxPerDim() const;

  /// Padded stride for a dimensionality.
  static int StrideFor(int dims);

 private:
  int dims_ = 0;
  int stride_ = 0;
  size_t count_ = 0;
  AlignedBuffer<Value> rows_;
};

/// Column-wise minima / maxima of `count` rows of `stride` floats over
/// their first `dims` columns, seeded from row 0 (empty when count == 0).
std::vector<Value> PerDimMin(const Value* rows, size_t count, int stride,
                             int dims);
std::vector<Value> PerDimMax(const Value* rows, size_t count, int stride,
                             int dims);

}  // namespace sky

#endif  // SKY_DATA_DATASET_H_
