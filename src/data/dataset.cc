// Copyright (c) SkyBench-NG contributors.
#include "data/dataset.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/macros.h"

namespace sky {

int Dataset::StrideFor(int dims) {
  SKY_CHECK(dims >= 1 && dims <= kMaxDims);
  return (dims + kSimdWidth - 1) / kSimdWidth * kSimdWidth;
}

Dataset::Dataset(int dims, size_t count)
    : dims_(dims), stride_(StrideFor(dims)), count_(count) {
  rows_.Reset(count * static_cast<size_t>(stride_));
}

Dataset Dataset::FromRowMajor(int dims, const std::vector<Value>& values) {
  SKY_CHECK(dims > 0 && values.size() % static_cast<size_t>(dims) == 0);
  const size_t n = values.size() / static_cast<size_t>(dims);
  Dataset out(dims, n);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(out.MutableRow(i), values.data() + i * dims,
                sizeof(Value) * static_cast<size_t>(dims));
  }
  return out;
}

Dataset Dataset::Clone() const {
  if (dims_ == 0) return Dataset{};
  Dataset out(dims_, count_);
  if (count_ > 0) {
    std::memcpy(out.rows_.data(), rows_.data(),
                sizeof(Value) * count_ * static_cast<size_t>(stride_));
  }
  return out;
}

Dataset Dataset::LoadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<Value> values;
  std::string line;
  int dims = -1;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    std::string cell;
    int cols = 0;
    while (std::getline(ss, cell, ',')) {
      values.push_back(std::strtof(cell.c_str(), nullptr));
      ++cols;
    }
    if (dims < 0) {
      dims = cols;
    } else if (dims != cols) {
      throw std::runtime_error("ragged CSV row in " + path);
    }
  }
  if (dims <= 0) throw std::runtime_error("empty CSV " + path);
  if (dims > kMaxDims) {
    throw std::runtime_error(path + " has " + std::to_string(dims) +
                             " columns; at most " +
                             std::to_string(kMaxDims) + " supported");
  }
  return FromRowMajor(dims, values);
}

void Dataset::SaveCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (size_t i = 0; i < count_; ++i) {
    const Value* r = Row(i);
    for (int j = 0; j < dims_; ++j) {
      out << r[j] << (j + 1 == dims_ ? '\n' : ',');
    }
  }
}

namespace {
constexpr uint64_t kBinaryMagic = 0x534b594e47763031ULL;  // "SKYNGv01"
}  // namespace

void Dataset::SaveBinary(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  const uint64_t d = static_cast<uint64_t>(dims_);
  const uint64_t n = count_;
  out.write(reinterpret_cast<const char*>(&kBinaryMagic), 8);
  out.write(reinterpret_cast<const char*>(&d), 8);
  out.write(reinterpret_cast<const char*>(&n), 8);
  out.write(reinterpret_cast<const char*>(rows_.data()),
            static_cast<std::streamsize>(sizeof(Value) * count_ *
                                         static_cast<size_t>(stride_)));
}

bool Dataset::SniffBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), 8);
  return in.good() && magic == kBinaryMagic;
}

Dataset Dataset::LoadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  uint64_t magic = 0, d = 0, n = 0;
  in.read(reinterpret_cast<char*>(&magic), 8);
  in.read(reinterpret_cast<char*>(&d), 8);
  in.read(reinterpret_cast<char*>(&n), 8);
  if (magic != kBinaryMagic) throw std::runtime_error("bad magic in " + path);
  if (d < 1 || d > static_cast<uint64_t>(kMaxDims)) {
    throw std::runtime_error(path + " declares d=" + std::to_string(d) +
                             "; expected 1.." + std::to_string(kMaxDims));
  }
  Dataset out(static_cast<int>(d), n);
  in.read(reinterpret_cast<char*>(out.rows_.data()),
          static_cast<std::streamsize>(sizeof(Value) * n *
                                       static_cast<size_t>(out.stride_)));
  if (!in) throw std::runtime_error("truncated dataset " + path);
  return out;
}

std::vector<Value> Dataset::MinPerDim() const {
  return PerDimMin(rows_.data(), count_, stride_, dims_);
}

std::vector<Value> Dataset::MaxPerDim() const {
  return PerDimMax(rows_.data(), count_, stride_, dims_);
}

namespace {

template <typename Better>
std::vector<Value> PerDimExtreme(const Value* rows, size_t count, int stride,
                                 int dims, Better better) {
  if (count == 0) return {};
  std::vector<Value> out(rows, rows + dims);
  for (size_t i = 1; i < count; ++i) {
    const Value* r = rows + i * static_cast<size_t>(stride);
    for (int j = 0; j < dims; ++j) {
      if (better(r[j], out[static_cast<size_t>(j)])) {
        out[static_cast<size_t>(j)] = r[j];
      }
    }
  }
  return out;
}

}  // namespace

std::vector<Value> PerDimMin(const Value* rows, size_t count, int stride,
                             int dims) {
  return PerDimExtreme(rows, count, stride, dims,
                       [](Value a, Value b) { return a < b; });
}

std::vector<Value> PerDimMax(const Value* rows, size_t count, int stride,
                             int dims) {
  return PerDimExtreme(rows, count, stride, dims,
                       [](Value a, Value b) { return a > b; });
}

}  // namespace sky
