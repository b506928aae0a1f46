// Copyright (c) SkyBench-NG contributors.
#include "data/working_set.h"

#include <numeric>

namespace sky {

WorkingSet WorkingSet::Load(const RowSource& source,
                            Executor::TaskGroup& group,
                            const CancelToken* cancel) {
  WorkingSet ws;
  ws.dims = source.dims();
  ws.stride = source.stride();
  source.Load(group, cancel, [&](size_t count) {
    ws.count = count;
    ws.rows.Reset(count * static_cast<size_t>(ws.stride));
    ws.ids.resize(count);
    return RowSource::Target{ws.rows.data(), ws.ids.data()};
  });
  return ws;
}

std::vector<Value> WorkingSet::MinPerDim() const {
  return PerDimMin(rows.data(), count, stride, dims);
}

std::vector<Value> WorkingSet::MaxPerDim() const {
  return PerDimMax(rows.data(), count, stride, dims);
}

void WorkingSet::ComputeL1(Executor::TaskGroup& group) {
  l1.resize(count);
  group.ParallelForStatic(count, [&](size_t b, size_t e, int) {
    for (size_t i = b; i < e; ++i) {
      const Value* r = Row(i);
      float acc = 0.0f;
      for (int j = 0; j < dims; ++j) acc += r[j];
      l1[i] = acc;
    }
  });
}

void WorkingSet::PermuteBy(const std::vector<uint32_t>& order) {
  SKY_DCHECK(order.size() == count);
  AlignedBuffer<Value> new_rows(count * static_cast<size_t>(stride));
  std::vector<PointId> new_ids(count);
  std::vector<float> new_l1(l1.empty() ? 0 : count);
  std::vector<Mask> new_masks(masks.empty() ? 0 : count);
  const size_t row_bytes = sizeof(Value) * static_cast<size_t>(stride);
  for (size_t k = 0; k < count; ++k) {
    const uint32_t src = order[k];
    SKY_DCHECK(src < count);
    std::memcpy(new_rows.data() + k * static_cast<size_t>(stride), Row(src),
                row_bytes);
    new_ids[k] = ids[src];
    if (!l1.empty()) new_l1[k] = l1[src];
    if (!masks.empty()) new_masks[k] = masks[src];
  }
  rows = std::move(new_rows);
  ids = std::move(new_ids);
  l1 = std::move(new_l1);
  masks = std::move(new_masks);
}

void WorkingSet::MoveRow(size_t dst, size_t src) {
  if (dst == src) return;
  std::memcpy(MutableRow(dst), Row(src),
              sizeof(Value) * static_cast<size_t>(stride));
  ids[dst] = ids[src];
  if (!l1.empty()) l1[dst] = l1[src];
  if (!masks.empty()) masks[dst] = masks[src];
}

size_t WorkingSet::CompressRange(size_t begin, size_t end,
                                 const uint8_t* flags) {
  SKY_DCHECK(begin <= end && end <= count);
  size_t write = begin;
  for (size_t i = begin; i < end; ++i) {
    if (flags[i - begin] == 0) {
      MoveRow(write, i);
      ++write;
    }
  }
  return write - begin;
}

}  // namespace sky
