// Copyright (c) SkyBench-NG contributors.
#include "query/shard_map.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/options.h"
#include "data/partition.h"
#include "data/working_set.h"
#include "dominance/dominance.h"
#include "index/zonemap.h"
#include "parallel/executor.h"

namespace sky {

std::shared_ptr<const ZoneMapIndex> Shard::zonemap() const {
  std::lock_guard<std::mutex> lock(zonemap_->mu);
  if (zonemap_->index == nullptr) {
    zonemap_->index = std::make_shared<const ZoneMapIndex>(
        ZoneMapIndex::Build(rows(), /*block_rows=*/0, &sketch));
  }
  return zonemap_->index;
}

std::shared_ptr<const ZoneMapIndex> Shard::built_zonemap() const {
  std::lock_guard<std::mutex> lock(zonemap_->mu);
  return zonemap_->index;
}

void Shard::set_zonemap(std::shared_ptr<const ZoneMapIndex> index) {
  std::lock_guard<std::mutex> lock(zonemap_->mu);
  zonemap_->index = std::move(index);
}

const char* ShardPolicyName(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kRoundRobin:
      return "rr";
    case ShardPolicy::kMedianPivot:
      return "median";
  }
  return "?";
}

ShardPolicy ParseShardPolicy(const std::string& name) {
  if (name == "rr" || name == "roundrobin") return ShardPolicy::kRoundRobin;
  if (name == "median") return ShardPolicy::kMedianPivot;
  throw std::runtime_error("unknown shard policy '" + name +
                           "' (want rr|median)");
}

namespace {

/// Row order for kMedianPivot: stable-sort original rows by their
/// partition mask relative to the median pivot, so equal-mask points (the
/// same orthant of the pivot) end up contiguous and each cut of the order
/// covers a small sub-box of the space.
std::vector<PointId> MaskOrder(const Dataset& data, uint64_t seed,
                               Executor* executor) {
  Options run;  // full width on `executor`, or on the default executor
  run.executor = executor;
  Executor::TaskGroup group(run.ResolvedExecutor(), run.ResolvedThreads());
  WorkingSet ws = WorkingSet::Load(data, group);
  const DomCtx dom(ws.dims, ws.stride, /*use_simd=*/true);
  const std::vector<Value> pivot =
      SelectPivot(ws, PivotPolicy::kMedian, group, seed);
  AssignMasks(ws, pivot.data(), dom, group);
  std::vector<PointId> order(ws.count);
  std::iota(order.begin(), order.end(), PointId{0});
  std::stable_sort(order.begin(), order.end(), [&](PointId a, PointId b) {
    return ws.masks[a] < ws.masks[b];
  });
  return order;
}

/// Shards a Build call produces: the request clamped to [1, max(count, 1)].
size_t ShardCount(size_t shards, size_t count) {
  return std::min(std::max<size_t>(shards, 1), std::max<size_t>(count, 1));
}

}  // namespace

ShardMap ShardMap::Build(std::shared_ptr<const Dataset> data, size_t shards,
                         ShardPolicy policy, uint64_t seed,
                         Executor* executor) {
  if (ShardCount(shards, data->count()) > 1) {
    return Build(*data, shards, policy, seed, executor);
  }
  // One shard aliases the dataset: no row copy, implicit ids, and an
  // unbounded box — it covers every row, and the planner never needs to
  // prune the only shard. The sketch is the one registration pass.
  ShardMap map;
  map.policy_ = policy;
  map.dims_ = data->dims();
  map.total_count_ = data->count();
  Shard shard;
  const size_t dims = static_cast<size_t>(data->dims());
  shard.box_lo.assign(dims, -std::numeric_limits<Value>::infinity());
  shard.box_hi.assign(dims, std::numeric_limits<Value>::infinity());
  shard.sketch = ComputeSketch(*data, seed);
  shard.data = std::move(data);
  map.shards_.push_back(std::make_shared<const Shard>(std::move(shard)));
  return map;
}

ShardMap ShardMap::Build(const Dataset& data, size_t shards,
                         ShardPolicy policy, uint64_t seed,
                         Executor* executor) {
  const size_t k = ShardCount(shards, data.count());
  if (k == 1) {
    return Build(std::make_shared<const Dataset>(data.Clone()), shards,
                 policy, seed, executor);
  }
  ShardMap map;
  map.policy_ = policy;
  map.dims_ = data.dims();
  map.total_count_ = data.count();

  // Membership lists per shard, in original row-id order per shard.
  std::vector<std::vector<PointId>> members(k);
  if (policy == ShardPolicy::kRoundRobin) {
    for (size_t i = 0; i < data.count(); ++i) {
      members[i % k].push_back(static_cast<PointId>(i));
    }
  } else {
    const std::vector<PointId> order = MaskOrder(data, seed, executor);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      // Equal-size cuts of the mask order: shard s covers positions
      // [s*n/k, (s+1)*n/k).
      members[pos * k / order.size()].push_back(order[pos]);
    }
  }

  const int dims = data.dims();
  const size_t row_bytes = sizeof(Value) * static_cast<size_t>(data.stride());
  map.shards_.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    Shard shard;
    shard.row_ids = std::move(members[s]);
    auto rows = std::make_shared<Dataset>(dims, shard.row_ids.size());
    shard.box_lo.assign(static_cast<size_t>(dims),
                        std::numeric_limits<Value>::infinity());
    shard.box_hi.assign(static_cast<size_t>(dims),
                        -std::numeric_limits<Value>::infinity());
    for (size_t w = 0; w < shard.row_ids.size(); ++w) {
      const Value* src = data.Row(shard.row_ids[w]);
      std::memcpy(rows->MutableRow(w), src, row_bytes);
      for (int j = 0; j < dims; ++j) {
        // NaN fails both comparisons and stays out of the box.
        if (src[j] < shard.box_lo[static_cast<size_t>(j)]) {
          shard.box_lo[static_cast<size_t>(j)] = src[j];
        }
        if (src[j] > shard.box_hi[static_cast<size_t>(j)]) {
          shard.box_hi[static_cast<size_t>(j)] = src[j];
        }
      }
    }
    // Sketch each shard while its rows are hot: O(sample), so building
    // K shards stays linear in n overall.
    shard.sketch = ComputeSketch(*rows, seed + s);
      shard.data = std::move(rows);
    map.shards_.push_back(std::make_shared<const Shard>(std::move(shard)));
  }
  return map;
}

void ShardMap::ReplaceShard(size_t i, std::shared_ptr<const Shard> shard) {
  SKY_CHECK(i < shards_.size() && shard != nullptr &&
            shard->data != nullptr);
  shards_[i] = std::move(shard);
  size_t total = 0;
  for (const auto& s : shards_) total += s->rows().count();
  total_count_ = total;
}

std::shared_ptr<const Dataset> ShardMap::WholeRows() const {
  if (shards_.size() == 1 && shards_[0]->row_ids.empty()) {
    return shards_[0]->data;
  }
  auto rows = std::make_shared<Dataset>(dims_, total_count_);
  for (const auto& shard : shards_) {
    const Dataset& src = shard->rows();
    const size_t row_bytes = sizeof(Value) * static_cast<size_t>(src.stride());
    for (size_t i = 0; i < src.count(); ++i) {
      std::memcpy(rows->MutableRow(shard->global_id(i)), src.Row(i),
                  row_bytes);
    }
  }
  return rows;
}

size_t ShardMap::RouteInsert(const Value* row) const {
  SKY_CHECK(!shards_.empty());
  const auto least_loaded = [&](size_t a, size_t b) {
    return shards_[b]->rows().count() < shards_[a]->rows().count() ? b : a;
  };
  if (policy_ == ShardPolicy::kRoundRobin) {
    size_t best = 0;
    for (size_t s = 1; s < shards_.size(); ++s) best = least_loaded(best, s);
    return best;
  }
  // Median-pivot: minimize range-normalized box expansion so shard boxes
  // stay tight and constraint pruning keeps firing after mutations.
  size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    double score = 0.0;
    for (int j = 0; j < dims_; ++j) {
      const Value v = row[j];
      const Value lo = shard.box_lo[static_cast<size_t>(j)];
      const Value hi = shard.box_hi[static_cast<size_t>(j)];
      // NaN coordinates and empty (all-NaN) boxes expand nothing.
      if (std::isnan(v) || lo > hi) continue;
      const double denom = hi > lo ? static_cast<double>(hi) - lo : 1.0;
      if (v < lo) {
        score += (static_cast<double>(lo) - v) / denom;
      } else if (v > hi) {
        score += (static_cast<double>(v) - hi) / denom;
      }
    }
    if (score < best_score) {
      best_score = score;
      best = s;
    } else if (score == best_score) {
      best = least_loaded(best, s);
    }
  }
  return best;
}

}  // namespace sky
