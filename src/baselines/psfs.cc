// Copyright (c) SkyBench-NG contributors.
#include "baselines/psfs.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/cancel.h"
#include "common/timer.h"
#include "data/sorting.h"
#include "data/working_set.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

Result PsfsCompute(const RowSource& source, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (source.rows().count() == 0) return res;
  WallTimer total;
  Executor::TaskGroup group(opts.ResolvedExecutor(), opts.ResolvedThreads());
  DomCtx dom(source.dims(), source.stride(), opts.use_simd);
  DtCounter counter(opts.count_dts);

  WorkingSet ws = WorkingSet::Load(source, group, opts.cancel);
  if (ws.count == 0) return res;
  WallTimer phase;
  ws.ComputeL1(group);
  SortByL1(ws, group);
  st.init_seconds = phase.Lap();

  const size_t alpha = opts.AlphaFor(Algorithm::kPsfs);
  const size_t stride = static_cast<size_t>(ws.stride);
  AlignedBuffer<Value> sky_rows(ws.count * stride);
  std::vector<PointId> sky_ids;
  size_t sky_count = 0;
  const auto sky_row = [&](size_t i) { return sky_rows.data() + i * stride; };
  const size_t row_bytes = sizeof(Value) * stride;

  std::vector<uint8_t> flags(std::min(alpha, ws.count));

  for (size_t b = 0; b < ws.count; b += alpha) {
    CheckCancel(opts.cancel);  // per-block deadline checkpoint
    const size_t e = std::min(b + alpha, ws.count);
    const size_t blen = e - b;
    std::fill_n(flags.begin(), blen, uint8_t{0});

    // Parallel screen against the confirmed window.
    phase.Restart();
    group.ParallelFor(blen, 16, [&](size_t lo, size_t hi) {
      uint64_t dts = 0;
      for (size_t k = lo; k < hi; ++k) {
        const Value* q = ws.Row(b + k);
        for (size_t s = 0; s < sky_count; ++s) {
          ++dts;
          if (dom.Dominates(sky_row(s), q)) {
            flags[k] = 1;
            break;
          }
        }
      }
      counter.AddTests(dts);
    });
    st.phase1_seconds += phase.Lap();

    // Sequential peer resolution: append survivors one by one, testing
    // each against the points this block has already appended.
    const size_t survivors = ws.CompressRange(b, e, flags.data());
    uint64_t dts = 0;
    const size_t block_sky_begin = sky_count;
    for (size_t k = 0; k < survivors; ++k) {
      const Value* q = ws.Row(b + k);
      bool dominated = false;
      for (size_t s = block_sky_begin; s < sky_count; ++s) {
        ++dts;
        if (dom.Dominates(sky_row(s), q)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) {
        std::memcpy(sky_row(sky_count), q, row_bytes);
        sky_ids.push_back(ws.ids[b + k]);
        ++sky_count;
      }
    }
    counter.AddTests(dts);
    st.phase2_seconds += phase.Lap();

    if (opts.progressive && sky_count > block_sky_begin) {
      opts.progressive(std::span<const PointId>(
          sky_ids.data() + block_sky_begin, sky_count - block_sky_begin));
    }
  }

  res.skyline = std::move(sky_ids);
  st.skyline_size = sky_count;
  st.dominance_tests = counter.tests();
  st.total_seconds = total.Seconds();
  return res;
}

}  // namespace sky
