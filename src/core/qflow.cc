// Copyright (c) SkyBench-NG contributors.
#include "core/qflow.h"

#include <algorithm>
#include <cstring>

#include "common/cancel.h"
#include "common/stats.h"
#include "common/timer.h"
#include "data/sorting.h"
#include "data/working_set.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky {

namespace {
/// Dynamic-schedule chunk for the parallel phases: small enough to balance
/// the highly skewed per-point cost (dominated points abort their scan
/// almost immediately), large enough to amortise the claim.
constexpr size_t kPhaseGrain = 16;
}  // namespace

// Phase I batches only past kBatchWindowMin window points and Phase II
// past kBatchPrefixMin peers (dominance/batch.h): below these the window
// fits a few tiles and per-point early exit (the first dominators are
// L1-strong and sit at the front) beats paying for 8 lanes per compare.

Result QFlowCompute(const Dataset& data, const Options& opts) {
  Result res;
  RunStats& st = res.stats;
  if (data.count() == 0) return res;

  WallTimer total;
  Executor::TaskGroup group(opts.ResolvedExecutor(), opts.ResolvedThreads());
  DomCtx dom(data.dims(), data.stride(), opts.use_simd, opts.use_batch);
  DtCounter counter(opts.count_dts);

  WorkingSet ws = WorkingSet::FromDataset(data, group);

  // Initialization: parallel L1 + sort ("Init." of paper Fig. 7).
  WallTimer phase;
  ws.ComputeL1(group);
  SortByL1(ws, group);
  st.init_seconds = phase.Lap();

  const size_t alpha = opts.AlphaFor(Algorithm::kQFlow);
  const size_t stride = static_cast<size_t>(ws.stride);
  const size_t row_bytes = sizeof(Value) * stride;

  // Global skyline S: contiguous rows + original ids, append-only. In
  // batch mode a transposed SoA mirror of S (and a per-block tile set of
  // Phase II survivors) feeds the 8-lane window kernels.
  AlignedBuffer<Value> sky_rows(ws.count * stride);
  std::vector<PointId> sky_ids;
  sky_ids.reserve(1024);
  size_t sky_count = 0;
  const auto sky_row = [&](size_t i) { return sky_rows.data() + i * stride; };

  const bool batch = dom.batch();
  TileBlock sky_tiles;
  TileBlock block_tiles;
  if (batch) {
    sky_tiles.Reset(ws.dims, ws.count);
    block_tiles.Reset(ws.dims, std::min(alpha, ws.count));
  }

  std::vector<uint8_t> flags(std::min(alpha, ws.count));

  for (size_t b = 0; b < ws.count; b += alpha) {
    // Deadline / cancellation checkpoint, once per α-block: everything
    // confirmed so far (and already reported progressively) is exact, so
    // stopping here yields a well-formed partial skyline.
    CheckCancel(opts.cancel);
    const size_t e = std::min(b + alpha, ws.count);
    const size_t blen = e - b;
    std::fill_n(flags.begin(), blen, uint8_t{0});

    // ---- Phase I: each block point vs. the known global skyline, in the
    // exact order a sequential algorithm would use (Algorithm 1 l.6-8).
    // Batch mode filters each candidate run against the SoA mirror of S
    // with the cache-blocked tile scan; the verdict per point is
    // identical, only the evaluation width changes.
    phase.Restart();
    // Tiny windows favour the one-vs-one scan: its per-point early exit
    // finds the (L1-strong) first dominators in a couple of tests, while
    // a tile pass always pays for 8 lanes.
    const bool batch_window = batch && sky_count >= kBatchWindowMin;
    group.ParallelFor(blen, kPhaseGrain, [&](size_t lo, size_t hi) {
      uint64_t dts = 0;
      if (batch_window) {
        dom.FilterTile(ws.Row(b + lo), hi - lo, sky_tiles, flags.data() + lo,
                       &dts);
      } else {
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
      }
      counter.AddTests(dts);
    });
    st.phase1_seconds += phase.Lap();

    // ---- Compression (Algorithm 1 l.9).
    const size_t survivors = ws.CompressRange(b, e, flags.data());
    st.compress_seconds += phase.Lap();

    // ---- Phase II: survivors vs. preceding in-block survivors
    // (Algorithm 1 l.10-12). If Q[j] dominates Q[k], Q[k] is dominated
    // regardless of Q[j]'s own (still unsettled) fate. Batch mode tiles
    // the survivor range once, then each point scans its prefix of tiles
    // (the ragged head tile handled by a lane mask).
    std::fill_n(flags.begin(), survivors, uint8_t{0});
    if (batch) {
      block_tiles.Clear();
      block_tiles.AppendRows(ws.Row(b), ws.stride, survivors);
    }
    group.ParallelFor(survivors, kPhaseGrain, [&](size_t lo, size_t hi) {
      uint64_t dts = 0;
      for (size_t k = lo; k < hi; ++k) {
        const Value* q = ws.Row(b + k);
        if (batch && k >= kBatchPrefixMin) {
          if (dom.DominatedByAny(q, block_tiles, k, &dts)) flags[k] = 1;
          continue;
        }
        for (size_t j = 0; j < k; ++j) {
          ++dts;
          if (dom.Dominates(ws.Row(b + j), q)) {
            flags[k] = 1;
            break;
          }
        }
      }
      counter.AddTests(dts);
    });
    st.phase2_seconds += phase.Lap();

    // ---- Compression + append to S (Algorithm 1 l.13-14).
    const size_t confirmed = ws.CompressRange(b, b + survivors, flags.data());
    for (size_t k = 0; k < confirmed; ++k) {
      std::memcpy(sky_row(sky_count + k), ws.Row(b + k), row_bytes);
      sky_ids.push_back(ws.ids[b + k]);
    }
    if (batch) sky_tiles.AppendRows(ws.Row(b), ws.stride, confirmed);
    sky_count += confirmed;
    st.compress_seconds += phase.Lap();

    if (opts.progressive && confirmed > 0) {
      opts.progressive(
          std::span<const PointId>(sky_ids.data() + sky_count - confirmed,
                                   confirmed));
    }
  }

  res.skyline = std::move(sky_ids);
  st.skyline_size = sky_count;
  st.dominance_tests = counter.tests();
  st.total_seconds = total.Seconds();
  st.other_seconds =
      std::max(0.0, st.total_seconds - (st.init_seconds + st.phase1_seconds +
                                        st.phase2_seconds +
                                        st.compress_seconds));
  return res;
}

}  // namespace sky
