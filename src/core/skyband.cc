// Copyright (c) SkyBench-NG contributors.
#include "core/skyband.h"

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

// Correctness sketch. Let D(p) be p's dominator set. For any x in D(p),
// D(x) is a subset of D(p) (transitivity), so:
//   (a) if |D(p)| < k, every dominator of p is a k-skyband member;
//   (b) if |D(p)| >= k, at least k of p's dominators are band members
//       (pick a minimal non-member x in D(p): D(x) consists of members
//       only and |D(x)| >= k — contradiction, so no non-member minimal
//       exists below the k threshold).
// Hence counting dominators against the confirmed band alone classifies
// every point exactly, and reported counts are exact for members by (a).
//
// The L1 sort guarantees dominators precede their victims, so the α-block
// flow of Q-Flow carries over: Phase I counts band dominators, Phase II
// counts preceding in-block peers (flagged peers included — a flagged
// dominator implies >= k+1 dominators anyway).
SkybandResult ComputeSkyband(const RowSource& source, uint32_t k,
                             const Options& opts) {
  SkybandResult res;
  RunStats& st = res.stats;
  SKY_CHECK(k >= 1);
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

  const size_t alpha = opts.AlphaFor(Algorithm::kQFlow);
  const size_t stride = static_cast<size_t>(ws.stride);
  const size_t row_bytes = sizeof(Value) * stride;

  AlignedBuffer<Value> band_rows(ws.count * stride);
  std::vector<PointId> band_ids;
  std::vector<uint32_t> band_counts;
  size_t band_count = 0;
  const auto band_row = [&](size_t i) {
    return band_rows.data() + i * stride;
  };

  std::vector<uint8_t> flags(std::min(alpha, ws.count));
  std::vector<uint32_t> counts(std::min(alpha, ws.count));

  // SoA mirrors for the batched counting kernel: `band_tiles` shadows the
  // confirmed band (appended as members confirm), `block_tiles` is rebuilt
  // per block over the Phase II survivors. Capped counting keeps the exact
  // classification: CountDominators is exact below cap and any count >= k
  // flags identically. Below kBatchWindowMin band members (Phase I) and
  // kBatchPrefixMin peers (Phase II) the one-vs-one scan is cheaper.
  TileBlock band_tiles(ws.dims, ws.count);
  TileBlock block_tiles(ws.dims, std::min(alpha, ws.count));

  for (size_t b = 0; b < ws.count; b += alpha) {
    CheckCancel(opts.cancel);  // per-block deadline checkpoint
    const size_t e = std::min(b + alpha, ws.count);
    const size_t blen = e - b;
    std::fill_n(flags.begin(), blen, uint8_t{0});
    std::fill_n(counts.begin(), blen, 0u);

    // Phase I: count dominators among confirmed band members, stopping
    // as soon as k is reached.
    phase.Restart();
    const bool batch1 = band_count >= kBatchWindowMin;
    group.ParallelFor(blen, 16, [&](size_t lo, size_t hi) {
      uint64_t dts = 0;
      for (size_t i = lo; i < hi; ++i) {
        const Value* q = ws.Row(b + i);
        uint32_t c = 0;
        if (batch1) {
          c = std::min(
              dom.CountDominators(q, band_tiles, band_count, k, &dts), k);
        } else {
          for (size_t s = 0; s < band_count && c < k; ++s) {
            ++dts;
            c += dom.Dominates(band_row(s), q);
          }
        }
        counts[i] = c;
        if (c >= k) flags[i] = 1;
      }
      counter.AddTests(dts);
    });
    st.phase1_seconds += phase.Lap();

    // Compress, carrying the partial counts along.
    size_t write = 0;
    for (size_t i = 0; i < blen; ++i) {
      if (flags[i]) continue;
      ws.MoveRow(b + write, b + i);
      counts[write] = counts[i];
      ++write;
    }
    const size_t survivors = write;
    st.compress_seconds += phase.Lap();

    // Phase II: add dominators among preceding in-block survivors. A
    // dominating peer counts whether or not it is itself flagged (its
    // own >= k dominators also dominate us).
    std::fill_n(flags.begin(), survivors, uint8_t{0});
    if (survivors > kBatchPrefixMin) {
      block_tiles.Clear();
      block_tiles.AppendRows(ws.Row(b), ws.stride, survivors);
    }
    group.ParallelFor(survivors, 16, [&](size_t lo, size_t hi) {
      uint64_t dts = 0;
      for (size_t i = lo; i < hi; ++i) {
        const Value* q = ws.Row(b + i);
        uint32_t c = counts[i];
        if (i >= kBatchPrefixMin) {
          if (c < k) {
            c = std::min(
                c + dom.CountDominators(q, block_tiles, i, k - c, &dts), k);
          }
        } else {
          for (size_t j = 0; j < i && c < k; ++j) {
            ++dts;
            c += dom.Dominates(ws.Row(b + j), q);
          }
        }
        counts[i] = c;
        if (c >= k) flags[i] = 1;
      }
      counter.AddTests(dts);
    });
    st.phase2_seconds += phase.Lap();

    for (size_t i = 0; i < survivors; ++i) {
      if (flags[i]) continue;
      std::memcpy(band_row(band_count), ws.Row(b + i), row_bytes);
      band_tiles.PushRow(ws.Row(b + i));
      band_ids.push_back(ws.ids[b + i]);
      band_counts.push_back(counts[i]);
      ++band_count;
    }
    st.compress_seconds += phase.Lap();
  }

  res.skyband = std::move(band_ids);
  res.dominator_counts = std::move(band_counts);
  st.skyline_size = band_count;
  st.dominance_tests = counter.tests();
  st.total_seconds = total.Seconds();
  return res;
}

SkybandResult ComputeSkyband(const Dataset& data, uint32_t k,
                             const Options& opts) {
  return ComputeSkyband(RowSource(data), k, opts);
}

}  // namespace sky
