// Copyright (c) SkyBench-NG contributors.
// google-benchmark microbenchmarks for the dominance-test kernels — the
// primitive whose cost every skyline algorithm multiplies (paper §IV-A).
// Covers scalar vs AVX2, the dimensionality sweep of the paper's
// experiments, the two extreme control-flow cases (early-exit on a
// dominating pair vs full scan on incomparable pairs), and the batched
// tile kernels (one-vs-8 and the many-vs-many window filter) against
// the one-vs-one paths they replace.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "data/dataset.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"

namespace sky {
namespace {

Dataset RandomData(int d, size_t n, uint64_t seed) {
  Dataset data(d, n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) data.MutableRow(i)[j] = rng.NextFloat();
  }
  return data;
}

void BM_Dominates(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const bool simd = state.range(1) != 0;
  Dataset data = RandomData(d, 4096, 7);
  DomCtx dom(d, data.stride(), simd);
  size_t i = 0;
  for (auto _ : state) {
    const Value* p = data.Row(i & 4095);
    const Value* q = data.Row((i + 1) & 4095);
    benchmark::DoNotOptimize(dom.Dominates(p, q));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Dominates)
    ->ArgsProduct({{4, 8, 12, 16}, {0, 1}})
    ->ArgNames({"d", "simd"});

void BM_DominatesEarlyExit(benchmark::State& state) {
  // p strictly dominates q: the scalar kernel exits after one lane of
  // strictness is found, the SIMD kernel after one 8-lane block.
  const int d = static_cast<int>(state.range(0));
  const bool simd = state.range(1) != 0;
  Dataset data(d, 2);
  for (int j = 0; j < d; ++j) {
    data.MutableRow(0)[j] = 0.1f;
    data.MutableRow(1)[j] = 0.9f;
  }
  DomCtx dom(d, data.stride(), simd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dom.Dominates(data.Row(0), data.Row(1)));
  }
}
BENCHMARK(BM_DominatesEarlyExit)
    ->ArgsProduct({{8, 16}, {0, 1}})
    ->ArgNames({"d", "simd"});

void BM_Compare(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const bool simd = state.range(1) != 0;
  Dataset data = RandomData(d, 4096, 11);
  DomCtx dom(d, data.stride(), simd);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dom.Compare(data.Row(i & 4095), data.Row((i + 7) & 4095)));
    ++i;
  }
}
BENCHMARK(BM_Compare)
    ->ArgsProduct({{4, 8, 12, 16}, {0, 1}})
    ->ArgNames({"d", "simd"});

void BM_PartitionMask(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const bool simd = state.range(1) != 0;
  Dataset data = RandomData(d, 4096, 13);
  DomCtx dom(d, data.stride(), simd);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dom.PartitionMask(data.Row(i & 4095), data.Row(2048)));
    ++i;
  }
}
BENCHMARK(BM_PartitionMask)
    ->ArgsProduct({{4, 8, 12, 16}, {0, 1}})
    ->ArgNames({"d", "simd"});

// Equal is called by the SkyTree family and M(S) after a full partition
// mask, i.e. mostly on coincident or near-coincident rows — the
// `coincident` axis covers that case (where the vector kernel's d/8
// full-row compare wins) and the random case (where scalar's first-lane
// early exit wins).
void BM_Equal(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const bool simd = state.range(1) != 0;
  const bool coincident = state.range(2) != 0;
  Dataset data = RandomData(d, 4096, 17);
  if (coincident) {
    for (size_t i = 0; i + 3 < data.count(); ++i) {
      for (int j = 0; j < d; ++j) {
        data.MutableRow(i + 3)[j] = data.Row(i)[j];
      }
    }
  }
  DomCtx dom(d, data.stride(), simd);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dom.Equal(data.Row(i & 4095), data.Row((i + 3) & 4095)));
    ++i;
  }
}
BENCHMARK(BM_Equal)
    ->ArgsProduct({{4, 8, 16}, {0, 1}, {0, 1}})
    ->ArgNames({"d", "simd", "coincident"});

// One candidate vs one 8-point SoA tile: the batched unit of work,
// directly comparable with 8 iterations of BM_Dominates.
void BM_TileDominates(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const bool simd = state.range(1) != 0;
  Dataset data = RandomData(d, 4096, 19);
  TileBlock tiles(d, 4096);
  tiles.AppendRows(data.Row(0), data.stride(), 4096);
  const auto kernel =
      simd && CpuHasAvx2() ? TileDominatesAvx2 : TileDominatesScalar;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(data.Row(i & 4095), tiles.Tile(i & 511),
                                    d, kFullLaneMask));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kSimdWidth);
}
BENCHMARK(BM_TileDominates)
    ->ArgsProduct({{4, 8, 12, 16}, {0, 1}})
    ->ArgNames({"d", "simd"});

// One candidate scanned against a window until its first dominator (the
// exact Phase-I shape) — one-vs-one AVX2 loop vs the batched tile scan.
// items_processed counts the dominance tests actually performed, so the
// reported items/s is directly the tests/s throughput the acceptance
// criterion compares.
void BM_WindowScanOneVsOne(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const size_t window = static_cast<size_t>(state.range(1));
  Dataset data = RandomData(d, window, 23);
  Dataset cands = RandomData(d, window, 29);
  DomCtx dom(d, data.stride(), /*use_simd=*/true);
  size_t i = 0;
  uint64_t dts = 0;
  for (auto _ : state) {
    const Value* q = cands.Row(i % window);
    for (size_t s = 0; s < window; ++s) {
      ++dts;
      if (dom.Dominates(data.Row(s), q)) break;
    }
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(dts));
}
BENCHMARK(BM_WindowScanOneVsOne)
    ->ArgsProduct({{4, 8, 12, 16}, {4096}})
    ->ArgNames({"d", "window"});

void BM_WindowScanBatched(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const size_t window = static_cast<size_t>(state.range(1));
  Dataset data = RandomData(d, window, 23);
  Dataset cands = RandomData(d, window, 29);
  TileBlock tiles(d, window);
  tiles.AppendRows(data.Row(0), data.stride(), window);
  DomCtx dom(d, data.stride(), /*use_simd=*/true);
  size_t i = 0;
  uint64_t dts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dom.DominatedByAny(cands.Row(i % window), tiles, window, &dts));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(dts));
}
BENCHMARK(BM_WindowScanBatched)
    ->ArgsProduct({{4, 8, 12, 16}, {4096}})
    ->ArgNames({"d", "window"});

// Hybrid's masked M(S) scan: one candidate against a window carrying
// random 8-bit masks (about a third of the lanes pass the subset filter),
// scanned until the first tile holding a
// dominator. items_processed counts lanes examined (tested + skipped),
// since the mask filter is most of the work.
void BM_MaskedRangeScan(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const bool simd = state.range(1) != 0;
  const size_t window = 4096;
  Dataset data = RandomData(d, window, 37);
  Dataset cands = RandomData(d, window, 41);
  TileBlock tiles(d, window);
  tiles.AppendRows(data.Row(0), data.stride(), window);
  Rng rng(43);
  std::vector<Mask> masks(window);
  for (Mask& m : masks) m = static_cast<Mask>(rng.NextBounded(1u << 8));
  DomCtx dom(d, data.stride(), simd);
  size_t i = 0;
  uint64_t dts = 0, skips = 0;
  for (auto _ : state) {
    const Mask m = static_cast<Mask>(rng.NextBounded(1u << 8) |
                                     rng.NextBounded(1u << 8));
    benchmark::DoNotOptimize(dom.DominatedInMaskedRange(
        cands.Row(i % window), tiles, masks.data(), m, 0, window, nullptr,
        &dts, &skips));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(dts + skips));
}
BENCHMARK(BM_MaskedRangeScan)
    ->ArgsProduct({{4, 8, 12, 16}, {0, 1}})
    ->ArgNames({"d", "simd"});

// The many-vs-many entry point as the hot consumers use it: a block of
// candidates filtered against the window with cache-blocked tile chunks.
void BM_FilterTile(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const size_t window = 4096;
  const size_t cands = 512;
  Dataset wdata = RandomData(d, window, 29);
  Dataset cdata = RandomData(d, cands, 31);
  TileBlock tiles(d, window);
  tiles.AppendRows(wdata.Row(0), wdata.stride(), window);
  DomCtx dom(d, wdata.stride(), /*use_simd=*/true);
  std::vector<uint8_t> flags(cands);
  for (auto _ : state) {
    std::fill(flags.begin(), flags.end(), uint8_t{0});
    benchmark::DoNotOptimize(
        dom.FilterTile(cdata.Row(0), cands, tiles, flags.data(), nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cands));
}
BENCHMARK(BM_FilterTile)
    ->ArgsProduct({{4, 8, 12, 16}})
    ->ArgNames({"d"});

}  // namespace
}  // namespace sky

BENCHMARK_MAIN();
