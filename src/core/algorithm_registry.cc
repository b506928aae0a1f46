// Copyright (c) SkyBench-NG contributors.
#include "core/algorithm_registry.h"

#include <stdexcept>
#include <vector>

#include "baselines/apskyline.h"
#include "baselines/bnl.h"
#include "baselines/bskytree.h"
#include "baselines/bskytree_s.h"
#include "baselines/less.h"
#include "baselines/pbskytree.h"
#include "baselines/psfs.h"
#include "baselines/pskyline.h"
#include "baselines/salsa.h"
#include "baselines/sfs.h"
#include "baselines/sskyline.h"
#include "core/hybrid.h"
#include "core/qflow.h"
#include "core/zonemap_skyline.h"
#include "parallel/executor.h"

namespace sky {
namespace {

/// OSP = BSkyTree's recursion with a random skyline pivot [Zhang 2009].
Result OspCompute(const RowSource& source, const Options& opts) {
  Options osp = opts;
  osp.pivot = PivotPolicy::kRandom;
  return BSkyTreeCompute(source, osp);
}

/// Registry entry of an algorithm without a WorkingSet load of its own.
template <Result (*Compute)(const Dataset&, const Options&)>
Result OnDataset(const RowSource& source, const Options& opts) {
  return RunOnMaterialized(source, opts, Compute);
}

// Cost coefficients are relative work units (~ns), calibrated against
// measured runs (bench/ablation_autoselect) to reproduce the paper's
// Fig. 5/6 crossover structure. The measured shape they encode:
//   - PSkyline wins small-skyline instances (its SSkyline core is a
//     near-linear scan, while BSkyTree pays a high per-point toll for
//     L1 sorting plus pivot/tree construction) but its
//     divide-and-conquer merges are quadratic in the skyline size
//     (per_sky2), so dense anticorrelated skylines sink it;
//   - Q-Flow is the low-d champion (one sorted α-block is close to an
//     optimal in-place scan — cheapest per-comparison cost at d=4 —
//     but its unmasked DTs decay fastest with d, growth 1.30);
//   - BSkyTree wins the startup-bound and small/mid comparison-bound
//     band past d≈5 (mask pruning, no fork-join or partitioning setup);
//   - Hybrid owns scale: its β-prefilter plus point-based partitioning
//     cut dominance work *algorithmically* (lowest flat per-cmp cost,
//     measurably faster than BSkyTree even at t=1 once n·m is large),
//     at the price of the family's biggest fixed startup — and its
//     high parallel fraction stretches the lead as threads arrive.
// Q-Flow's and Hybrid's per_cmp coefficients were re-calibrated for the
// batched tile kernels (dominance/batch.h): their window scans now run
// 8 points per compare, roughly halving effective per-comparison cost
// versus the one-vs-one AVX2 measurements the original constants
// encoded, and widening their lead over the non-batched candidates
// (PSkyline/BSkyTree keep one-vs-one inner loops and their constants).
// Only auto-candidates need faithful coefficients; the rest carry
// rough values for completeness.
constexpr AlgorithmDescriptor kTable[] = {
    {Algorithm::kBnl, "BNL", "bnl", &OnDataset<&BnlCompute>,
     /*parallel=*/false, /*progressive=*/false, /*skyband=*/false,
     /*auto_candidate=*/false,
     {500, 0, 2, 1.60, 1.00, 0.0, 0.0}},
    {Algorithm::kSfs, "SFS", "sfs", &SfsCompute,
     false, true, false, false,
     {1'000, 0, 10, 1.10, 1.00, 0.0, 0.0}},
    {Algorithm::kLess, "LESS", "less", &LessCompute,
     false, true, false, false,
     {1'000, 0, 9, 1.00, 1.00, 0.0, 0.0}},
    {Algorithm::kSalsa, "SaLSa", "salsa", &SalsaCompute,
     false, true, false, false,
     {1'000, 0, 10, 1.00, 1.00, 0.0, 0.0}},
    {Algorithm::kSSkyline, "SSkyline", "sskyline", &OnDataset<&SSkylineCompute>,
     false, false, false, false,
     {500, 0, 2, 1.30, 1.00, 0.0, 0.0}},
    {Algorithm::kPSkyline, "PSkyline", "pskyline", &OnDataset<&PSkylineCompute>,
     true, false, false, true,
     {15'000, 12'000, 2, 0.16, 1.35, 3.0, 0.88}},
    {Algorithm::kAPSkyline, "APSkyline", "apskyline",
     &OnDataset<&APSkylineCompute>, true, false, false, false,
     {10'000, 25'000, 3, 0.20, 1.30, 2.5, 0.88}},
    {Algorithm::kPsfs, "PSFS", "psfs", &PsfsCompute,
     true, true, false, false,
     {8'000, 20'000, 8, 1.10, 1.00, 0.5, 0.85}},
    {Algorithm::kQFlow, "Q-Flow", "qflow", &QFlowCompute,
     true, true, true, true,
     {10'000, 25'000, 9, 0.11, 1.30, 0.2, 0.93}},
    {Algorithm::kHybrid, "Hybrid", "hybrid", &HybridCompute,
     true, true, false, true,
     {500'000, 150'000, 8, 0.11, 1.10, 0.05, 0.95}},
    {Algorithm::kBSkyTree, "BSkyTree", "bskytree", &BSkyTreeCompute,
     false, false, false, true,
     {2'000, 0, 20, 0.25, 1.10, 0.05, 0.0}},
    {Algorithm::kBSkyTreeS, "BSkyTree-S", "bskytree-s", &BSkyTreeSCompute,
     false, true, false, false,
     {2'000, 0, 16, 0.45, 1.08, 0.05, 0.0}},
    {Algorithm::kOsp, "OSP", "osp", &OspCompute,
     false, false, false, false,
     {2'000, 0, 18, 0.40, 1.10, 0.05, 0.0}},
    {Algorithm::kPBSkyTree, "PBSkyTree", "pbskytree", &PBSkyTreeCompute,
     true, false, false, false,
     {25'000, 80'000, 12, 0.40, 1.18, 0.3, 0.90}},
    // Zonemap is the only candidate whose cost depends on data layout
    // (blocks pruned), which the static model cannot see. ChooseAlgorithm
    // therefore only considers it when SelectionContext::zonemap_direct
    // says the engine would traverse a shard's own index in place against
    // a constraint box — exactly where its sub-shard AABB pruning pays —
    // and charges every other candidate the load the traversal skips.
    // per_point covers the rank-sum cut when the index must be built.
    {Algorithm::kZonemap, "Zonemap", "zonemap",
     &ZonemapSkylineCompute, false, true, false, true,
     {4'000, 0, 7, 0.20, 1.12, 0.05, 0.0}},
};

}  // namespace

Result RunOnMaterialized(const RowSource& source, const Options& opts,
                         Result (*compute)(const Dataset&, const Options&)) {
  if (source.identity()) return compute(source.rows(), opts);
  const RowSource::Materialized loaded = [&] {
    Executor::TaskGroup group(opts.ResolvedExecutor(),
                              opts.ResolvedThreads());
    return source.Materialize(group, opts.cancel);
  }();
  Options run = opts;
  if (opts.progressive) {
    run.progressive = [&](std::span<const PointId> rows) {
      std::vector<PointId> ids(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) ids[i] = loaded.ids[rows[i]];
      opts.progressive(ids);
    };
  }
  Result res = compute(loaded.data, run);
  for (PointId& id : res.skyline) id = loaded.ids[id];
  return res;
}

std::span<const AlgorithmDescriptor> AlgorithmTable() { return kTable; }

const AlgorithmDescriptor& GetAlgorithmDescriptor(Algorithm algorithm) {
  for (const AlgorithmDescriptor& desc : kTable) {
    if (desc.algorithm == algorithm) return desc;
  }
  throw std::invalid_argument(
      "no algorithm descriptor: an unresolved kAuto request (or a corrupt "
      "Algorithm value) reached dispatch");
}

std::string AlgorithmNameList() {
  std::string list;
  for (const AlgorithmDescriptor& desc : kTable) {
    list += desc.parse_name;
    list += ", ";
  }
  list += "auto";
  return list;
}

}  // namespace sky
