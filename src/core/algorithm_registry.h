// Copyright (c) SkyBench-NG contributors.
// Unified algorithm registry: one descriptor per implemented algorithm —
// entry point, parse/display names, capability flags and the cost
// coefficients the auto-selection cost model (query/cost_model.h)
// evaluates. ComputeSkyline dispatches through this table, the CLI and
// benchmarks enumerate it, and ParseAlgorithm derives its valid-name
// diagnostics from it, so adding an algorithm is a one-row change.
#ifndef SKY_CORE_ALGORITHM_REGISTRY_H_
#define SKY_CORE_ALGORITHM_REGISTRY_H_

#include <span>
#include <string>

#include "core/options.h"
#include "data/row_source.h"

namespace sky {

/// Coefficients of the cost model's per-algorithm runtime estimate (see
/// query/cost_model.cc for the formula). Units are nanoseconds of work;
/// only ratios matter, calibrated to reproduce the paper's Fig. 5/6
/// crossovers (sequential BSkyTree small/low-d, PSkyline mid-range,
/// Q-Flow/Hybrid at scale).
struct CostCoefficients {
  double startup_ns = 0.0;         ///< fixed per-run overhead
  double startup_thread_ns = 0.0;  ///< extra overhead per worker thread
  double per_point_ns = 0.0;       ///< linear work per point per dim
  double per_cmp_ns = 0.0;         ///< work per point x skyline coordinate
  double cmp_dim_growth = 1.0;     ///< per-dim growth of per_cmp past d=4
  double per_sky2_ns = 0.0;        ///< work quadratic in the skyline size
                                   ///< (divide-and-conquer merge phases)
  double parallel_fraction = 0.0;  ///< Amdahl fraction that scales with t
};

struct AlgorithmDescriptor {
  Algorithm algorithm = Algorithm::kBnl;
  const char* name = "";        ///< canonical display name ("BSkyTree-S")
  const char* parse_name = "";  ///< canonical CLI spelling ("bskytree-s")
  /// Runs on the rows a RowSource loads and reports source row ids.
  Result (*compute)(const RowSource&, const Options&) = nullptr;
  bool parallel = false;     ///< uses more than one thread
  bool progressive = false;  ///< honors Options::progressive
  bool skyband = false;      ///< ComputeSkyband reuses its block-flow core
  bool auto_candidate = false;  ///< eligible for kAuto cost selection
  CostCoefficients cost;
};

/// Run `compute`, an algorithm over a plain Dataset, on `source`: an
/// identity source passes its rows straight through; any other is
/// materialized once (on opts' executor and thread budget, polling
/// opts.cancel) and the skyline — and every progressive batch — mapped
/// back to source rows.
Result RunOnMaterialized(const RowSource& source, const Options& opts,
                         Result (*compute)(const Dataset&, const Options&));

/// Every registered algorithm, in Algorithm enum order. kAuto is not a
/// row: it is a request that resolves to one of these.
std::span<const AlgorithmDescriptor> AlgorithmTable();

/// Descriptor lookup. Throws std::invalid_argument for Algorithm::kAuto
/// (an unresolved auto request must never reach dispatch).
const AlgorithmDescriptor& GetAlgorithmDescriptor(Algorithm algorithm);

/// "bnl, sfs, ..., pbskytree, auto" — the ParseAlgorithm diagnostic list.
std::string AlgorithmNameList();

}  // namespace sky

#endif  // SKY_CORE_ALGORITHM_REGISTRY_H_
