// Copyright (c) SkyBench-NG contributors.
// Public façade of the library: one entry point dispatching to any of the
// ten implemented skyline algorithms.
//
// Quickstart:
//   sky::Dataset data = sky::GenerateSynthetic(
//       sky::Distribution::kAnticorrelated, 100'000, 8, /*seed=*/42);
//   sky::Options opts;
//   opts.algorithm = sky::Algorithm::kHybrid;
//   opts.threads = 4;
//   sky::Result r = sky::ComputeSkyline(data, opts);
//   // r.skyline holds the Dataset row indices of all skyline points.
#ifndef SKY_CORE_SKYLINE_H_
#define SKY_CORE_SKYLINE_H_

#include "core/options.h"
#include "data/dataset.h"
#include "data/row_source.h"

namespace sky {

/// Compute the skyline of `data` (smaller is better on every dimension)
/// with the algorithm selected in `opts`. Returns original row indices of
/// every non-dominated point — coincident duplicates of a skyline point
/// are all reported, matching Definition 3 of the paper.
Result ComputeSkyline(const Dataset& data, const Options& opts = Options{});

/// The skyline of the rows `source` loads (box-filtered, projected and
/// MAX-negated per its spec), reported as source row indices.
Result ComputeSkyline(const RowSource& source,
                      const Options& opts = Options{});

/// Convenience: verify that `candidate` is exactly SKY(data) by the
/// definition (O(n * |candidate| * d); test/debug use). Returns true on
/// exact agreement with a reference computation.
bool VerifySkyline(const Dataset& data, const std::vector<PointId>& candidate);

}  // namespace sky

#endif  // SKY_CORE_SKYLINE_H_
