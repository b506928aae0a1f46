// Copyright (c) SkyBench-NG contributors.
// Synthetic stand-ins for the paper's real datasets (Table I). The
// originals (NBA, House, Weather) are not redistributable; these
// generators match their cardinality, dimensionality, heavy value
// duplication (the "distinct value condition" fails, which is what
// Table II tests) and approximate skyline fraction.
#ifndef SKY_DATA_REALISTIC_H_
#define SKY_DATA_REALISTIC_H_

#include <cstdint>

#include "data/dataset.h"

namespace sky {

/// NBA-like: 17,264 x 8 player-season stat lines. Quantised box-score
/// style values with many ties; skyline ~10% of input.
Dataset GenerateNbaLike(uint64_t seed = 7);

/// House-like: 127,931 x 6 household expenditure values. Integer dollar
/// amounts (heavy duplication); mildly anticorrelated mixture tuned to a
/// ~4-5% skyline.
Dataset GenerateHouseLike(uint64_t seed = 7);

/// Weather-like: 566,268 x 15 coarsely quantised meteorological readings;
/// skyline ~11% of input.
Dataset GenerateWeatherLike(uint64_t seed = 7);

/// Scaled-down variants (same structure, smaller n) for tests.
Dataset GenerateNbaLike(size_t count, uint64_t seed);
Dataset GenerateHouseLike(size_t count, uint64_t seed);
Dataset GenerateWeatherLike(size_t count, uint64_t seed);

}  // namespace sky

#endif  // SKY_DATA_REALISTIC_H_
