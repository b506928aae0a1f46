// Copyright (c) SkyBench-NG contributors.
// Zipfian rank generator for spec popularity, after Gray et al., "Quickly
// generating billion-record synthetic databases" (SIGMOD'94): rank r in
// [0, n) is drawn with probability (r + 1)^-theta / zeta(n, theta).
//
// Gray et al.'s closed-form inversion is exact only for the two most
// popular ranks; at theta = 0.99 it over-weights rank 3 by 19% and rank 5
// by 9%, which would skew exactly the hot set a result cache sees. The
// universe here is small (tens of thousands of specs), so the generator
// keeps Gray's zeta normalisation but inverts the exact cumulative
// distribution with a binary search instead.
#ifndef SKY_BENCH_E2E_ZIPF_H_
#define SKY_BENCH_E2E_ZIPF_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace e2e {

class ZipfGenerator {
 public:
  /// `n` >= 1 ranks, skew `theta` >= 0 (0 = uniform).
  ZipfGenerator(uint64_t n, double theta) : theta_(theta), cdf_(n) {
    double acc = 0.0;
    for (uint64_t r = 0; r < n; ++r) {
      acc += std::pow(static_cast<double>(r + 1), -theta);
      cdf_[r] = acc;
    }
    zeta_ = acc;
    for (double& c : cdf_) c /= zeta_;
    cdf_.back() = 1.0;
  }

  /// Next 0-based rank; thread-safe for distinct `rng`s.
  uint64_t Next(sky::Rng& rng) const {
    const double u = rng.NextDouble();
    return static_cast<uint64_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

  /// Exact probability of 0-based rank `r`.
  double Probability(uint64_t r) const {
    return std::pow(static_cast<double>(r + 1), -theta_) / zeta_;
  }

  uint64_t size() const { return cdf_.size(); }

 private:
  double theta_;
  double zeta_ = 0.0;
  std::vector<double> cdf_;  ///< cdf_[r] = P(rank <= r)
};

}  // namespace e2e

#endif  // SKY_BENCH_E2E_ZIPF_H_
