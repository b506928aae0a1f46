// Copyright (c) SkyBench-NG contributors.
// Declarative description of a skyline query: per-dimension preference
// direction, subspace projection, box constraints, band depth and an
// optional result cap. A QuerySpec is pure semantics — the rewriter
// (query/view.h) turns it into a materialized view the unmodified
// algorithm suite can run on, and the engine (query/engine.h) uses its
// canonical key to cache results.
#ifndef SKY_QUERY_QUERY_SPEC_H_
#define SKY_QUERY_QUERY_SPEC_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace sky {

/// Direction of preference on one dimension.
enum class Preference : uint8_t {
  kMin,     ///< smaller is better (library default)
  kMax,     ///< larger is better (rewriter negates the column)
  kIgnore,  ///< dimension excluded from dominance (subspace projection)
};

const char* PreferenceName(Preference p);

/// Parse "min" / "max" / "ignore" (or the shorthands "-", "+", "_").
/// Throws std::runtime_error on junk.
Preference ParsePreference(const std::string& name);

/// Closed interval restriction on one original dimension. Constraints
/// filter candidate rows before dominance is evaluated; they apply even to
/// kIgnore dimensions (filter on an attribute without ranking by it).
struct DimConstraint {
  int dim = 0;
  Value lo = -std::numeric_limits<Value>::infinity();
  Value hi = std::numeric_limits<Value>::infinity();
};

/// Closed-interval membership of `row` (original dimensions) in every
/// constraint. A NaN coordinate fails the constraint on its dimension;
/// unconstrained dimensions are not read, so a NaN there passes.
inline bool RowInConstraints(const Value* row,
                             std::span<const DimConstraint> constraints) {
  for (const DimConstraint& c : constraints) {
    const Value v = row[c.dim];
    if (!(v >= c.lo && v <= c.hi)) return false;
  }
  return true;
}

struct QuerySpec {
  /// Per-dimension preference. Dimensions past the end of the list
  /// default to kMin (so an empty list is the native all-min question);
  /// longer than the dataset dimensionality is an error.
  std::vector<Preference> preferences;

  /// Box constraints (intersected per dimension during canonicalization).
  std::vector<DimConstraint> constraints;

  /// Band depth: keep points with fewer than band_k dominators under the
  /// query's dominance relation. 1 = plain skyline.
  uint32_t band_k = 1;

  /// Result cap: when > 0, results are ranked by (dominator count asc,
  /// coordinate-sum score asc, original id asc) and truncated to top_k.
  /// 0 = return every qualifying point, order unspecified.
  size_t top_k = 0;

  /// Validate against a dataset dimensionality and return the normal form:
  /// preferences expanded to `dims` entries, constraints sorted by
  /// dimension, intersected per dimension and stripped of no-op bounds.
  /// Throws std::runtime_error on malformed specs (wrong preference arity,
  /// constraint dimension out of range, empty interval, every dimension
  /// ignored, band_k == 0).
  QuerySpec Canonicalize(int dims) const;

  /// Stable string form of a *canonicalized* spec; equal semantics produce
  /// equal keys (the engine's cache key). Floats are rendered in hex so
  /// the mapping is exact.
  std::string CanonicalKey() const;

  /// True when the canonicalized spec is the library's native question:
  /// minimize everything, no projection, no constraints.
  bool IsIdentityTransform() const;

  /// True when the spec differs from the native question at most by box
  /// constraints: minimize everything, no projection. Such specs can run
  /// on raw rows with the box applied during the scan — a zonemap
  /// traversal exploits this (candidate rows keep original values, so
  /// dominance and scoring match the materialized view bit-for-bit).
  bool IsBoxOnlyTransform() const;

  // -- Builder-style helpers (return *this for chaining) --------------

  /// Set the preference of one dimension, growing the vector as needed.
  QuerySpec& SetPreference(int dim, Preference p);
  /// Keep only `dims_to_keep` (all others become kIgnore). Preferences of
  /// kept dimensions are preserved (kMin if previously unset).
  QuerySpec& Project(const std::vector<int>& dims_to_keep, int dims);
  /// Add a box constraint on one dimension.
  QuerySpec& Constrain(int dim, Value lo, Value hi);
};

/// Parse a comma-separated preference list: "min,max,ignore" or "-,+,_".
std::vector<Preference> ParsePreferenceList(const std::string& text);

/// Parse a comma-separated list of dimension indices: "0,2,5".
std::vector<int> ParseIndexList(const std::string& text);

/// Parse "DIM:LO:HI[,DIM:LO:HI...]"; "*" for an unbounded endpoint.
std::vector<DimConstraint> ParseConstraintList(const std::string& text);

}  // namespace sky

#endif  // SKY_QUERY_QUERY_SPEC_H_
