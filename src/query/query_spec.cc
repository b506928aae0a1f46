// Copyright (c) SkyBench-NG contributors.
#include "query/query_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace sky {
namespace {

[[noreturn]] void Fail(const std::string& msg) {
  throw std::runtime_error("query spec: " + msg);
}

/// Split on a delimiter, keeping empty fields (they are errors upstream).
std::vector<std::string> Split(const std::string& text, char delim) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (true) {
    const size_t end = text.find(delim, begin);
    parts.push_back(text.substr(begin, end - begin));
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return parts;
}

Value ParseBound(const std::string& text, bool is_lo) {
  if (text.empty() || text == "*") {
    return is_lo ? -std::numeric_limits<Value>::infinity()
                 : std::numeric_limits<Value>::infinity();
  }
  char* end = nullptr;
  const float v = std::strtof(text.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    Fail("bad constraint bound '" + text + "'");
  }
  return v;
}

int ParseDim(const std::string& text) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || v < 0 ||
      v >= kMaxDims) {
    Fail("bad dimension index '" + text + "'");
  }
  return static_cast<int>(v);
}

}  // namespace

const char* PreferenceName(Preference p) {
  switch (p) {
    case Preference::kMin:
      return "min";
    case Preference::kMax:
      return "max";
    case Preference::kIgnore:
      return "ignore";
  }
  return "?";
}

Preference ParsePreference(const std::string& name) {
  if (name == "min" || name == "-") return Preference::kMin;
  if (name == "max" || name == "+") return Preference::kMax;
  if (name == "ignore" || name == "_") return Preference::kIgnore;
  Fail("unknown preference '" + name + "' (want min|max|ignore)");
}

std::vector<Preference> ParsePreferenceList(const std::string& text) {
  std::vector<Preference> prefs;
  for (const std::string& tok : Split(text, ',')) {
    prefs.push_back(ParsePreference(tok));
  }
  return prefs;
}

std::vector<int> ParseIndexList(const std::string& text) {
  std::vector<int> dims;
  for (const std::string& tok : Split(text, ',')) {
    dims.push_back(ParseDim(tok));
  }
  return dims;
}

std::vector<DimConstraint> ParseConstraintList(const std::string& text) {
  std::vector<DimConstraint> out;
  for (const std::string& tok : Split(text, ',')) {
    const std::vector<std::string> parts = Split(tok, ':');
    if (parts.size() != 3) {
      Fail("bad constraint '" + tok + "' (want DIM:LO:HI)");
    }
    DimConstraint c;
    c.dim = ParseDim(parts[0]);
    c.lo = ParseBound(parts[1], /*is_lo=*/true);
    c.hi = ParseBound(parts[2], /*is_lo=*/false);
    out.push_back(c);
  }
  return out;
}

QuerySpec QuerySpec::Canonicalize(int dims) const {
  if (dims < 1 || dims > kMaxDims) Fail("dataset dimensionality out of range");
  QuerySpec canon;
  canon.band_k = band_k;
  canon.top_k = top_k;
  if (band_k == 0) Fail("band_k must be >= 1");

  if (preferences.size() > static_cast<size_t>(dims)) {
    Fail("preference list has " + std::to_string(preferences.size()) +
         " entries for a " + std::to_string(dims) + "-dimensional dataset");
  }
  canon.preferences = preferences;
  canon.preferences.resize(static_cast<size_t>(dims), Preference::kMin);
  if (std::all_of(canon.preferences.begin(), canon.preferences.end(),
                  [](Preference p) { return p == Preference::kIgnore; })) {
    Fail("every dimension is ignored; keep at least one");
  }

  // Intersect constraints per dimension, drop unbounded no-ops.
  std::vector<DimConstraint> merged;
  for (const DimConstraint& c : constraints) {
    if (c.dim < 0 || c.dim >= dims) {
      Fail("constraint dimension " + std::to_string(c.dim) +
           " out of range for d=" + std::to_string(dims));
    }
    if (std::isnan(c.lo) || std::isnan(c.hi)) Fail("NaN constraint bound");
    auto it = std::find_if(
        merged.begin(), merged.end(),
        [&](const DimConstraint& m) { return m.dim == c.dim; });
    if (it == merged.end()) {
      merged.push_back(c);
    } else {
      it->lo = std::max(it->lo, c.lo);
      it->hi = std::min(it->hi, c.hi);
    }
  }
  for (const DimConstraint& c : merged) {
    if (c.lo > c.hi) {
      Fail("empty constraint interval on dimension " + std::to_string(c.dim));
    }
    const bool lo_open = std::isinf(c.lo) && c.lo < 0;
    const bool hi_open = std::isinf(c.hi) && c.hi > 0;
    if (!(lo_open && hi_open)) canon.constraints.push_back(c);
  }
  std::sort(canon.constraints.begin(), canon.constraints.end(),
            [](const DimConstraint& a, const DimConstraint& b) {
              return a.dim < b.dim;
            });
  return canon;
}

std::string QuerySpec::CanonicalKey() const {
  std::string key = "p=";
  for (const Preference p : preferences) {
    key += (p == Preference::kMin ? '-' : p == Preference::kMax ? '+' : '_');
  }
  char buf[96];
  for (const DimConstraint& c : constraints) {
    std::snprintf(buf, sizeof(buf), ";c%d=[%a,%a]", c.dim,
                  static_cast<double>(c.lo), static_cast<double>(c.hi));
    key += buf;
  }
  std::snprintf(buf, sizeof(buf), ";k=%u;t=%zu", band_k, top_k);
  key += buf;
  return key;
}

bool QuerySpec::IsIdentityTransform() const {
  return constraints.empty() &&
         std::all_of(preferences.begin(), preferences.end(),
                     [](Preference p) { return p == Preference::kMin; });
}

bool QuerySpec::IsBoxOnlyTransform() const {
  return std::all_of(preferences.begin(), preferences.end(),
                     [](Preference p) { return p == Preference::kMin; });
}

QuerySpec& QuerySpec::SetPreference(int dim, Preference p) {
  if (dim < 0 || dim >= kMaxDims) Fail("preference dimension out of range");
  if (preferences.size() <= static_cast<size_t>(dim)) {
    preferences.resize(static_cast<size_t>(dim) + 1, Preference::kMin);
  }
  preferences[static_cast<size_t>(dim)] = p;
  return *this;
}

QuerySpec& QuerySpec::Project(const std::vector<int>& dims_to_keep, int dims) {
  if (dims_to_keep.empty()) Fail("projection keeps no dimensions");
  if (preferences.size() < static_cast<size_t>(dims)) {
    preferences.resize(static_cast<size_t>(dims), Preference::kMin);
  }
  std::vector<bool> keep(preferences.size(), false);
  for (const int d : dims_to_keep) {
    if (d < 0 || d >= dims) Fail("projected dimension out of range");
    keep[static_cast<size_t>(d)] = true;
  }
  for (size_t j = 0; j < preferences.size(); ++j) {
    if (!keep[j]) preferences[j] = Preference::kIgnore;
  }
  return *this;
}

QuerySpec& QuerySpec::Constrain(int dim, Value lo, Value hi) {
  constraints.push_back(DimConstraint{dim, lo, hi});
  return *this;
}

}  // namespace sky
