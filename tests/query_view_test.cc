// Copyright (c) SkyBench-NG contributors.
// Rewriter unit tests: the materialized view must reflect negation,
// projection and constraint filtering exactly, with correct row/dim maps.
#include "query/view.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <string>

#include "common/random.h"
#include "gtest/gtest.h"
#include "parallel/executor.h"
#include "test_util.h"

namespace sky::test {
namespace {

Dataset SmallData() {
  return MakeDataset({
      {0.1f, 0.9f, 5.0f},
      {0.4f, 0.5f, 6.0f},
      {0.8f, 0.2f, 7.0f},
      {0.6f, 0.6f, 8.0f},
  });
}

TEST(QueryViewTest, IdentitySpecCopiesEverything) {
  const Dataset data = SmallData();
  const QueryView view = MaterializeView(data, QuerySpec{}.Canonicalize(3));
  ASSERT_EQ(view.data.count(), 4u);
  ASSERT_EQ(view.data.dims(), 3);
  EXPECT_EQ(view.kept_dims, (std::vector<int>{0, 1, 2}));
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(view.row_ids[i], static_cast<PointId>(i));
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(view.data.Row(i)[j], data.Row(i)[j]) << i << "," << j;
    }
  }
}

TEST(QueryViewTest, MaxDimensionsAreNegated) {
  const Dataset data = SmallData();
  QuerySpec spec;
  spec.SetPreference(1, Preference::kMax);
  const QueryView view = MaterializeView(data, spec.Canonicalize(3));
  ASSERT_EQ(view.data.count(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(view.data.Row(i)[0], data.Row(i)[0]);
    EXPECT_EQ(view.data.Row(i)[1], -data.Row(i)[1]);
    EXPECT_EQ(view.data.Row(i)[2], data.Row(i)[2]);
  }
}

TEST(QueryViewTest, IgnoredDimensionsAreDroppedAndMapped) {
  const Dataset data = SmallData();
  QuerySpec spec;
  spec.SetPreference(1, Preference::kIgnore);
  const QueryView view = MaterializeView(data, spec.Canonicalize(3));
  ASSERT_EQ(view.data.dims(), 2);
  EXPECT_EQ(view.kept_dims, (std::vector<int>{0, 2}));
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(view.data.Row(i)[0], data.Row(i)[0]);
    EXPECT_EQ(view.data.Row(i)[1], data.Row(i)[2]);
  }
}

TEST(QueryViewTest, ConstraintsFilterRowsAndKeepOriginalIds) {
  const Dataset data = SmallData();
  QuerySpec spec;
  spec.Constrain(0, 0.3f, 0.7f);  // keeps rows 1 (0.4) and 3 (0.6)
  const QueryView view = MaterializeView(data, spec.Canonicalize(3));
  ASSERT_EQ(view.data.count(), 2u);
  EXPECT_EQ(view.row_ids, (std::vector<PointId>{1, 3}));
  EXPECT_EQ(view.data.Row(0)[0], 0.4f);
  EXPECT_EQ(view.data.Row(1)[0], 0.6f);
}

TEST(QueryViewTest, ConstraintBoundsAreInclusive) {
  const Dataset data = SmallData();
  QuerySpec spec;
  spec.Constrain(0, 0.4f, 0.6f);  // boundary values stay in
  const QueryView view = MaterializeView(data, spec.Canonicalize(3));
  EXPECT_EQ(view.row_ids, (std::vector<PointId>{1, 3}));
}

TEST(QueryViewTest, ConstraintOnIgnoredDimensionStillFilters) {
  const Dataset data = SmallData();
  QuerySpec spec;
  spec.SetPreference(0, Preference::kIgnore);
  spec.Constrain(0, 0.0f, 0.45f);  // filter by a dim we do not rank on
  const QueryView view = MaterializeView(data, spec.Canonicalize(3));
  ASSERT_EQ(view.data.dims(), 2);
  EXPECT_EQ(view.row_ids, (std::vector<PointId>{0, 1}));
}

TEST(QueryViewTest, NanCoordinatesFailConstraints) {
  // Loaded CSVs can contain NaN cells; a NaN can never sit inside a
  // closed interval, so the row must be filtered (matching the oracle).
  const Dataset data = MakeDataset({
      {0.5f, std::nanf("")},
      {0.2f, 0.3f},
  });
  QuerySpec spec;
  spec.Constrain(1, 0.0f, 1.0f);
  const QueryView view = MaterializeView(data, spec.Canonicalize(2));
  EXPECT_EQ(view.row_ids, (std::vector<PointId>{1}));
}

TEST(QueryViewTest, EmptySurvivorSetYieldsEmptyView) {
  const Dataset data = SmallData();
  QuerySpec spec;
  spec.Constrain(2, 100.0f, 200.0f);
  const QueryView view = MaterializeView(data, spec.Canonicalize(3));
  EXPECT_EQ(view.data.count(), 0u);
  EXPECT_TRUE(view.row_ids.empty());
  EXPECT_EQ(view.data.dims(), 3);
}

TEST(QueryViewTest, ViewRowScoreSumsTransformedCoordinates) {
  const Dataset data = SmallData();
  QuerySpec spec;
  spec.SetPreference(1, Preference::kMax);
  const QueryView view = MaterializeView(data, spec.Canonicalize(3));
  // Row 0: 0.1 + (-0.9) + 5.0, accumulated left to right.
  const Value expect = (0.1f + -0.9f) + 5.0f;
  EXPECT_EQ(ViewRowScore(view.data.Row(0), view.data.dims()), expect);
}

TEST(QueryViewTest, PaddingStaysZeroAfterNegation) {
  // Dominance kernels read the full padded stride; negation must not
  // touch the padding lanes.
  const Dataset data = SmallData();
  QuerySpec spec;
  for (int j = 0; j < 3; ++j) spec.SetPreference(j, Preference::kMax);
  const QueryView view = MaterializeView(data, spec.Canonicalize(3));
  for (size_t i = 0; i < view.data.count(); ++i) {
    for (int j = view.data.dims(); j < view.data.stride(); ++j) {
      EXPECT_EQ(view.data.Row(i)[j], 0.0f) << i << "," << j;
    }
  }
}

/// Row-at-a-time reference rewrite, written from the view's definition
/// and sharing no code with the chunked builder: box test per row, then a
/// copy of the kept columns with MAX columns negated.
QueryView ReferenceView(const Dataset& data, const QuerySpec& canon) {
  QueryView view;
  for (int j = 0; j < data.dims(); ++j) {
    if (canon.preferences[static_cast<size_t>(j)] != Preference::kIgnore) {
      view.kept_dims.push_back(j);
    }
  }
  for (size_t i = 0; i < data.count(); ++i) {
    bool inside = true;
    for (const DimConstraint& c : canon.constraints) {
      const Value v = data.Row(i)[c.dim];
      inside = inside && v >= c.lo && v <= c.hi;
    }
    if (inside) view.row_ids.push_back(static_cast<PointId>(i));
  }
  const int dims = static_cast<int>(view.kept_dims.size());
  view.data = Dataset(dims, view.row_ids.size());
  for (size_t w = 0; w < view.row_ids.size(); ++w) {
    for (int j = 0; j < dims; ++j) {
      const int orig = view.kept_dims[static_cast<size_t>(j)];
      const Value v = data.Row(view.row_ids[w])[orig];
      view.data.MutableRow(w)[j] =
          canon.preferences[static_cast<size_t>(orig)] == Preference::kMax
              ? -v
              : v;
    }
  }
  return view;
}

/// Byte-for-byte view equality: every padded row (padding lanes and NaN
/// payloads included), the row-id map and the kept dimensions.
void ExpectSameView(const QueryView& a, const QueryView& b,
                    const std::string& label) {
  ASSERT_EQ(a.data.dims(), b.data.dims()) << label;
  ASSERT_EQ(a.data.stride(), b.data.stride()) << label;
  ASSERT_EQ(a.data.count(), b.data.count()) << label;
  const size_t bytes =
      a.data.count() * static_cast<size_t>(a.data.stride()) * sizeof(Value);
  if (bytes > 0) {
    EXPECT_EQ(std::memcmp(a.data.Row(0), b.data.Row(0), bytes), 0) << label;
  }
  EXPECT_EQ(a.row_ids, b.row_ids) << label;
  EXPECT_EQ(a.kept_dims, b.kept_dims) << label;
}

/// Coordinates drawn mostly from a small grid (so point boxes keep rows
/// and values tie), with a sprinkle of NaN and +/-inf cells.
Dataset GridData(size_t n, int dims, Rng& rng) {
  Dataset data(dims, n);
  for (size_t i = 0; i < n; ++i) {
    for (int j = 0; j < dims; ++j) {
      const uint64_t r = rng.NextBounded(100);
      Value v = static_cast<Value>(rng.NextBounded(8)) / 8.0f;
      if (r == 0) v = std::numeric_limits<Value>::quiet_NaN();
      if (r == 1) v = std::numeric_limits<Value>::infinity();
      if (r == 2) v = -std::numeric_limits<Value>::infinity();
      data.MutableRow(i)[j] = v;
    }
  }
  return data;
}

TEST(QueryViewTest, ParallelBuildMatchesSerialByteForByte) {
  constexpr int kDims = 5;
  constexpr size_t kChunk = kViewChunkRows;
  Executor exec(4);
  Options wide;
  wide.threads = 4;
  wide.executor = &exec;
  Rng rng(20151);
  const std::vector<size_t> sizes = {
      0, 1, 63, 64, 65, kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 17};
  for (const size_t n : sizes) {
    const Dataset data = GridData(n, kDims, rng);
    for (int trial = 0; trial < 12; ++trial) {
      QuerySpec spec;
      for (int j = 0; j < kDims; ++j) {
        spec.SetPreference(j, static_cast<Preference>(rng.NextBounded(3)));
      }
      spec.SetPreference(static_cast<int>(rng.NextBounded(kDims)),
                         Preference::kMin);  // keep one dimension
      // 0-3 boxes: a random grid interval, a zero-width point box, an
      // all-pass box (only NaN / inf cells fail it), a none-pass box, or
      // a half-open box that +inf cells pass.
      const int boxes = trial % 4;
      for (int b = 0; b < boxes; ++b) {
        const int dim = static_cast<int>(rng.NextBounded(kDims));
        const Value a = static_cast<Value>(rng.NextBounded(8)) / 8.0f;
        switch (rng.NextBounded(5)) {
          case 0:
            spec.Constrain(dim, a, a + 0.375f);
            break;
          case 1:
            spec.Constrain(dim, a, a);
            break;
          case 2:
            spec.Constrain(dim, -10.0f, 10.0f);
            break;
          case 3:
            spec.Constrain(dim, 5.0f, 6.0f);
            break;
          default:
            spec.Constrain(dim, a, std::numeric_limits<Value>::infinity());
            break;
        }
      }
      QuerySpec canon;
      try {
        canon = spec.Canonicalize(kDims);
      } catch (const std::exception&) {
        continue;  // two boxes on one dimension intersected to nothing
      }
      const std::string label =
          "n=" + std::to_string(n) + " spec=" + canon.CanonicalKey();
      const QueryView serial = MaterializeView(data, canon);
      const QueryView parallel = MaterializeView(data, canon, wide);
      ExpectSameView(serial, ReferenceView(data, canon), label);
      ExpectSameView(parallel, serial, label);
      EXPECT_EQ(serial.build_threads, 1) << label;
      const size_t chunks = (n + kChunk - 1) / kChunk;
      EXPECT_EQ(parallel.build_threads,
                static_cast<int>(std::clamp<size_t>(chunks, 1, 4)))
          << label;
    }
  }
}

}  // namespace
}  // namespace sky::test
