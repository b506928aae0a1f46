// Copyright (c) SkyBench-NG contributors.
// RowSourceLoad: differential suite for the fused box/projection/negation
// load (data/row_source.h). Every load — identity, unconstrained
// transform, constrained row scan and constrained zonemap walk over fresh
// and mutation-repaired indexes, at widths 1 and 4 — must equal
// MaterializeView as a multiset of (source id, view-row bits) on seeded
// data with NaN, +-inf, +-0 and duplicate rows, under 0-3 boxes (empty,
// inverted, on ignored dimensions) and MIN/MAX/IGNORE mixes. The engine,
// whose shard runs load this way, must answer as the brute-force oracle
// at shards {1, 4} x policy {rr, median}.
#include "data/row_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "core/skyline.h"
#include "data/working_set.h"
#include "index/zonemap.h"
#include "query/engine.h"
#include "query/view.h"
#include "test_util.h"

namespace sky {
namespace {

using Entry = std::pair<PointId, std::vector<uint32_t>>;

/// Seeded rows on a coarse grid (duplicates and boundary ties), with -0
/// and — when `specials` — +-inf and (unless `nan` is false) NaN
/// sprinkled in.
Dataset SpikyData(uint64_t seed, size_t n, int dims, bool specials = true,
                  bool nan = true) {
  Rng rng(seed);
  std::vector<float> flat;
  flat.reserve(n * static_cast<size_t>(dims));
  for (size_t i = 0; i < n; ++i) {
    for (int j = 0; j < dims; ++j) {
      const uint64_t r = rng.Next() % 1000;
      float v = static_cast<float>(rng.Next() % 17) / 16.0f;
      if (specials && nan && r == 0) {
        v = std::numeric_limits<float>::quiet_NaN();
      }
      if (specials && r == 1) v = std::numeric_limits<float>::infinity();
      if (specials && r == 2) v = -std::numeric_limits<float>::infinity();
      if (r < 30 && v == 0.0f) v = -0.0f;
      flat.push_back(v);
    }
  }
  // Exact duplicates of earlier rows.
  for (size_t i = 0; i < n / 20; ++i) {
    const size_t src = rng.Next() % n;
    const size_t dst = rng.Next() % n;
    for (int j = 0; j < dims; ++j) {
      flat[dst * dims + j] = flat[src * dims + j];
    }
  }
  return Dataset::FromRowMajor(dims, flat);
}

/// A spec with expanded preferences (at least one kept column) and 0-3
/// raw boxes: ordinary, empty (no row inside), inverted, possibly on
/// ignored dimensions or repeating a dimension.
QuerySpec RandomSpec(Rng& rng, int dims) {
  constexpr Preference kPrefs[] = {Preference::kMax, Preference::kIgnore,
                                   Preference::kMin, Preference::kMin};
  QuerySpec spec;
  for (int j = 0; j < dims; ++j) {
    spec.preferences.push_back(kPrefs[rng.Next() % 4]);
  }
  if (std::all_of(spec.preferences.begin(), spec.preferences.end(),
                  [](Preference p) { return p == Preference::kIgnore; })) {
    spec.preferences[0] = Preference::kMax;
  }
  const size_t boxes = rng.Next() % 4;
  for (size_t b = 0; b < boxes; ++b) {
    DimConstraint c;
    c.dim = static_cast<int>(rng.Next() % static_cast<uint64_t>(dims));
    const float lo = static_cast<float>(rng.Next() % 17) / 16.0f;
    const float hi = static_cast<float>(rng.Next() % 17) / 16.0f;
    switch (rng.Next() % 5) {
      case 0:  // empty: beyond every finite value
        c.lo = 2.0f;
        c.hi = 3.0f;
        break;
      case 1:  // inverted
        c.lo = std::max(lo, hi) + 0.0625f;
        c.hi = std::min(lo, hi);
        break;
      case 2:  // half-open
        c.hi = std::max(lo, hi);
        break;
      default:
        c.lo = std::min(lo, hi);
        c.hi = std::max(lo, hi);
        break;
    }
    spec.constraints.push_back(c);
  }
  return spec;
}

std::vector<Entry> ViewEntries(const QueryView& view) {
  std::vector<Entry> out;
  for (size_t i = 0; i < view.data.count(); ++i) {
    std::vector<uint32_t> bits;
    for (int j = 0; j < view.data.dims(); ++j) {
      bits.push_back(std::bit_cast<uint32_t>(view.data.Row(i)[j]));
    }
    out.emplace_back(view.row_ids[i], std::move(bits));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The load in its own order, and checked for zero row padding.
std::vector<Entry> LoadEntries(const WorkingSet& ws) {
  std::vector<Entry> out;
  for (size_t i = 0; i < ws.count; ++i) {
    std::vector<uint32_t> bits;
    for (int j = 0; j < ws.dims; ++j) {
      bits.push_back(std::bit_cast<uint32_t>(ws.Row(i)[j]));
    }
    for (int j = ws.dims; j < ws.stride; ++j) {
      EXPECT_EQ(std::bit_cast<uint32_t>(ws.Row(i)[j]), 0u) << "padding";
    }
    out.emplace_back(ws.ids[i], std::move(bits));
  }
  return out;
}

std::vector<Entry> Sorted(std::vector<Entry> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(RowSourceLoad, MatchesMaterializeViewOnEveryIndexAndWidth) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    const int dims = 2 + static_cast<int>(seed % 3);
    const Dataset data = SpikyData(seed, 4'000 + 1'500 * seed, dims);
    // Repaired indexes cover the post-mutation rows: `grown` appends the
    // tail of `data` to an index built over its head; `shrunk` deletes
    // every seventh row of `data` from an index built over all of it.
    const size_t head = data.count() - 700;
    std::vector<float> head_flat;
    for (size_t i = 0; i < head; ++i) {
      head_flat.insert(head_flat.end(), data.Row(i), data.Row(i) + dims);
    }
    const ZoneMapIndex fresh = ZoneMapIndex::Build(data);
    const ZoneMapIndex grown =
        ZoneMapIndex::Build(Dataset::FromRowMajor(dims, head_flat))
            .WithAppendedRows(data, head);
    std::vector<PointId> drop;
    std::vector<float> kept_flat;
    for (size_t i = 0; i < data.count(); ++i) {
      if (i % 7 == 3) {
        drop.push_back(static_cast<PointId>(i));
      } else {
        kept_flat.insert(kept_flat.end(), data.Row(i), data.Row(i) + dims);
      }
    }
    const Dataset shrunk_data = Dataset::FromRowMajor(dims, kept_flat);
    const ZoneMapIndex shrunk = fresh.WithDeletedRows(shrunk_data, drop);
    ASSERT_TRUE(grown.Validate(data));
    ASSERT_TRUE(shrunk.Validate(shrunk_data));

    struct Case {
      const char* name;
      const Dataset* rows;
      const ZoneMapIndex* index;
    };
    const Case cases[] = {{"scan", &data, nullptr},
                          {"fresh", &data, &fresh},
                          {"appended", &data, &grown},
                          {"deleted", &shrunk_data, &shrunk}};
    Rng rng(seed * 7919);
    for (int trial = 0; trial < 24; ++trial) {
      const QuerySpec spec = RandomSpec(rng, dims);
      for (const Case& c : cases) {
        const std::vector<Entry> expect =
            ViewEntries(MaterializeView(*c.rows, spec));
        std::vector<Entry> first;
        for (const int width : {1, 4}) {
          SCOPED_TRACE(std::string(c.name) + " seed=" + std::to_string(seed) +
                       " trial=" + std::to_string(trial) +
                       " width=" + std::to_string(width));
          Executor::TaskGroup group(test::FourWayExecutor(), width);
          LoadStats stats;
          const RowSource source(*c.rows, spec, c.index, &stats);
          const std::vector<Entry> got =
              LoadEntries(WorkingSet::Load(source, group));
          EXPECT_EQ(Sorted(got), expect);
          // The load is identical at every width, order included.
          if (first.empty()) first = got;
          EXPECT_EQ(got, first);
          if (source.identity()) continue;
          EXPECT_TRUE(stats.done);
          EXPECT_EQ(stats.rows_in, c.rows->count());
          EXPECT_EQ(stats.rows_loaded, expect.size());
          if (c.index != nullptr && source.constrained()) {
            EXPECT_EQ(stats.blocks, c.index->block_count());
            EXPECT_EQ(stats.blocks_visited + stats.blocks_box_skipped,
                      stats.blocks);
            EXPECT_LE(stats.blocks_inside, stats.blocks_visited);
          } else {
            EXPECT_EQ(stats.blocks, 0u);
          }
          // The Dataset form carries the same rows and ids.
          const RowSource::Materialized m = source.Materialize(group, nullptr);
          QueryView as_view;
          as_view.data = m.data.Clone();
          as_view.row_ids = m.ids;
          EXPECT_EQ(ViewEntries(as_view), expect);
        }
      }
    }
  }
}

TEST(RowSourceLoad, EmitRowMatchesTheView) {
  const Dataset data = SpikyData(9, 500, 4);
  Rng rng(99);
  for (int trial = 0; trial < 16; ++trial) {
    QuerySpec spec = RandomSpec(rng, 4);
    spec.constraints.clear();  // every source row is a view row
    const QueryView view = MaterializeView(data, spec);
    const RowSource source(data, spec);
    std::vector<Value> row(static_cast<size_t>(source.dims()));
    ASSERT_EQ(view.data.count(), data.count());
    for (size_t i = 0; i < data.count(); ++i) {
      source.EmitRow(view.row_ids[i], row.data());
      for (int j = 0; j < source.dims(); ++j) {
        EXPECT_EQ(std::bit_cast<uint32_t>(row[static_cast<size_t>(j)]),
                  std::bit_cast<uint32_t>(view.data.Row(i)[j]));
      }
    }
  }
}

TEST(RowSourceLoad, IdentitySourceIsAStraightCopy) {
  const Dataset data = SpikyData(5, 1'000, 3);
  QuerySpec spec;
  spec.preferences.assign(3, Preference::kMin);
  LoadStats stats;
  const RowSource source(data, spec, nullptr, &stats);
  ASSERT_TRUE(source.identity());
  Executor::TaskGroup group(test::FourWayExecutor(), 4);
  const WorkingSet ws = WorkingSet::Load(source, group);
  ASSERT_EQ(ws.count, data.count());
  for (size_t i = 0; i < ws.count; ++i) {
    EXPECT_EQ(ws.ids[i], i);
    EXPECT_EQ(std::memcmp(ws.Row(i), data.Row(i),
                          sizeof(Value) * static_cast<size_t>(ws.stride)),
              0);
  }
  EXPECT_FALSE(stats.done) << "identity loads report nothing";
}

TEST(RowSourceLoad, CancelledTokenStopsAConstrainedLoad) {
  const Dataset data = SpikyData(6, 20'000, 3);
  const ZoneMapIndex index = ZoneMapIndex::Build(data);
  QuerySpec spec;
  spec.preferences.assign(3, Preference::kMin);
  spec.Constrain(0, 0.0f, 0.5f);
  CancelToken token;
  token.Cancel();
  LoadStats stats;
  Executor::TaskGroup group(test::FourWayExecutor(), 2);
  const ZoneMapIndex* const indexes[] = {&index, nullptr};
  for (const ZoneMapIndex* zm : indexes) {
    const RowSource source(data, spec, zm, &stats);
    EXPECT_THROW(WorkingSet::Load(source, group, &token), CancelledError);
    EXPECT_FALSE(stats.done);
  }
}

TEST(RowSourceLoad, SkylineOfASourceMatchesItsView) {
  // Every registry entry point reports source rows: WorkingSet-backed
  // algorithms through the load, the rest through the materializing
  // adapter. Finite data: the algorithms' answers on non-finite rows
  // depend on their order, which a zonemap walk changes.
  const Dataset data = SpikyData(8, 2'000, 3, /*specials=*/false);
  const ZoneMapIndex index = ZoneMapIndex::Build(data);
  QuerySpec spec;
  spec.preferences = {Preference::kMax, Preference::kMin,
                      Preference::kIgnore};
  spec.Constrain(2, 0.25f, 0.75f);
  const QueryView view = MaterializeView(data, spec);
  std::vector<PointId> expect;
  for (const PointId row : test::ReferenceSkyline(view.data)) {
    expect.push_back(view.row_ids[row]);
  }
  std::sort(expect.begin(), expect.end());
  for (const Algorithm algo :
       {Algorithm::kBnl, Algorithm::kSfs, Algorithm::kSSkyline,
        Algorithm::kPSkyline, Algorithm::kAPSkyline, Algorithm::kQFlow,
        Algorithm::kHybrid, Algorithm::kBSkyTree, Algorithm::kPBSkyTree,
        Algorithm::kZonemap, Algorithm::kAuto}) {
    Options opts;
    opts.algorithm = algo;
    opts.threads = 2;
    opts.executor = &test::FourWayExecutor();
    const RowSource source(data, spec, &index);
    std::vector<PointId> got = ComputeSkyline(source, opts).skyline;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << AlgorithmName(algo);
  }
}

TEST(RowSourceLoad, EngineAnswersMatchTheOracleAtEveryShardLayout) {
  // Rows with +-inf, -0 and duplicates. NaN stays out: the algorithms
  // and VerifyQuery's oracle disagree on NaN rows (an open mismatch; the
  // oracle's `<=` fails every comparison on a NaN).
  const int dims = 4;
  const Dataset data =
      SpikyData(41, 6'000, dims, /*specials=*/true, /*nan=*/false);
  std::vector<QuerySpec> specs;
  QuerySpec boxed;
  boxed.Constrain(0, 0.1f, 0.6f);
  specs.push_back(boxed);
  QuerySpec mixed;
  mixed.SetPreference(1, Preference::kMax);
  mixed.SetPreference(2, Preference::kIgnore);
  mixed.Constrain(2, 0.0f, 0.3f).Constrain(3, 0.25f, 1.0f);
  specs.push_back(mixed);
  QuerySpec band = mixed;
  band.band_k = 3;
  specs.push_back(band);
  QuerySpec ranked = boxed;
  ranked.SetPreference(3, Preference::kMax);
  ranked.top_k = 7;
  specs.push_back(ranked);
  QuerySpec projected;
  projected.Project({0, 3}, dims);
  projected.top_k = 5;
  specs.push_back(projected);

  for (const size_t shards : {size_t{1}, size_t{4}}) {
    for (const ShardPolicy policy :
         {ShardPolicy::kRoundRobin, ShardPolicy::kMedianPivot}) {
      SkylineEngine::Config config;
      config.shards = shards;
      config.shard_policy = policy;
      config.executor_threads = 4;
      SkylineEngine engine(config);
      engine.RegisterDataset("ds", data.Clone());
      for (const QuerySpec& spec : specs) {
        for (const Algorithm algo :
             {Algorithm::kHybrid, Algorithm::kQFlow, Algorithm::kBnl,
              Algorithm::kZonemap, Algorithm::kAuto}) {
          Options opts;
          opts.algorithm = algo;
          opts.threads = 2;
          const QueryResult r = engine.Execute("ds", spec, opts);
          EXPECT_EQ(r.status, Status::kOk);
          EXPECT_TRUE(VerifyQuery(data, spec, r))
              << "shards=" << shards << " policy=" << ShardPolicyName(policy)
              << " algo=" << AlgorithmName(algo) << " spec "
              << spec.Canonicalize(dims).CanonicalKey();
          engine.ClearCache();
        }
      }
    }
  }
}

}  // namespace
}  // namespace sky
