// Copyright (c) SkyBench-NG contributors.
// Differential and structural coverage for the block zonemap index and
// the BBS-style branch-and-bound skyline (Algorithm::kZonemap): the
// traversal must be row-for-row identical to the brute-force oracle
// across distributions x shard counts/policies x constrained/
// unconstrained x band depths, the index must stay valid across
// block-local mutation repair, pruning decisions must be provably
// justified, and the counting tile kernel is checked against a scalar
// oracle.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/algorithm_registry.h"
#include "core/skyline.h"
#include "core/zonemap_skyline.h"
#include "data/generator.h"
#include "data/realistic.h"
#include "data/sketch.h"
#include "dominance/batch.h"
#include "dominance/dominance.h"
#include "gtest/gtest.h"
#include "index/zonemap.h"
#include "query/cost_model.h"
#include "query/engine.h"
#include "query_test_util.h"
#include "test_util.h"

namespace sky::test {
namespace {

std::vector<OracleEntry> SortedById(std::vector<OracleEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const OracleEntry& a, const OracleEntry& b) {
              return a.id < b.id;
            });
  return entries;
}

std::vector<OracleEntry> SortedEntries(const QueryResult& r) {
  std::vector<OracleEntry> out(r.ids.size());
  for (size_t i = 0; i < r.ids.size(); ++i) {
    out[i] = OracleEntry{r.ids[i], r.dominator_counts[i]};
  }
  std::sort(out.begin(), out.end(),
            [](const OracleEntry& a, const OracleEntry& b) {
              return a.id < b.id;
            });
  return out;
}

Dataset MakeData(const std::string& dist, size_t n, int d, uint64_t seed) {
  if (dist == "house") return GenerateHouseLike(n, seed);
  return GenerateSynthetic(ParseDistribution(dist), n, d, seed);
}

/// The spec grid the zonemap paths must cover: the in-place traversal
/// (band-1 box-only, constrained and unconstrained), the load path
/// (preference flips), the skyband substrate (band_k > 1) and ranked caps.
std::vector<QuerySpec> ZonemapSpecs(int d) {
  std::vector<QuerySpec> specs;
  specs.push_back(QuerySpec{});  // unconstrained traversal

  QuerySpec boxed;
  boxed.Constrain(0, 0.1f, 0.6f);
  specs.push_back(boxed);

  QuerySpec tight;  // selective box on two dims
  tight.Constrain(0, 0.0f, 0.25f).Constrain(d - 1, 0.0f, 0.3f);
  specs.push_back(tight);

  QuerySpec flipped = boxed;  // not box-only: traverses a loaded copy
  flipped.SetPreference(1, Preference::kMax);
  specs.push_back(flipped);

  QuerySpec banded = boxed;  // band_k > 1: ComputeSkyband substrate
  banded.band_k = 3;
  specs.push_back(banded);

  QuerySpec capped = boxed;
  capped.top_k = 9;
  specs.push_back(capped);

  return specs;
}

TEST(ZonemapDifferential, MatchesOracleAcrossTheGrid) {
  Options opts;
  opts.algorithm = Algorithm::kZonemap;
  for (const std::string dist : {"indep", "anti", "corr", "house"}) {
    const Dataset data = MakeData(dist, 450, 5, 17);
    for (const QuerySpec& spec : ZonemapSpecs(data.dims())) {
      const std::vector<OracleEntry> oracle = ReferenceQuery(data, spec);
      const QueryResult one_shot = RunQuery(data, spec, opts);
      const std::string key = dist + " spec=" +
                              spec.Canonicalize(data.dims()).CanonicalKey();
      if (spec.top_k > 0) {
        std::vector<OracleEntry> got(one_shot.ids.size());
        for (size_t i = 0; i < one_shot.ids.size(); ++i) {
          got[i] = OracleEntry{one_shot.ids[i], one_shot.dominator_counts[i]};
        }
        EXPECT_EQ(got, oracle) << key;
      } else {
        EXPECT_EQ(SortedEntries(one_shot), oracle) << key;
      }
      for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
        for (const ShardPolicy policy :
             {ShardPolicy::kRoundRobin, ShardPolicy::kMedianPivot}) {
          if (shards == 1 && policy != ShardPolicy::kRoundRobin) continue;
          SkylineEngine::Config config;
          config.shards = shards;
          config.shard_policy = policy;
          SkylineEngine engine(config);
          engine.RegisterDataset("ds", data.Clone());
          const QueryResult r = engine.Execute("ds", spec, opts);
          EXPECT_EQ(SortedEntries(r), SortedById(oracle))
              << key << " K=" << shards
              << " policy=" << ShardPolicyName(policy);
        }
      }
    }
  }
}

TEST(ZonemapDifferential, BlockRowsSweepMatchesOracle) {
  // Degenerate block sizes (1 row per block, bigger than the dataset)
  // change only the traversal granularity, never the answer or the
  // matched-row count.
  const Dataset data = MakeData("anti", 350, 4, 23);
  QuerySpec boxed;
  boxed.Constrain(0, 0.0f, 0.5f);
  for (const size_t block_rows : {size_t{1}, size_t{7}, size_t{64},
                                  size_t{4096}}) {
    const ZoneMapIndex index = ZoneMapIndex::Build(data, block_rows);
    for (const QuerySpec& spec : {QuerySpec{}, boxed}) {
      const ZonemapRunResult run =
          ZonemapSkylineRun(data, index, spec.constraints, Options{});
      std::vector<OracleEntry> got;
      for (const PointId id : run.skyline) got.push_back(OracleEntry{id, 0});
      size_t inside = 0;
      for (size_t i = 0; i < data.count(); ++i) {
        inside += RowInConstraints(data.Row(i), spec.constraints);
      }
      const std::string key = "block_rows=" + std::to_string(block_rows) +
                              " constrained=" +
                              std::to_string(!spec.constraints.empty());
      EXPECT_EQ(SortedById(got), SortedById(ReferenceQuery(data, spec)))
          << key;
      EXPECT_EQ(run.matched_rows, inside) << key;
    }
  }
}

TEST(ZonemapDifferential, NonFiniteRowsMatchOracle) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Dataset data = MakeDataset({
      {0.10f, 0.20f, 0.30f},
      {nan, 0.05f, 0.10f},    // NaN on an unconstrained dim can pass a box
      {0.05f, nan, 0.10f},
      {-inf, 0.50f, 0.50f},   // -inf dominates every finite first coord
      {0.20f, inf, 0.10f},
      {0.15f, 0.15f, 0.15f},
      {0.90f, 0.90f, 0.90f},
      {0.15f, 0.15f, 0.15f},  // duplicate: coincident points both survive
  });
  QuerySpec boxed;
  boxed.Constrain(1, 0.0f, 0.6f);
  QuerySpec tight;  // NaN on dim 0 passes a box that constrains dim 1 only
  tight.Constrain(1, 0.0f, 0.2f).Constrain(2, 0.0f, 0.2f);
  Options opts;
  opts.algorithm = Algorithm::kZonemap;
  for (const QuerySpec& spec : {QuerySpec{}, boxed, tight}) {
    EXPECT_EQ(SortedEntries(RunQuery(data, spec, opts)),
              ReferenceQuery(data, spec))
        << "constrained=" << !spec.constraints.empty();
  }
  // Irregular rows must be segregated, not silently dropped.
  const ZoneMapIndex index = ZoneMapIndex::Build(data);
  EXPECT_EQ(index.irregular().size(), 4u);
  EXPECT_TRUE(index.Validate(data));
}

TEST(ZoneMapIndexTest, BuildValidatesAcrossBlockSizes) {
  const Dataset data = MakeData("indep", 777, 4, 31);
  for (const size_t block_rows : {size_t{0}, size_t{8}, size_t{50},
                                  size_t{1000}}) {
    const ZoneMapIndex index = ZoneMapIndex::Build(data, block_rows);
    EXPECT_TRUE(index.Validate(data)) << "block_rows=" << block_rows;
    EXPECT_EQ(index.rows(), data.count());
    EXPECT_EQ(index.dims(), data.dims());
    const size_t eff =
        block_rows == 0 ? ZoneMapIndex::kDefaultBlockRows : block_rows;
    EXPECT_EQ(index.block_count(), (data.count() + eff - 1) / eff);
    EXPECT_EQ(index.super_count(),
              (index.block_count() + ZoneMapIndex::kSuperFan - 1) /
                  ZoneMapIndex::kSuperFan);
  }
}

/// data plus `extra` appended (the post-insert dataset).
Dataset Appended(const Dataset& base, const Dataset& extra) {
  std::vector<float> flat;
  flat.reserve((base.count() + extra.count()) *
               static_cast<size_t>(base.dims()));
  for (size_t i = 0; i < base.count(); ++i) {
    flat.insert(flat.end(), base.Row(i), base.Row(i) + base.dims());
  }
  for (size_t i = 0; i < extra.count(); ++i) {
    flat.insert(flat.end(), extra.Row(i), extra.Row(i) + extra.dims());
  }
  return Dataset::FromRowMajor(base.dims(), flat);
}

TEST(ZoneMapIndexTest, AppendRepairValidatesAndMatchesFreshBuild) {
  const Dataset base = MakeData("anti", 300, 4, 7);
  Dataset extra = MakeData("indep", 90, 4, 8);
  const Dataset post = Appended(base, extra);
  const ZoneMapIndex index = ZoneMapIndex::Build(base, 32);
  const ZoneMapIndex repaired = index.WithAppendedRows(post, base.count());
  EXPECT_TRUE(repaired.Validate(post));
  EXPECT_EQ(repaired.rows(), post.count());
  // The repaired index answers exactly like a fresh build.
  const std::vector<PointId> fresh_sky =
      Sorted(ZonemapSkylineRun(post, ZoneMapIndex::Build(post, 32), {},
                               Options{})
                 .skyline);
  EXPECT_EQ(Sorted(ZonemapSkylineRun(post, repaired, {}, Options{}).skyline),
            fresh_sky);
}

TEST(ZoneMapIndexTest, DeleteRepairValidatesAndMatchesFreshBuild) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Dataset base = MakeData("anti", 260, 4, 11);
  std::vector<float> flat;
  for (size_t i = 0; i < base.count(); ++i) {
    flat.insert(flat.end(), base.Row(i), base.Row(i) + base.dims());
  }
  flat.insert(flat.end(), {nan, 0.1f, 0.1f, 0.1f});  // irregular victim
  const Dataset data = Dataset::FromRowMajor(4, flat);

  const std::vector<PointId> drop = {0, 5, 6, 100, 259, 260};
  std::vector<float> kept;
  std::vector<bool> dead(data.count(), false);
  for (const PointId id : drop) dead[id] = true;
  for (size_t i = 0; i < data.count(); ++i) {
    if (!dead[i]) kept.insert(kept.end(), data.Row(i), data.Row(i) + 4);
  }
  const Dataset post = Dataset::FromRowMajor(4, kept);

  const ZoneMapIndex index = ZoneMapIndex::Build(data, 32);
  const ZoneMapIndex repaired = index.WithDeletedRows(post, drop);
  EXPECT_TRUE(repaired.Validate(post));
  EXPECT_EQ(repaired.rows(), post.count());
  const std::vector<PointId> fresh_sky =
      Sorted(ZonemapSkylineRun(post, ZoneMapIndex::Build(post, 32), {},
                               Options{})
                 .skyline);
  EXPECT_EQ(Sorted(ZonemapSkylineRun(post, repaired, {}, Options{}).skyline),
            fresh_sky);
}

TEST(ZonemapTraversal, PrunedBlocksAreProvablyDominated) {
  // Every dominance-pruned block's min corner must be strictly dominated
  // by some returned member — the BBS pruning rule, checked a posteriori
  // (clean data: confirmed members are never retracted).
  const Dataset data = MakeData("indep", 3000, 4, 41);
  const ZoneMapIndex index = ZoneMapIndex::Build(data, 32);
  const ZonemapRunResult r = ZonemapSkylineRun(data, index, {}, Options{});
  EXPECT_EQ(Sorted(std::vector<PointId>(r.skyline)),
            ReferenceSkyline(data));
  EXPECT_EQ(r.blocks_visited + r.blocks_pruned + r.blocks_box_skipped,
            index.block_count());
  EXPECT_EQ(r.blocks_box_skipped, 0u);  // unconstrained
  EXPECT_EQ(r.matched_rows, data.count());
  EXPECT_GT(r.blocks_pruned, 0u);  // 3000 indep rows prune heavily
  EXPECT_EQ(r.pruned_blocks.size(), r.blocks_pruned);
  const int d = data.dims();
  for (const uint32_t b : r.pruned_blocks) {
    const Value* lo = index.block_lo(b);
    bool justified = false;
    for (const PointId id : r.skyline) {
      const Value* m = data.Row(id);
      bool all_le = true, some_lt = false;
      for (int j = 0; j < d; ++j) {
        all_le &= m[j] <= lo[j];
        some_lt |= m[j] < lo[j];
      }
      if (all_le && some_lt) {
        justified = true;
        break;
      }
    }
    EXPECT_TRUE(justified) << "block " << b << " pruned without a witness";
  }
}

TEST(ZonemapTraversal, ConstrainedRunSkipsDisjointBlocksExactly) {
  const Dataset data = MakeData("indep", 4000, 4, 43);
  const ZoneMapIndex index = ZoneMapIndex::Build(data, 64);
  QuerySpec tight;
  tight.Constrain(0, 0.0f, 0.15f).Constrain(1, 0.0f, 0.15f);
  const QuerySpec canon = tight.Canonicalize(data.dims());
  const ZonemapRunResult r =
      ZonemapSkylineRun(data, index, canon.constraints, Options{});
  EXPECT_EQ(r.blocks_visited + r.blocks_pruned + r.blocks_box_skipped,
            index.block_count());
  EXPECT_GT(r.blocks_box_skipped, 0u);  // a 2% box misses most AABBs
  // matched_rows is exact: the brute candidate count.
  size_t expect_matched = 0;
  for (size_t i = 0; i < data.count(); ++i) {
    expect_matched += data.Row(i)[0] <= 0.15f && data.Row(i)[1] <= 0.15f;
  }
  EXPECT_EQ(r.matched_rows, expect_matched);
  EXPECT_EQ(Sorted(std::vector<PointId>(r.skyline)),
            [&] {
              std::vector<PointId> ids;
              for (const OracleEntry& e : ReferenceQuery(data, tight)) {
                ids.push_back(e.id);
              }
              return ids;
            }());
}

TEST(ZonemapTraversal, ProgressiveStreamsExactlyTheSkyline) {
  const Dataset data = MakeData("anti", 1500, 4, 47);
  const ZoneMapIndex index = ZoneMapIndex::Build(data);
  Options opts;
  std::vector<PointId> streamed;
  opts.progressive = [&](std::span<const PointId> ids) {
    streamed.insert(streamed.end(), ids.begin(), ids.end());
  };
  const ZonemapRunResult r = ZonemapSkylineRun(data, index, {}, opts);
  EXPECT_EQ(Sorted(streamed), Sorted(std::vector<PointId>(r.skyline)));

  // A box-passing irregular row can retract a would-be member, so the
  // traversal must not stream at all there. Here {nan, 0.05} dominates
  // both finite rows (NaN contributes neither violation nor strictness),
  // which is exactly why streaming confirmed-finite members would lie.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Dataset noisy = MakeDataset({
      {0.1f, 0.2f},
      {0.2f, 0.1f},
      {nan, 0.05f},
  });
  streamed.clear();
  const ZonemapRunResult nr =
      ZonemapSkylineRun(noisy, ZoneMapIndex::Build(noisy), {}, opts);
  EXPECT_TRUE(streamed.empty());
  EXPECT_EQ(nr.skyline, (std::vector<PointId>{2}));
}

TEST(CountDominatorsKernel, MatchesScalarOracleUnderCaps) {
  const Dataset data = MakeData("indep", 500, 6, 53);
  TileBlock tiles(data.dims(), data.count());
  tiles.AppendRows(data.Row(0), data.stride(), data.count());
  const auto oracle_count = [&](const Value* q, size_t limit) {
    uint32_t c = 0;
    for (size_t i = 0; i < std::min(limit, data.count()); ++i) {
      const Value* p = data.Row(i);
      bool all_le = true, some_lt = false;
      for (int j = 0; j < data.dims(); ++j) {
        all_le &= p[j] <= q[j];
        some_lt |= p[j] < q[j];
      }
      c += all_le && some_lt;
    }
    return c;
  };
  for (const bool simd : {false, true}) {
    const DomCtx dom(data.dims(), data.stride(), simd);
    for (size_t qi = 0; qi < data.count(); qi += 17) {
      const Value* q = data.Row(qi);
      for (const size_t limit : {data.count(), size_t{100}, size_t{3}}) {
        const uint32_t exact = oracle_count(q, limit);
        // A cap above the true count returns the exact count.
        EXPECT_EQ(dom.CountDominators(q, tiles, limit, exact + 1, nullptr),
                  exact)
            << "simd=" << simd << " qi=" << qi << " limit=" << limit;
        // cap == 0 never scans.
        EXPECT_EQ(dom.CountDominators(q, tiles, limit, 0, nullptr), 0u);
        // A reachable cap early-outs at >= cap without exceeding the
        // true count (the last tile's popcount only counts dominators).
        if (exact >= 2) {
          const uint32_t capped =
              dom.CountDominators(q, tiles, limit, 2, nullptr);
          EXPECT_GE(capped, 2u);
          EXPECT_LE(capped, exact);
        }
      }
    }
    const TileBlock empty(data.dims(), 0);
    EXPECT_EQ(dom.CountDominators(data.Row(0), empty, 0, 5, nullptr), 0u);
  }
}

TEST(CountDominatorsKernel, DominanceTestsAreAccounted) {
  const Dataset data = MakeData("anti", 300, 4, 59);
  TileBlock tiles(data.dims(), data.count());
  tiles.AppendRows(data.Row(0), data.stride(), data.count());
  const DomCtx dom(data.dims(), data.stride(), true);
  uint64_t dts = 0;
  dom.CountDominators(data.Row(7), tiles, data.count(), 1'000'000, &dts);
  EXPECT_GT(dts, 0u);
  EXPECT_LE(dts, ((data.count() + kSimdWidth - 1) / kSimdWidth) * kSimdWidth);
}

TEST(ZonemapAutoSelection, DirectGateControlsCandidacy) {
  StatsSketch sk;
  sk.n = 50'000;
  sk.d = 8;
  sk.est_skyline = 2'500.0;
  sk.growth_exponent = 0.6;
  SelectionContext ctx;
  ctx.threads = 4;
  ctx.selectivity = 0.01;  // a 1% box: the traversal's home turf
  EXPECT_NE(ChooseAlgorithm(sk, ctx).algorithm, Algorithm::kZonemap);
  ctx.zonemap_direct = true;
  EXPECT_EQ(ChooseAlgorithm(sk, ctx).algorithm, Algorithm::kZonemap);

  // Without the gate, no sketch anywhere makes zonemap the pick.
  SelectionContext off;
  off.threads = 4;
  for (const double sel : {1.0, 0.1, 0.001}) {
    off.selectivity = sel;
    EXPECT_NE(ChooseAlgorithm(sk, off).algorithm, Algorithm::kZonemap);
  }
}

/// Disarms every failpoint when it goes out of scope, so a failed
/// assertion cannot leave a site armed for later tests.
struct DisarmOnExit {
  ~DisarmOnExit() { FailPoints::Instance().DisarmAll(); }
};

double ZonemapRepairs(const SkylineEngine& engine) {
  return engine.Metrics().Snapshot().Value("sky_zonemap_repairs_total");
}

TEST(ZonemapEngine, UnshardedIndexIsCachedAndRepairedAcrossMutations) {
  // The shard owns its index: registration builds none, the first
  // zonemap query builds it, later queries reuse it, and mutations
  // repair it block-locally. zonemap_build stays armed to throw across
  // the mutations, so any rebuild would fail the query.
  SkylineEngine::Config config;
  config.shards = 1;
  config.result_cache_capacity = 0;  // every Execute reaches the index
  SkylineEngine engine(config);
  const Dataset data = MakeData("anti", 400, 4, 61);
  engine.RegisterDataset("ds", data.Clone());
  const auto shard = [&] { return engine.FindShards("ds")->shard_ptr(0); };
  EXPECT_EQ(shard()->built_zonemap(), nullptr);

  QuerySpec boxed;
  boxed.Constrain(0, 0.0f, 0.7f);
  Options opts;
  opts.algorithm = Algorithm::kZonemap;

  const QueryResult first = engine.Execute("ds", boxed, opts);
  EXPECT_EQ(SortedEntries(first), ReferenceQuery(data, boxed));
  const std::shared_ptr<const ZoneMapIndex> built = shard()->built_zonemap();
  ASSERT_NE(built, nullptr);
  EXPECT_TRUE(built->Validate(shard()->rows()));
  const QueryResult again = engine.Execute("ds", boxed, opts);
  EXPECT_EQ(shard()->built_zonemap(), built);
  EXPECT_EQ(SortedEntries(again), SortedEntries(first));

  DisarmOnExit disarm;
  FailPoints::Instance().Arm("zonemap_build", FailPoints::Mode::kThrow);

  // Insert: the tail block is extended and fresh blocks appended.
  engine.InsertPoints("ds", MakeData("indep", 60, 4, 62));
  const std::shared_ptr<const ZoneMapIndex> inserted = shard()->built_zonemap();
  ASSERT_NE(inserted, nullptr);
  EXPECT_NE(inserted, built);
  EXPECT_EQ(inserted->rows(), 460u);
  EXPECT_TRUE(inserted->Validate(shard()->rows()));
  EXPECT_EQ(ZonemapRepairs(engine), 1.0);
  const QueryResult after_insert = engine.Execute("ds", boxed, opts);
  EXPECT_EQ(after_insert.status, Status::kOk)
      << "repair should avoid a rebuild";
  EXPECT_EQ(SortedEntries(after_insert),
            ReferenceQuery(*engine.Find("ds"), boxed));

  // Delete: same story through WithDeletedRows.
  const std::vector<PointId> drop = {1, 7, 13, 400, 459};
  engine.DeletePoints("ds", drop);
  const std::shared_ptr<const ZoneMapIndex> deleted = shard()->built_zonemap();
  ASSERT_NE(deleted, nullptr);
  EXPECT_EQ(deleted->rows(), 455u);
  EXPECT_TRUE(deleted->Validate(shard()->rows()));
  EXPECT_EQ(ZonemapRepairs(engine), 2.0);
  const QueryResult after_delete = engine.Execute("ds", boxed, opts);
  EXPECT_EQ(after_delete.status, Status::kOk);
  EXPECT_EQ(SortedEntries(after_delete),
            ReferenceQuery(*engine.Find("ds"), boxed));
}

TEST(ZonemapEngine, ShardedIndexesAreRepairedAcrossMutations) {
  // Touched shards get a repaired index, untouched shards keep theirs:
  // an insert shares the untouched Shard itself, a delete remaps its ids
  // and shares its rows and index. zonemap_build throws after the first
  // query, so no shard may rebuild.
  SkylineEngine::Config config;
  config.shards = 3;
  config.result_cache_capacity = 0;
  SkylineEngine engine(config);
  const Dataset data = MakeData("indep", 600, 4, 67);
  engine.RegisterDataset("ds", data.Clone());

  QuerySpec wide;  // covers every shard box: all three execute
  wide.Constrain(0, 0.0f, 1.0f);
  Options opts;
  opts.algorithm = Algorithm::kZonemap;

  const QueryResult first = engine.Execute("ds", wide, opts);
  EXPECT_EQ(first.shards_executed, 3u);
  EXPECT_EQ(SortedEntries(first), ReferenceQuery(data, wide));
  std::shared_ptr<const ShardMap> before = engine.FindShards("ds");
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_NE(before->shard(s).built_zonemap(), nullptr) << "shard " << s;
  }

  DisarmOnExit disarm;
  FailPoints::Instance().Arm("zonemap_build", FailPoints::Mode::kThrow);
  // Checks every shard of the current map against the one before the
  // mutation; returns how many shards now hold a repaired index.
  const auto check_indexes = [&]() -> size_t {
    const std::shared_ptr<const ShardMap> after = engine.FindShards("ds");
    size_t repaired = 0;
    for (size_t s = 0; s < 3; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const Shard& old_shard = before->shard(s);
      const Shard& new_shard = after->shard(s);
      const auto zm = new_shard.built_zonemap();
      if (zm == nullptr) {
        ADD_FAILURE() << "index lost across the mutation";
        continue;
      }
      EXPECT_TRUE(zm->Validate(new_shard.rows()));
      if (new_shard.data == old_shard.data) {
        EXPECT_EQ(zm, old_shard.built_zonemap());
      } else {
        EXPECT_NE(zm, old_shard.built_zonemap());
        ++repaired;
      }
    }
    before = after;
    return repaired;
  };

  engine.InsertPoints("ds", MakeData("anti", 45, 4, 68));
  const size_t inserted = check_indexes();
  EXPECT_GE(inserted, 1u);
  EXPECT_EQ(ZonemapRepairs(engine), static_cast<double>(inserted));
  const QueryResult after = engine.Execute("ds", wide, opts);
  EXPECT_EQ(after.status, Status::kOk)
      << "every touched shard's index should be repaired, not rebuilt";
  EXPECT_EQ(SortedEntries(after), ReferenceQuery(*engine.Find("ds"), wide));

  const std::vector<PointId> drop = {0, 100, 200, 300, 600};
  engine.DeletePoints("ds", drop);
  const size_t deleted = check_indexes();
  EXPECT_GE(deleted, 1u);
  EXPECT_EQ(ZonemapRepairs(engine), static_cast<double>(inserted + deleted));
  const QueryResult after_del = engine.Execute("ds", wide, opts);
  EXPECT_EQ(after_del.status, Status::kOk);
  EXPECT_EQ(SortedEntries(after_del),
            ReferenceQuery(*engine.Find("ds"), wide));
}

TEST(ZonemapEngine, ConcurrentFirstUsesBuildEachShardOnce) {
  // Readers race their first zonemap queries on a fresh 4-shard
  // registration, then keep querying while one writer inserts and
  // deletes. Each answer must match the oracle of a dataset version the
  // reader could have read (between the minor versions seen before and
  // after its query). zonemap_build is armed to delay, which widens the
  // first-use race and counts builds: the four first-generation shards
  // build once each, and every later generation inherits a repaired
  // index, so the count stays at four.
  constexpr int kReaders = 3;
  constexpr int kRounds = 6;
  const Dataset data = MakeData("indep", 2'000, 4, 91);
  std::vector<Dataset> inserts;
  std::vector<std::vector<PointId>> deletes;
  for (int r = 0; r < kRounds; ++r) {
    inserts.push_back(MakeData("anti", 32, 4, 92 + static_cast<uint64_t>(r)));
    const auto id = static_cast<PointId>(r);
    deletes.push_back({5 * id, 700 + 9 * id});
  }
  std::vector<QuerySpec> boxes(3);  // every shard box meets each one
  boxes[0].Constrain(0, 0.0f, 0.5f);
  boxes[1].Constrain(0, 0.2f, 0.9f);
  boxes[2].Constrain(0, 0.0f, 0.7f).Constrain(1, 0.1f, 1.0f);

  // oracle[v][b]: box b's answer at minor version v, replayed serially.
  std::vector<std::vector<std::vector<OracleEntry>>> oracle;
  {
    SkylineEngine replay;
    replay.RegisterDataset("ds", data.Clone());
    const auto record = [&] {
      oracle.emplace_back();
      for (const QuerySpec& box : boxes) {
        oracle.back().push_back(ReferenceQuery(*replay.Find("ds"), box));
      }
    };
    record();
    for (int r = 0; r < kRounds; ++r) {
      replay.InsertPoints("ds", inserts[static_cast<size_t>(r)]);
      record();
      replay.DeletePoints("ds", deletes[static_cast<size_t>(r)]);
      record();
    }
  }

  SkylineEngine::Config config;
  config.shards = 4;
  config.shard_policy = ShardPolicy::kRoundRobin;
  config.result_cache_capacity = 0;  // every query reaches the index
  SkylineEngine engine(config);
  engine.RegisterDataset("ds", data.Clone());
  DisarmOnExit disarm;
  FailPoints::Instance().Arm("zonemap_build", FailPoints::Mode::kDelay,
                             /*probability=*/1.0, /*delay_ms=*/20);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> first_done{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Options opts;
      opts.algorithm = Algorithm::kZonemap;
      opts.threads = 2;
      while (!go.load()) std::this_thread::yield();
      for (size_t q = static_cast<size_t>(t);; ++q) {
        const size_t b = q % boxes.size();
        const uint64_t lo = engine.MinorVersion("ds");
        const QueryResult r = engine.Execute("ds", boxes[b], opts);
        const uint64_t hi = engine.MinorVersion("ds");
        const std::vector<OracleEntry> got = SortedEntries(r);
        bool matched = r.status == Status::kOk && r.shards_executed == 4;
        if (matched) {
          matched = false;
          for (uint64_t v = lo; v <= hi && !matched; ++v) {
            matched = got == SortedById(oracle[v][b]);
          }
        }
        if (!matched) mismatches.fetch_add(1);
        if (q == static_cast<size_t>(t)) first_done.fetch_add(1);
        if (stop.load() && q >= static_cast<size_t>(t) + boxes.size()) break;
      }
    });
  }
  go.store(true);
  while (first_done.load() < kReaders) std::this_thread::yield();
  for (int r = 0; r < kRounds; ++r) {
    engine.InsertPoints("ds", inserts[static_cast<size_t>(r)]);
    engine.DeletePoints("ds", deletes[static_cast<size_t>(r)]);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(FailPoints::Instance().Hits("zonemap_build"), 4u);
  const std::shared_ptr<const ShardMap> map = engine.FindShards("ds");
  for (size_t s = 0; s < map->shard_count(); ++s) {
    const auto zm = map->shard(s).built_zonemap();
    ASSERT_NE(zm, nullptr) << "shard " << s;
    EXPECT_TRUE(zm->Validate(map->shard(s).rows())) << "shard " << s;
  }
}

TEST(ZonemapEngine, ExplicitZonemapMatchesVerifyQueryAtEveryShardCount) {
  // Box-only specs traverse each shard's index in place; projected and
  // MAX specs load their rows first. Either way the answer is exact and a
  // progressive caller is streamed exactly the answer (finite rows: no
  // irregular row holds the stream back).
  const int dims = 4;
  const Dataset data = MakeData("anti", 1'500, dims, 97);
  QuerySpec boxed;
  boxed.Constrain(0, 0.1f, 0.7f).Constrain(2, 0.0f, 0.8f);
  QuerySpec projected;
  projected.Project({0, 2, 3}, dims);
  projected.Constrain(1, 0.2f, 0.9f);
  QuerySpec maxed = boxed;
  maxed.SetPreference(1, Preference::kMax);
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SkylineEngine::Config config;
    config.shards = shards;
    config.shard_policy = ShardPolicy::kMedianPivot;
    config.result_cache_capacity = 0;
    config.executor_threads = 4;
    SkylineEngine engine(config);
    engine.RegisterDataset("ds", data.Clone());
    for (const QuerySpec& spec : {boxed, projected, maxed, QuerySpec{}}) {
      const std::string key =
          "shards=" + std::to_string(shards) + " spec " +
          spec.Canonicalize(dims).CanonicalKey();
      Options opts;
      opts.algorithm = Algorithm::kZonemap;
      opts.threads = 2;
      const QueryResult r = engine.Execute("ds", spec, opts);
      EXPECT_EQ(r.status, Status::kOk) << key;
      EXPECT_TRUE(VerifyQuery(data, spec, r)) << key;

      std::mutex mu;
      std::vector<PointId> streamed;
      opts.progressive = [&](std::span<const PointId> ids) {
        const std::lock_guard<std::mutex> lock(mu);
        streamed.insert(streamed.end(), ids.begin(), ids.end());
      };
      const QueryResult p = engine.Execute("ds", spec, opts);
      EXPECT_TRUE(VerifyQuery(data, spec, p)) << key << " progressive";
      std::vector<PointId> ids = p.ids;
      std::sort(ids.begin(), ids.end());
      std::sort(streamed.begin(), streamed.end());
      EXPECT_EQ(streamed, ids) << key << " progressive";
    }
  }
}

TEST(ZonemapEngine, UnconstrainedRunsReuseTheShardIndex) {
  // An unconstrained kZonemap run traverses each shard's own index, like
  // a constrained one: one build per shard, however many queries follow.
  // Unconstrained runs that do not traverse in place — a k-skyband, a
  // MAX spec traversed after its load — leave the shard index unbuilt.
  SkylineEngine::Config config;
  config.shards = 4;
  config.result_cache_capacity = 0;
  SkylineEngine engine(config);
  const Dataset data = MakeData("indep", 1'000, 4, 99);
  engine.RegisterDataset("ds", data.Clone());
  Options opts;
  opts.algorithm = Algorithm::kZonemap;
  QuerySpec banded;
  banded.band_k = 2;
  QuerySpec maxed;
  maxed.SetPreference(0, Preference::kMax);
  for (const QuerySpec& spec : {banded, maxed}) {
    EXPECT_TRUE(VerifyQuery(data, spec, engine.Execute("ds", spec, opts)));
  }
  const std::shared_ptr<const ShardMap> fresh = engine.FindShards("ds");
  for (size_t s = 0; s < fresh->shard_count(); ++s) {
    EXPECT_EQ(fresh->shard(s).built_zonemap(), nullptr) << "shard " << s;
  }

  DisarmOnExit disarm;
  FailPoints::Instance().Arm("zonemap_build", FailPoints::Mode::kDelay,
                             /*probability=*/1.0, /*delay_ms=*/1);
  QuerySpec boxed;
  boxed.Constrain(0, 0.0f, 1.0f);
  for (const QuerySpec& spec : {QuerySpec{}, QuerySpec{}, boxed}) {
    const QueryResult r = engine.Execute("ds", spec, opts);
    EXPECT_EQ(r.shards_executed, 4u);
    EXPECT_EQ(r.matched_rows, data.count());
    EXPECT_TRUE(VerifyQuery(data, spec, r));
  }
  EXPECT_EQ(FailPoints::Instance().Hits("zonemap_build"), 4u);
  const std::shared_ptr<const ShardMap> map = engine.FindShards("ds");
  for (size_t s = 0; s < map->shard_count(); ++s) {
    EXPECT_NE(map->shard(s).built_zonemap(), nullptr) << "shard " << s;
  }
}

TEST(ZonemapStress, ConcurrentZonemapQueriesAndMutations) {
  // TSan target: zonemap-path queries racing InsertPoints / DeletePoints
  // must stay crash-free and every served result must be internally
  // consistent (ids in range, no duplicates). Exact answers are checked
  // once traffic stops.
  SkylineEngine::Config config;
  config.shards = 2;
  SkylineEngine engine(config);
  const Dataset data = MakeData("indep", 400, 4, 73);
  engine.RegisterDataset("ds", data.Clone());

  QuerySpec boxed;
  boxed.Constrain(0, 0.0f, 0.6f);
  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Options opts;
      opts.algorithm = t % 2 == 0 ? Algorithm::kZonemap : Algorithm::kAuto;
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryResult r = engine.Execute("ds", boxed, opts);
        std::vector<PointId> ids = r.ids;
        std::sort(ids.begin(), ids.end());
        EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int round = 0; round < 15; ++round) {
    engine.InsertPoints("ds", MakeData("anti", 20, 4, 80 + round));
    const std::vector<PointId> drop = {static_cast<PointId>(3 * round),
                                       static_cast<PointId>(3 * round + 1)};
    engine.DeletePoints("ds", drop);
  }
  // Under heavy machine load the mutation rounds can outrun the readers;
  // keep traffic flowing until at least one query landed mid-mutation-era.
  while (served.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(served.load(), 0u);

  Options opts;
  opts.algorithm = Algorithm::kZonemap;
  const QueryResult fin = engine.Execute("ds", boxed, opts);
  EXPECT_EQ(SortedEntries(fin), ReferenceQuery(*engine.Find("ds"), boxed));
}

}  // namespace
}  // namespace sky::test
