// Copyright (c) SkyBench-NG contributors.
// Differential suite for SkylineEngine::InsertPoints / DeletePoints: a
// mutated engine must be row-identical — ids, dominator counts, ranking
// — to a fresh engine that registered the surviving rows from scratch,
// across both shard policies, K in {1, 4}, band_k in {1, 3}, constrained
// and unconstrained specs, under cost-model auto-selection. Also covers
// the compact-index id semantics, lazy Find() reconcatenation, minor
// versioning, and the selective cache invalidation matrix.
#include <algorithm>
#include <mutex>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "data/generator.h"
#include "gtest/gtest.h"
#include "index/zonemap.h"
#include "query/delta.h"
#include "query/engine.h"
#include "query_test_util.h"
#include "test_util.h"

namespace sky::test {
namespace {

/// Model of the registered rows as a plain row-major vector — the
/// compact-index semantics made executable: insert appends, delete
/// erases by current index (compacting).
struct RowModel {
  int dims = 0;
  std::vector<std::vector<Value>> rows;

  static RowModel Of(const Dataset& data) {
    RowModel m;
    m.dims = data.dims();
    m.rows.resize(data.count());
    for (size_t i = 0; i < data.count(); ++i) {
      m.rows[i].assign(data.Row(i), data.Row(i) + data.dims());
    }
    return m;
  }

  void Insert(const Dataset& batch) {
    for (size_t i = 0; i < batch.count(); ++i) {
      rows.emplace_back(batch.Row(i), batch.Row(i) + dims);
    }
  }

  void Delete(const std::vector<PointId>& ids) {
    std::vector<PointId> drop = ids;
    std::sort(drop.begin(), drop.end());
    drop.erase(std::unique(drop.begin(), drop.end()), drop.end());
    for (auto it = drop.rbegin(); it != drop.rend(); ++it) {
      rows.erase(rows.begin() + *it);
    }
  }

  Dataset Build() const {
    std::vector<float> flat;
    flat.reserve(rows.size() * static_cast<size_t>(dims));
    for (const auto& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    return rows.empty() ? Dataset(dims, 0) : Dataset::FromRowMajor(dims, flat);
  }
};

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

/// The spec matrix the differential check runs: unconstrained and
/// constrained, band_k 1 and 3, one MAX preference, one ranked spec.
std::vector<QuerySpec> SpecMatrix() {
  std::vector<QuerySpec> specs;
  specs.push_back(QuerySpec{});  // plain skyline
  QuerySpec band;
  band.band_k = 3;
  specs.push_back(band);
  QuerySpec boxed;
  boxed.Constrain(0, 0.2f, 0.9f);
  specs.push_back(boxed);
  QuerySpec boxed_band = boxed;
  boxed_band.band_k = 3;
  specs.push_back(boxed_band);
  QuerySpec mixed;
  mixed.SetPreference(1, Preference::kMax).Constrain(2, 0.1f, 0.8f);
  specs.push_back(mixed);
  QuerySpec ranked;
  ranked.band_k = 2;
  ranked.top_k = 7;
  specs.push_back(ranked);
  return specs;
}

SkylineEngine::Config ConfigFor(size_t shards, ShardPolicy policy) {
  SkylineEngine::Config config;
  config.shards = shards;
  config.shard_policy = policy;
  config.auto_algorithm = true;  // cost model picks per query / per shard
  return config;
}

/// Mutated engine vs from-scratch register of the model rows: every spec
/// in the matrix must agree entry-for-entry (and order-for-order on
/// ranked specs).
void ExpectMatchesScratch(SkylineEngine& engine, const RowModel& model,
                          size_t shards, ShardPolicy policy,
                          const char* where) {
  // An uncached identity band-1 progressive request (every mutation
  // erases unconstrained entries) streams exactly its answer in caller
  // ids: as one block from the maintained skyline of a lone shard, from
  // the merge stage otherwise.
  std::mutex mu;
  std::vector<PointId> streamed;
  Options progressive;
  progressive.progressive = [&](std::span<const PointId> ids) {
    std::lock_guard<std::mutex> lock(mu);
    streamed.insert(streamed.end(), ids.begin(), ids.end());
  };
  const QueryResult live = engine.Execute("ds", QuerySpec{}, progressive);
  EXPECT_FALSE(live.cache_hit) << where;
  EXPECT_EQ(Sorted(streamed), Sorted(live.ids)) << where;
  EXPECT_TRUE(VerifyQuery(model.Build(), QuerySpec{}, live)) << where;

  SkylineEngine scratch(ConfigFor(shards, policy));
  scratch.RegisterDataset("ds", model.Build());
  for (const QuerySpec& spec : SpecMatrix()) {
    const QueryResult got = engine.Execute("ds", spec);
    const QueryResult want = scratch.Execute("ds", spec);
    if (spec.top_k > 0) {
      EXPECT_EQ(got.ids, want.ids) << where;
      EXPECT_EQ(got.dominator_counts, want.dominator_counts) << where;
    } else {
      EXPECT_EQ(SortedEntries(got), SortedEntries(want)) << where;
    }
    EXPECT_EQ(got.matched_rows, want.matched_rows) << where;
    // Belt and braces: both must equal the independent oracle.
    const auto oracle = ReferenceQuery(model.Build(), spec);
    if (spec.top_k > 0) {
      std::vector<OracleEntry> flat(got.ids.size());
      for (size_t i = 0; i < got.ids.size(); ++i) {
        flat[i] = OracleEntry{got.ids[i], got.dominator_counts[i]};
      }
      EXPECT_EQ(flat, oracle) << where;
    } else {
      EXPECT_EQ(SortedEntries(got), oracle) << where;
    }
  }
  // Find() must hand back the surviving rows at their compacted ids,
  // bit-exactly — for sharded mutated datasets this exercises the lazy
  // reconcatenation path.
  const std::shared_ptr<const Dataset> found = engine.Find("ds");
  ASSERT_NE(found, nullptr) << where;
  ASSERT_EQ(found->count(), model.rows.size()) << where;
  for (size_t i = 0; i < model.rows.size(); ++i) {
    for (int j = 0; j < model.dims; ++j) {
      ASSERT_EQ(found->Row(i)[j], model.rows[i][static_cast<size_t>(j)])
          << where << " row " << i << " dim " << j;
    }
  }
}

/// Deterministic id picks biased toward the front (skyline members of
/// anti-correlated data often live at low coordinates, so this reliably
/// deletes skyline members and forces re-promotion).
std::vector<PointId> PickIds(size_t count, size_t want, uint32_t salt) {
  std::vector<PointId> ids;
  std::mt19937 rng(salt);
  for (size_t k = 0; k < want && count > 0; ++k) {
    ids.push_back(static_cast<PointId>(rng() % count));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

class IncrementalMutationSuite
    : public ::testing::TestWithParam<std::tuple<size_t, ShardPolicy>> {};

TEST_P(IncrementalMutationSuite, MutationsMatchFromScratchRegister) {
  const auto [shards, policy] = GetParam();
  // Anti-correlated data keeps the skyline large, so deletes hit skyline
  // members (re-promotion path) and inserts join the skyline regularly.
  const Dataset base =
      GenerateSynthetic(Distribution::kAnticorrelated, 400, 4, 77);
  RowModel model = RowModel::Of(base);

  SkylineEngine engine(ConfigFor(shards, policy));
  engine.RegisterDataset("ds", base.Clone());
  EXPECT_EQ(engine.MinorVersion("ds"), 0u);

  // 1: insert a batch (some rows dominate parts of the current skyline).
  const Dataset batch1 =
      GenerateSynthetic(Distribution::kAnticorrelated, 60, 4, 78);
  model.Insert(batch1);
  EXPECT_EQ(engine.InsertPoints("ds", batch1), 1u);
  ExpectMatchesScratch(engine, model, shards, policy, "after insert 1");

  // 2: delete a spread of ids, including skyline members.
  const std::vector<PointId> drop1 = PickIds(model.rows.size(), 70, 5);
  model.Delete(drop1);
  EXPECT_EQ(engine.DeletePoints("ds", drop1), 2u);
  ExpectMatchesScratch(engine, model, shards, policy, "after delete 1");

  // 3: insert again on the mutated state (routing now uses mutated
  // boxes / loads).
  const Dataset batch2 =
      GenerateSynthetic(Distribution::kCorrelated, 40, 4, 79);
  model.Insert(batch2);
  EXPECT_EQ(engine.InsertPoints("ds", batch2), 3u);
  ExpectMatchesScratch(engine, model, shards, policy, "after insert 2");

  // 4: a heavy delete — past the sketch staleness threshold, so the
  // exact-rebuild path runs too.
  const std::vector<PointId> drop2 = PickIds(model.rows.size(), 200, 6);
  model.Delete(drop2);
  EXPECT_EQ(engine.DeletePoints("ds", drop2), 4u);
  ExpectMatchesScratch(engine, model, shards, policy, "after delete 2");

  EXPECT_EQ(engine.MinorVersion("ds"), 4u);
  // The shard sketches (the planner's selection input) track the rows.
  const std::shared_ptr<const ShardMap> map = engine.FindShards("ds");
  ASSERT_NE(map, nullptr);
  size_t sketched = 0;
  for (size_t s = 0; s < map->shard_count(); ++s) {
    EXPECT_EQ(map->shard(s).sketch.n, map->shard(s).rows().count());
    sketched += map->shard(s).sketch.n;
  }
  EXPECT_EQ(sketched, model.rows.size());
}

TEST_P(IncrementalMutationSuite, DeleteEverythingThenRepopulate) {
  const auto [shards, policy] = GetParam();
  const Dataset base =
      GenerateSynthetic(Distribution::kIndependent, 64, 3, 11);
  RowModel model = RowModel::Of(base);

  SkylineEngine engine(ConfigFor(shards, policy));
  engine.RegisterDataset("ds", base.Clone());

  std::vector<PointId> all(model.rows.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<PointId>(i);
  model.Delete(all);
  engine.DeletePoints("ds", all);
  EXPECT_TRUE(engine.Execute("ds", QuerySpec{}).ids.empty());
  ASSERT_NE(engine.Find("ds"), nullptr);
  EXPECT_EQ(engine.Find("ds")->count(), 0u);

  const Dataset refill =
      GenerateSynthetic(Distribution::kIndependent, 32, 3, 12);
  model.Insert(refill);
  engine.InsertPoints("ds", refill);
  ExpectMatchesScratch(engine, model, shards, policy, "after repopulate");
}

INSTANTIATE_TEST_SUITE_P(
    PolicyAndShardMatrix, IncrementalMutationSuite,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(ShardPolicy::kRoundRobin,
                                         ShardPolicy::kMedianPivot)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, ShardPolicy>>& info) {
      return std::string("K") + std::to_string(std::get<0>(info.param)) +
             "_" + ShardPolicyName(std::get<1>(info.param));
    });

TEST(IncrementalMutationTest, InsertAssignsAppendIdsAndKeepsOldOnesStable) {
  SkylineEngine engine;
  engine.RegisterDataset("ds", MakeDataset({{0.5f, 0.5f}, {0.7f, 0.7f}}));
  engine.InsertPoints("ds", MakeDataset({{0.1f, 0.9f}, {0.9f, 0.1f}}));
  const QueryResult r = engine.Execute("ds", QuerySpec{});
  // (0.7, 0.7) is dominated; the two inserted rows got ids 2 and 3.
  EXPECT_EQ(SortedEntries(r),
            (std::vector<OracleEntry>{{0, 0}, {2, 0}, {3, 0}}));
}

TEST(IncrementalMutationTest, DeleteCompactsSurvivingIds) {
  SkylineEngine engine;
  engine.RegisterDataset("ds", MakeDataset({{0.9f, 0.9f},
                                            {0.1f, 0.8f},
                                            {0.8f, 0.1f},
                                            {0.5f, 0.5f}}));
  // Deleting row 0 shifts every survivor down by one.
  engine.DeletePoints("ds", std::vector<PointId>{0});
  const QueryResult r = engine.Execute("ds", QuerySpec{});
  EXPECT_EQ(SortedEntries(r),
            (std::vector<OracleEntry>{{0, 0}, {1, 0}, {2, 0}}));
}

TEST(IncrementalMutationTest, DeletedSkylineMemberRepromotesCoveredRows) {
  // p dominates q exclusively; deleting p must surface q.
  SkylineEngine engine(ConfigFor(2, ShardPolicy::kRoundRobin));
  engine.RegisterDataset("ds", MakeDataset({{0.2f, 0.2f},    // p (id 0)
                                            {0.3f, 0.3f},    // q (id 1)
                                            {0.1f, 0.9f},    // skyline
                                            {0.9f, 0.1f}}));  // skyline
  EXPECT_EQ(SortedEntries(engine.Execute("ds", QuerySpec{})),
            (std::vector<OracleEntry>{{0, 0}, {2, 0}, {3, 0}}));
  engine.DeletePoints("ds", std::vector<PointId>{0});
  EXPECT_EQ(SortedEntries(engine.Execute("ds", QuerySpec{})),
            (std::vector<OracleEntry>{{0, 0}, {1, 0}, {2, 0}}));
}

TEST(IncrementalMutationTest, EmptiedShardRefillKeepsGlobalIds) {
  // Deleting every row of a shard leaves it with no ids at all; rows
  // later routed into it (round-robin picks the least-loaded shard) must
  // carry their global ids, not their shard-local indices.
  const Dataset base =
      GenerateSynthetic(Distribution::kAnticorrelated, 40, 4, 81);
  RowModel model = RowModel::Of(base);
  SkylineEngine engine(ConfigFor(2, ShardPolicy::kRoundRobin));
  engine.RegisterDataset("ds", base.Clone());
  std::vector<PointId> shard0;  // round-robin: the even ids
  for (PointId id = 0; id < 40; id += 2) shard0.push_back(id);
  model.Delete(shard0);
  engine.DeletePoints("ds", shard0);
  EXPECT_EQ(engine.FindShards("ds")->shard(0).rows().count(), 0u);
  const Dataset refill =
      GenerateSynthetic(Distribution::kAnticorrelated, 12, 4, 82);
  model.Insert(refill);
  engine.InsertPoints("ds", refill);
  EXPECT_EQ(engine.FindShards("ds")->shard(0).rows().count(), 12u);
  ExpectMatchesScratch(engine, model, 2, ShardPolicy::kRoundRobin,
                       "emptied shard refilled");
}

TEST(IncrementalMutationTest, DuplicatePointsSurvivepartnerDeletion) {
  // Coincident rows never dominate each other: deleting one copy must
  // keep the other in the skyline.
  SkylineEngine engine;
  engine.RegisterDataset(
      "ds", MakeDataset({{0.5f, 0.5f}, {0.5f, 0.5f}, {0.9f, 0.9f}}));
  engine.DeletePoints("ds", std::vector<PointId>{0});
  EXPECT_EQ(SortedEntries(engine.Execute("ds", QuerySpec{})),
            (std::vector<OracleEntry>{{0, 0}}));
}

TEST(IncrementalMutationTest, ErrorPaths) {
  SkylineEngine engine;
  engine.RegisterDataset("ds", MakeDataset({{1.0f, 2.0f}}));
  EXPECT_THROW(engine.InsertPoints("nope", MakeDataset({{1.0f, 2.0f}})),
               std::runtime_error);
  EXPECT_THROW(engine.InsertPoints("ds", MakeDataset({{1.0f}})),
               std::runtime_error);
  EXPECT_THROW(
      engine.DeletePoints("nope", std::vector<PointId>{0}),
      std::runtime_error);
  EXPECT_THROW(
      engine.DeletePoints("ds", std::vector<PointId>{7}),
      std::runtime_error);
  // Empty batches are no-ops that do not bump the minor version.
  EXPECT_EQ(engine.InsertPoints("ds", Dataset(2, 0)), 0u);
  EXPECT_EQ(engine.DeletePoints("ds", std::vector<PointId>{}), 0u);
  EXPECT_EQ(engine.MinorVersion("ds"), 0u);
  // Duplicate ids in one batch delete the row once.
  engine.InsertPoints("ds", MakeDataset({{3.0f, 4.0f}}));
  engine.DeletePoints("ds", std::vector<PointId>{1, 1, 1});
  ASSERT_NE(engine.Find("ds"), nullptr);
  EXPECT_EQ(engine.Find("ds")->count(), 1u);
}

// ---- Selective cache invalidation matrix ------------------------------

TEST(IncrementalMutationTest, MutationInvalidatesOverlappingCachedResults) {
  SkylineEngine engine;
  engine.RegisterDataset("ds", MakeDataset({{0.5f, 0.5f}, {0.9f, 0.9f}}));
  EXPECT_FALSE(engine.Execute("ds", QuerySpec{}).cache_hit);
  EXPECT_TRUE(engine.Execute("ds", QuerySpec{}).cache_hit);
  // An unconstrained entry can never be proven unaffected: erased.
  engine.InsertPoints("ds", MakeDataset({{0.1f, 0.1f}}));
  const QueryResult after = engine.Execute("ds", QuerySpec{});
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(SortedEntries(after), (std::vector<OracleEntry>{{2, 0}}));
}

TEST(IncrementalMutationTest, NonIntersectingConstrainedResultSurvives) {
  SkylineEngine engine;
  engine.RegisterDataset(
      "ds", MakeDataset({{0.1f, 0.2f}, {0.2f, 0.1f}, {0.8f, 0.8f}}));
  QuerySpec low;
  low.Constrain(0, 0.0f, 0.4f);
  engine.Execute("ds", low);
  // The insert lands entirely outside [0, 0.4] on dim 0: the cached
  // entry provably cannot change and must still be served.
  engine.InsertPoints("ds", MakeDataset({{0.7f, 0.05f}}));
  EXPECT_TRUE(engine.Execute("ds", low).cache_hit);
  // An intersecting insert erases it.
  engine.InsertPoints("ds", MakeDataset({{0.3f, 0.05f}}));
  EXPECT_FALSE(engine.Execute("ds", low).cache_hit);
}

TEST(IncrementalMutationTest, BulkInsertRoutedToFewShardsStaysExact) {
  // A single large batch concentrated on two shards drives the
  // intra-batch resolution sweep through multi-tile sizes.
  const Dataset base =
      GenerateSynthetic(Distribution::kAnticorrelated, 100, 3, 91);
  RowModel model = RowModel::Of(base);
  SkylineEngine engine(ConfigFor(2, ShardPolicy::kMedianPivot));
  engine.RegisterDataset("ds", base.Clone());
  const Dataset batch =
      GenerateSynthetic(Distribution::kAnticorrelated, 300, 3, 92);
  model.Insert(batch);
  engine.InsertPoints("ds", batch);
  ExpectMatchesScratch(engine, model, 2, ShardPolicy::kMedianPivot,
                       "bulk insert");
}

TEST(IncrementalMutationTest, DuplicateRowsInOneInsertBatchAllSurvive) {
  // Intra-batch resolution must keep coincident rows: neither copy
  // dominates the other, whichever sweep tests them.
  SkylineEngine engine(ConfigFor(2, ShardPolicy::kRoundRobin));
  engine.RegisterDataset("ds", MakeDataset({{0.5f, 0.5f}, {0.6f, 0.6f}}));
  engine.InsertPoints("ds", MakeDataset({{0.1f, 0.1f}, {0.1f, 0.1f}}));
  EXPECT_EQ(SortedEntries(engine.Execute("ds", QuerySpec{})),
            (std::vector<OracleEntry>{{2, 0}, {3, 0}}));
}

TEST(IncrementalMutationTest, ShardZonemapFollowsLocalRowNumbering) {
  // A shard's zonemap index describes its local rows: a repair that
  // changes them repairs a built index block-locally and counts it, an
  // unbuilt index stays unbuilt, and a pure global-id remap shares the
  // index with the shard it copies.
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 600, 3, 41);
  const ShardMap map = ShardMap::Build(data, 2, ShardPolicy::kRoundRobin);
  const Shard& s0 = map.shard(0);
  const Shard& s1 = map.shard(1);
  const Dataset batch =
      GenerateSynthetic(Distribution::kAnticorrelated, 20, 3, 42);
  std::vector<size_t> all_rows(batch.count());
  for (size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
  // Round-robin: shard 0 local rows 0 and 2 are global ids 0 and 4.
  const std::vector<PointId> drop_local = {0, 2};
  std::vector<uint32_t> shift(data.count(), 0);
  for (size_t g = 1; g < shift.size(); ++g) {
    shift[g] = static_cast<uint32_t>((g > 0) + (g > 4));
  }

  RepairStats stats;
  EXPECT_EQ(s0.built_zonemap(), nullptr);  // nothing built at Build
  const auto unbuilt = ShardWithInserts(s0, batch, all_rows,
                                        /*base_global_id=*/600,
                                        /*sketch_seed=*/1, &stats);
  EXPECT_EQ(unbuilt->built_zonemap(), nullptr);
  EXPECT_EQ(stats.zonemap_repairs, 0u);

  const std::shared_ptr<const ZoneMapIndex> zm0 = s0.zonemap();
  ASSERT_NE(zm0, nullptr);
  EXPECT_EQ(s0.zonemap(), zm0);  // built once, then kept
  EXPECT_TRUE(zm0->Validate(s0.rows()));

  const auto inserted = ShardWithInserts(s0, batch, all_rows, 600, 1, &stats);
  const auto ins_zm = inserted->built_zonemap();
  ASSERT_NE(ins_zm, nullptr);
  EXPECT_NE(ins_zm, zm0);
  EXPECT_EQ(ins_zm->rows(), s0.rows().count() + batch.count());
  EXPECT_TRUE(ins_zm->Validate(inserted->rows()));
  EXPECT_EQ(stats.zonemap_repairs, 1u);

  const auto deleted = ShardWithDeletes(s0, drop_local, shift, 1, &stats);
  const auto del_zm = deleted->built_zonemap();
  ASSERT_NE(del_zm, nullptr);
  EXPECT_EQ(del_zm->rows(), s0.rows().count() - drop_local.size());
  EXPECT_TRUE(del_zm->Validate(deleted->rows()));
  EXPECT_EQ(stats.zonemap_repairs, 2u);

  // A remapped copy shares the slot: an index built through either shard
  // afterwards is the other's too.
  const auto remapped = ShardWithRemappedIds(s1, shift);
  EXPECT_EQ(remapped->built_zonemap(), nullptr);
  const std::shared_ptr<const ZoneMapIndex> zm1 = s1.zonemap();
  EXPECT_EQ(remapped->built_zonemap(), zm1);
  EXPECT_TRUE(zm1->Validate(remapped->rows()));
}

TEST(IncrementalMutationTest, AdversarialDatasetNameCannotCorruptPeerCaches) {
  // Cache prefixes are the numeric version alone, so a dataset whose
  // *name* spells another dataset's prefix cannot have its entries
  // remapped or erased by a mutation on that other dataset. Under a
  // name-based "name@version|" prefix, mutating "a" (version 1) would
  // also edit every entry of a dataset literally named "a@1|x".
  SkylineEngine engine;
  engine.RegisterDataset("a", MakeDataset({{0.9f, 0.9f}, {0.5f, 0.5f}}));
  const std::string evil = "a@1|x";
  engine.RegisterDataset(evil, MakeDataset({{0.9f, 0.9f},    // id 0: outside
                                            {0.1f, 0.2f},    // id 1: inside
                                            {0.2f, 0.1f}}));  // id 2: inside
  QuerySpec low;
  low.Constrain(0, 0.0f, 0.4f);
  EXPECT_EQ(Sorted(engine.Execute(evil, low).ids),
            (std::vector<PointId>{1, 2}));
  // Deleting a's row 0 ({0.9, 0.9}) misses evil's constraint box; a
  // shared prefix would remap (corrupt) evil's surviving entry through
  // a's two-row compaction map. It must be served bit-identical instead.
  engine.DeletePoints("a", std::vector<PointId>{0});
  const QueryResult after = engine.Execute(evil, low);
  EXPECT_TRUE(after.cache_hit);
  EXPECT_EQ(Sorted(after.ids), (std::vector<PointId>{1, 2}));
}

TEST(IncrementalMutationTest, SurvivingResultIdsAreRemappedAfterDelete) {
  SkylineEngine engine;
  engine.RegisterDataset("ds", MakeDataset({{0.9f, 0.9f},    // id 0: outside
                                            {0.1f, 0.2f},    // id 1: inside
                                            {0.2f, 0.1f}}));  // id 2: inside
  QuerySpec low;
  low.Constrain(0, 0.0f, 0.4f);
  const QueryResult before = engine.Execute("ds", low);
  EXPECT_EQ(Sorted(before.ids), (std::vector<PointId>{1, 2}));
  // Deleting the outside row keeps the entry alive but shifts the ids.
  engine.DeletePoints("ds", std::vector<PointId>{0});
  const QueryResult after = engine.Execute("ds", low);
  EXPECT_TRUE(after.cache_hit);
  EXPECT_EQ(Sorted(after.ids), (std::vector<PointId>{0, 1}));
}

}  // namespace
}  // namespace sky::test
