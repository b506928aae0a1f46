// Copyright (c) SkyBench-NG contributors.
// ResultCache unit tests with explicit costs: the GreedyDual-Size-
// Frequency victim order (cost, hits, aging, LRU tie-break) under the
// entry cap and the byte budget, TTL expiry and serve-stale reads,
// in-place EditPrefix replacement, the saved-seconds counter, and
// concurrent use.
#include "query/result_cache.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "test_util.h"

namespace sky::test {
namespace {

using Cache = ResultCache<std::string>;
using Ptr = std::shared_ptr<const std::string>;

Ptr Value(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

size_t StringBytes(const std::string& s) { return s.size(); }

/// Whether `key` is resident, read without counting a hit or a miss
/// (EditPrefix visits without touching an entry's priority).
bool Resident(Cache& cache, const std::string& key) {
  bool found = false;
  cache.EditPrefix(key, [&](const std::string& k, const Ptr& v) {
    found = found || k == key;
    return v;
  });
  return found;
}

TEST(ResultCache, ExpensiveEntrySurvivesAStreamOfCheapInserts) {
  Cache cache(4);
  cache.Put("expensive", Value("e"), 1.0);
  for (int i = 0; i < 200; ++i) {
    cache.Put("cheap" + std::to_string(i), Value("c"), 0.001);
  }
  EXPECT_TRUE(Resident(cache, "expensive"));
  EXPECT_EQ(cache.counters().entries, 4u);
  EXPECT_EQ(cache.counters().evictions, 197u);
}

TEST(ResultCache, EqualCostsEvictInLeastRecentlyUsedOrder) {
  // With one cost and at most one hit per entry, H is the clock at the
  // last use plus that cost, and the clock never falls: the order is
  // exactly LRU.
  Cache cache(3);
  cache.Put("a", Value("a"), 1.0);
  cache.Put("b", Value("b"), 1.0);
  cache.Put("c", Value("c"), 1.0);
  ASSERT_NE(cache.Get("a"), nullptr);  // recency: b, c, a
  cache.Put("d", Value("d"), 1.0);
  EXPECT_FALSE(Resident(cache, "b"));
  cache.Put("e", Value("e"), 1.0);
  EXPECT_FALSE(Resident(cache, "c"));
  cache.Put("f", Value("f"), 1.0);
  EXPECT_FALSE(Resident(cache, "a"));
  EXPECT_TRUE(Resident(cache, "d"));
  EXPECT_TRUE(Resident(cache, "e"));
  EXPECT_TRUE(Resident(cache, "f"));
}

TEST(ResultCache, HitsRaiseAnEntrysPriority) {
  Cache cache(2);
  cache.Put("often", Value("o"), 1.0);
  for (int i = 0; i < 3; ++i) ASSERT_NE(cache.Get("often"), nullptr);
  cache.Put("once", Value("n"), 1.0);
  ASSERT_NE(cache.Get("once"), nullptr);  // the more recent of the two
  cache.Put("new", Value("w"), 1.0);
  // LRU would drop "often"; its three hits outrank one.
  EXPECT_TRUE(Resident(cache, "often"));
  EXPECT_FALSE(Resident(cache, "once"));
}

TEST(ResultCache, CheaperThanEverythingResidentIsNotRetained) {
  Cache cache(2);
  cache.Put("a", Value("a"), 2.0);
  cache.Put("b", Value("b"), 3.0);
  cache.Put("cheap", Value("c"), 1.0);
  EXPECT_FALSE(Resident(cache, "cheap"));
  EXPECT_TRUE(Resident(cache, "a"));
  EXPECT_TRUE(Resident(cache, "b"));
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ResultCache, AnExpensiveEntryNeverHitAgainAgesOut) {
  // Each eviction raises the clock to the victim's H, and fresh cheap
  // entries start from the clock, so the clock climbs past the idle
  // expensive entry's fixed H. Two cheap inserts raise it by one here.
  Cache cache(2);
  cache.Put("expensive", Value("e"), 10.0);
  int inserted = 0;
  while (Resident(cache, "expensive") && inserted < 1000) {
    cache.Put("cheap" + std::to_string(inserted++), Value("c"), 1.0);
  }
  EXPECT_FALSE(Resident(cache, "expensive"));
  EXPECT_GE(inserted, 15);
  EXPECT_LE(inserted, 25);
}

TEST(ResultCache, ByteBudgetEvictsInPriorityOrder) {
  Cache cache(128, 30, &StringBytes);
  cache.Put("cost5", Value(std::string(10, 'x')), 5.0);
  cache.Put("cost1", Value(std::string(10, 'x')), 1.0);
  cache.Put("cost2", Value(std::string(10, 'x')), 2.0);
  EXPECT_EQ(cache.counters().bytes, 30u);
  EXPECT_EQ(cache.counters().byte_evictions, 0u);

  cache.Put("cost3", Value(std::string(10, 'x')), 3.0);
  EXPECT_FALSE(Resident(cache, "cost1"));
  // Arrives with the clock at 1 (H = 5); "cost2" (H = 2) is the lowest.
  cache.Put("cost4", Value(std::string(10, 'x')), 4.0);
  EXPECT_FALSE(Resident(cache, "cost2"));
  EXPECT_TRUE(Resident(cache, "cost5"));
  EXPECT_TRUE(Resident(cache, "cost3"));
  EXPECT_TRUE(Resident(cache, "cost4"));
  const Cache::Counters c = cache.counters();
  EXPECT_EQ(c.bytes, 30u);
  EXPECT_EQ(c.byte_evictions, 2u);
  EXPECT_EQ(c.evictions, 2u);
}

TEST(ResultCache, ValueOverTheByteBudgetEvictsNothingElse) {
  Cache cache(128, 30, &StringBytes);
  cache.Put("a", Value(std::string(10, 'x')), 1.0);
  cache.Put("b", Value(std::string(10, 'x')), 1.0);
  cache.Put("huge", Value(std::string(31, 'x')), 100.0);
  EXPECT_FALSE(Resident(cache, "huge"));
  EXPECT_TRUE(Resident(cache, "a"));
  EXPECT_TRUE(Resident(cache, "b"));
  const Cache::Counters c = cache.counters();
  EXPECT_EQ(c.bytes, 20u);
  EXPECT_EQ(c.byte_evictions, 1u);
  EXPECT_EQ(c.evictions, 1u);
}

TEST(ResultCache, RefreshTakesTheNewCostAndKeepsTheHitCount) {
  Cache cache(2);
  cache.Put("a", Value("a1"), 1.0);
  ASSERT_NE(cache.Get("a"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);  // two hits
  cache.Put("a", Value("a2"), 3.0);    // H = 0 + 3 * 2
  cache.Put("b", Value("b"), 5.0);
  cache.Put("c", Value("c"), 5.5);  // "b" (H = 5) is the victim
  EXPECT_EQ(*cache.Get("a"), "a2");
  EXPECT_FALSE(Resident(cache, "b"));
  EXPECT_EQ(cache.counters().entries, 2u);
}

TEST(ResultCache, SavedSecondsSumsTheCostOfEveryHit) {
  Cache cache(4);
  cache.Put("a", Value("a"), 0.5);
  cache.Put("b", Value("b"), 0.25);
  ASSERT_NE(cache.Get("a"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  ASSERT_NE(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.Get("missing"), nullptr);
  const Cache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_DOUBLE_EQ(c.saved_seconds, 1.25);
}

TEST(ResultCache, NonPositiveOrNaNCostRanksAsFree) {
  Cache cache(2);
  cache.Put("nan", Value("n"), std::nan(""));
  cache.Put("neg", Value("m"), -1.0);
  cache.Put("one", Value("o"), 1.0);  // evicts "nan", the older free one
  EXPECT_FALSE(Resident(cache, "nan"));
  ASSERT_NE(cache.Get("neg"), nullptr);
  EXPECT_EQ(cache.counters().saved_seconds, 0.0);
}

TEST(ResultCache, TtlExpiresLazilyOnGet) {
  Cache cache(4, 0, nullptr, /*ttl_seconds=*/0.1);
  cache.Put("a", Value("a"), 1.0);
  ASSERT_NE(cache.Get("a"), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(cache.Get("a"), nullptr);
  const Cache::Counters c = cache.counters();
  EXPECT_EQ(c.ttl_evictions, 1u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.entries, 0u);
  EXPECT_DOUBLE_EQ(c.saved_seconds, 1.0);  // the fresh hit only
}

TEST(ResultCache, GetAllowStaleReturnsAnExpiredEntryUntilRefreshed) {
  Cache cache(4, 0, nullptr, /*ttl_seconds=*/0.1);
  cache.Put("a", Value("old"), 1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  bool expired = false;
  Ptr v = cache.GetAllowStale("a", &expired);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(expired);
  EXPECT_EQ(*v, "old");
  Cache::Counters c = cache.counters();
  EXPECT_EQ(c.stale_hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.entries, 1u);  // kept as the fallback
  EXPECT_EQ(c.saved_seconds, 0.0);

  cache.Put("a", Value("new"), 1.0);  // a refresh restarts the TTL
  v = cache.GetAllowStale("a", &expired);
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(expired);
  EXPECT_EQ(*v, "new");
  c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.entries, 1u);
}

TEST(ResultCache, EditPrefixReplacementKeepsItsPriority) {
  Cache cache(2, 0, &StringBytes);
  cache.Put("ds|a", Value("aa"), 5.0);
  cache.Put("ds|b", Value("bb"), 1.0);
  cache.Put("other|c", Value("cc"), 1.0);  // evicts "ds|b"
  ASSERT_FALSE(Resident(cache, "ds|b"));
  const size_t erased = cache.EditPrefix(
      "ds|", [](const std::string&, const Ptr&) { return Value("replaced"); });
  EXPECT_EQ(erased, 0u);
  EXPECT_EQ(cache.counters().bytes, 8u + 2u);  // re-priced
  // The clock is 1: a fresh cost-1 entry (H = 2) and "other|c" (H = 1)
  // both rank below the replacement's kept H = 5.
  cache.Put("d", Value("dd"), 1.0);
  cache.Put("e", Value("ee"), 1.0);
  EXPECT_TRUE(Resident(cache, "ds|a"));
  EXPECT_EQ(*cache.Get("ds|a"), "replaced");
  EXPECT_DOUBLE_EQ(cache.counters().saved_seconds, 5.0);  // cost kept
}

TEST(ResultCache, EditPrefixAndErasePrefixEraseOnlyTheirPrefix) {
  Cache cache(8, 0, &StringBytes);
  cache.Put("v1|a", Value("a"), 1.0);
  cache.Put("v1|b", Value("b"), 1.0);
  cache.Put("v2|a", Value("c"), 1.0);
  cache.Put("v2|b", Value("d"), 1.0);
  const size_t erased =
      cache.EditPrefix("v1|", [](const std::string& k, const Ptr& v) {
        return k == "v1|a" ? nullptr : v;
      });
  EXPECT_EQ(erased, 1u);
  EXPECT_EQ(cache.ErasePrefix("v2|"), 2u);
  const Cache::Counters c = cache.counters();
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.bytes, 1u);
  EXPECT_EQ(c.evictions, 0u);  // invalidation is not eviction
  EXPECT_TRUE(Resident(cache, "v1|b"));
  // The freed slots take new entries without evicting.
  for (int i = 0; i < 7; ++i) {
    cache.Put("v3|" + std::to_string(i), Value("x"), 1.0);
  }
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(ResultCache, ZeroCapacityCachesNothing) {
  Cache cache(0);
  cache.Put("a", Value("a"), 1.0);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.counters().entries, 0u);
}

TEST(ResultCache, ConcurrentGetPutEditPrefixKeepTheCaps) {
  constexpr size_t kCap = 16;
  constexpr size_t kBudget = 200;
  constexpr int kOps = 4000;
  Cache cache(kCap, kBudget, &StringBytes);
  RunConcurrentClients(4, [&](int client) {
    for (int i = 0; i < kOps; ++i) {
      const std::string prefix = "p" + std::to_string(i % 3) + "|";
      const std::string key = prefix + std::to_string((i * 7 + client) % 40);
      switch ((i + client) % 4) {
        case 0:
        case 1:
          cache.Get(key);
          break;
        case 2:
          cache.Put(key, Value(std::string(1 + i % 20, 'x')),
                    0.001 * static_cast<double>(1 + i % 13));
          break;
        default:
          cache.EditPrefix(prefix, [&](const std::string&, const Ptr& v) {
            if (i % 5 == 0) return Ptr();
            return i % 2 == 0 ? Value(*v) : v;
          });
      }
    }
  });
  const Cache::Counters c = cache.counters();
  EXPECT_LE(c.entries, kCap);
  EXPECT_LE(c.bytes, kBudget);
  EXPECT_EQ(c.hits + c.misses, 4u * kOps / 2);
  // The resident bytes equal the sum over the resident entries.
  size_t bytes = 0;
  size_t entries = 0;
  cache.EditPrefix("", [&](const std::string&, const Ptr& v) {
    bytes += v->size();
    ++entries;
    return v;
  });
  EXPECT_EQ(bytes, c.bytes);
  EXPECT_EQ(entries, c.entries);
}

}  // namespace
}  // namespace sky::test
