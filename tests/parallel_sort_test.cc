// Copyright (c) SkyBench-NG contributors.
#include "parallel/parallel_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/random.h"
#include "test_util.h"

namespace sky {
namespace {

class ParallelSortTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(ParallelSortTest, MatchesStdSort) {
  const int threads = std::get<0>(GetParam());
  const size_t n = std::get<1>(GetParam());
  Executor::TaskGroup group(test::FourWayExecutor(), threads);
  Rng rng(n * 31 + static_cast<uint64_t>(threads));
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = rng.Next() % 1000;  // many duplicates
  std::vector<uint64_t> expected = v;
  std::sort(expected.begin(), expected.end());
  ParallelSortU64(v, group);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{100},
                                         size_t{1} << 14,
                                         (size_t{1} << 16) + 17)));

TEST(ParallelSort, CustomComparator) {
  Executor::TaskGroup group(test::FourWayExecutor(), 4);
  std::vector<int> v((1 << 15) + 3);
  Rng rng(5);
  for (auto& x : v) x = static_cast<int>(rng.NextBounded(1 << 20));
  std::vector<int> expected = v;
  std::sort(expected.begin(), expected.end(), std::greater<int>());
  ParallelSort(v, group, std::greater<int>());
  EXPECT_EQ(v, expected);
}

TEST(ParallelSort, AlreadySortedAndReversed) {
  Executor::TaskGroup group(test::FourWayExecutor(), 3);
  std::vector<uint64_t> v(1 << 15);
  for (size_t i = 0; i < v.size(); ++i) v[i] = i;
  ParallelSortU64(v, group);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  for (size_t i = 0; i < v.size(); ++i) v[i] = v.size() - i;
  ParallelSortU64(v, group);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

}  // namespace
}  // namespace sky
