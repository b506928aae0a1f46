// Copyright (c) SkyBench-NG contributors.
// Shared helpers for the gtest suite.
#ifndef SKY_TESTS_TEST_UTIL_H_
#define SKY_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <exception>
#include <initializer_list>
#include <mutex>
#include <thread>
#include <vector>

#include "core/options.h"
#include "data/dataset.h"
#include "dominance/dominance.h"
#include "parallel/executor.h"

namespace sky::test {

/// A four-wide executor the parallel suites pass explicitly, so their
/// loops run on real workers whatever the host's width (on a 1-core host
/// the default executor would run every loop inline).
inline Executor& FourWayExecutor() {
  static Executor exec(4);
  return exec;
}

/// Run `client(i)` for each i in [0, k) on its own std::jthread, join
/// them all, then rethrow the first exception a client raised: clients
/// that really race. Executor tasks would not do — the executor may run
/// them one after another (all of them, on a 1-core host).
template <typename Client>
void RunConcurrentClients(int k, const Client& client) {
  std::mutex mu;
  std::exception_ptr first_error;  // guarded by mu
  {
    std::vector<std::jthread> clients;
    clients.reserve(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      clients.emplace_back([&, i] {
        try {
          client(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (first_error == nullptr) first_error = std::current_exception();
        }
      });
    }
  }  // the jthreads join here
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

/// Build a dataset from a nested initializer list of rows.
inline Dataset MakeDataset(std::initializer_list<std::vector<float>> rows) {
  if (rows.size() == 0) return Dataset{};
  const int dims = static_cast<int>(rows.begin()->size());
  std::vector<float> flat;
  flat.reserve(rows.size() * rows.begin()->size());
  for (const auto& row : rows) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return Dataset::FromRowMajor(dims, flat);
}

/// Brute-force O(n^2 d) reference skyline, written from Definition 3 with
/// no shared code paths with any library algorithm (independent oracle).
inline std::vector<PointId> ReferenceSkyline(const Dataset& data) {
  std::vector<PointId> out;
  const int d = data.dims();
  for (size_t i = 0; i < data.count(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < data.count() && !dominated; ++j) {
      if (i == j) continue;
      const Value* p = data.Row(j);
      const Value* q = data.Row(i);
      bool all_le = true, some_lt = false;
      for (int k = 0; k < d; ++k) {
        all_le &= p[k] <= q[k];
        some_lt |= p[k] < q[k];
      }
      dominated = all_le && some_lt;
    }
    if (!dominated) out.push_back(static_cast<PointId>(i));
  }
  return out;
}

/// Sorted copy for order-insensitive comparison.
inline std::vector<PointId> Sorted(std::vector<PointId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace sky::test

#endif  // SKY_TESTS_TEST_UTIL_H_
