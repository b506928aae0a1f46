// Copyright (c) SkyBench-NG contributors.
// Process-level metrics: named counters, gauges and log-bucketed latency
// histograms behind one MetricsRegistry, built for a serving layer where
// the hot path increments from many threads at once. Counters and
// histograms stripe their state over a small array of cache-line-sized
// atomic cells indexed by a per-thread slot, so concurrent increments
// almost never touch the same line; Snapshot() merges the cells into a
// stable, sorted view the exporters (obs/export.h) render as Prometheus
// text or JSON. Registries are instantiable (SkylineEngine owns one per
// engine) — nothing here is a global singleton.
#ifndef SKY_OBS_METRICS_H_
#define SKY_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sky {
namespace obs {

/// Cells per striped metric (power of two). 16 lines = 1 KiB per counter;
/// more threads than cells only means occasional sharing, never a lost
/// update.
inline constexpr size_t kMetricCells = 16;

/// Stable stripe slot of the calling thread in [0, kMetricCells):
/// threads take consecutive slots in creation order, so up to
/// kMetricCells concurrent threads never share a cell.
size_t ThisThreadCell();

/// Monotonic counter. Add() is wait-free: one relaxed fetch_add on the
/// calling thread's cell. Value() sums the cells — monotone over time,
/// though a sum racing concurrent increments may miss the very latest.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    cells_[ThisThreadCell()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kMetricCells];
};

/// Last-write-wins instantaneous value (cache occupancy, dataset count).
/// Gauges are set at observation points, not summed, so one atomic is
/// enough.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged view of one histogram: cumulative-free per-bucket counts over
/// fixed upper bounds (bucket i holds observations <= bounds[i]; the
/// final bucket is the +inf overflow), plus count and sum.
struct HistogramData {
  std::vector<double> bounds;     ///< ascending finite upper bounds
  std::vector<uint64_t> buckets;  ///< size bounds.size() + 1 (overflow last)
  uint64_t count = 0;
  double sum = 0.0;

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank. Exact to within one bucket width —
  /// the resolution the fixed log bounds were chosen for. Observations
  /// past the last bound clamp to it; an empty histogram reports 0.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram. Observe() touches only the calling thread's
/// cell: one relaxed bucket increment plus a relaxed CAS-add into the
/// cell's sum. Bounds are frozen at construction (log-spaced latency
/// bounds by default), so merging cells is plain addition.
class Histogram {
 public:
  /// `bounds` must be non-empty, finite and strictly ascending.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);
  HistogramData Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Cell {
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::unique_ptr<Cell[]> cells_;
};

/// Default latency bounds: 10 buckets per decade from 100 ns to 100 s
/// (91 bounds), so p50/p90/p99/p999 estimates carry at most ~26% relative
/// bucket-rounding error anywhere in the serving range.
std::vector<double> DefaultLatencyBounds();

/// Label set of one metric, sorted by key at registration. Keys must be
/// Prometheus-legal label names; values are escaped by the exporters.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// One metric's merged value inside a snapshot.
struct MetricValue {
  std::string name;
  Labels labels;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;       ///< counter / gauge payload
  HistogramData histogram;  ///< kHistogram payload
};

/// Stable view of a whole registry, sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* Find(const std::string& name,
                          const Labels& labels = {}) const;
  /// Counter/gauge value under (name, labels); 0 when absent.
  double Value(const std::string& name, const Labels& labels = {}) const;
};

/// Named-metric registry. GetCounter / GetGauge / GetHistogram intern on
/// first use and afterwards return the same pointer, stable for the
/// registry's lifetime — callers resolve once at wire-up time and the hot
/// path never sees the registry mutex. Collectors let subsystems that
/// already keep their own counters (the engine's result cache and
/// executor) contribute values at snapshot time instead of
/// double-counting on the hot path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Intern (or fetch) a metric. `help` sticks from the first caller.
  /// Throws std::runtime_error when (name, labels) is already registered
  /// as a different kind.
  Counter* GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  /// Empty `bounds` selects DefaultLatencyBounds().
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::string& help = "",
                          std::vector<double> bounds = {});

  /// Snapshot-time contributor: appends fully formed MetricValues. Runs
  /// outside the registry mutex, so a collector may call back into the
  /// registry (none of ours do).
  using Collector = std::function<void(std::vector<MetricValue>&)>;
  void AddCollector(Collector fn);

  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::string name;
    Labels labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& Intern(MetricKind kind, const std::string& name,
                const Labels& labels, const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // guarded by mu_; key = id string
  std::vector<Collector> collectors_;     // guarded by mu_
};

}  // namespace obs
}  // namespace sky

#endif  // SKY_OBS_METRICS_H_
