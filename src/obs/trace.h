// Copyright (c) SkyBench-NG contributors.
// Opt-in per-query tracing: the engine records one span per pipeline
// stage, attaches the finished tree to the QueryResult, and Render()
// prints it as an indented tree with per-span attributes — the
// query-granular complement to the aggregate registry in obs/metrics.h.
// SkylineEngine::Execute emits a `query` root (dataset, cache, then
// members — or status / truncated / stale — plus executor.* on a shard
// fan-out) over `cache.get` on a hit, else over `plan`, one `shard[i]` per
// executed shard, `merge` for multi-shard plans, and `cache.put` for a
// fresh answer. RunShardedQuery emits the same plan / shard / merge spans;
// RunQuery emits `view.build` (non-identity specs) and `execute`. Stages
// open spans through a TraceScope over a nullable TraceBuilder, so an
// untraced query runs the same code with every trace call a no-op.
// Parallel shard runs stamp timings into their own slots and the
// coordinator backfills their spans, so a TraceBuilder needs no
// synchronisation.
#ifndef SKY_OBS_TRACE_H_
#define SKY_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sky {
namespace obs {

/// One traced stage. `parent` indexes into QueryTrace::spans (-1 = root);
/// times are seconds relative to the trace epoch (TraceBuilder
/// construction).
struct TraceSpan {
  std::string name;
  int parent = -1;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// A finished trace: spans in recording order (parents always precede
/// their children).
struct QueryTrace {
  std::vector<TraceSpan> spans;

  /// Indented tree, one span per line:
  ///   query 1.52ms dataset=hotels
  ///     plan 12.3us shards=2 pruned=2
  ///     shard[0] 512us algo=hybrid dom_tests=52342
  std::string Render() const;
};

/// Human-scaled duration: "840ns", "12.3us", "1.52ms", "2.041s".
std::string FormatSeconds(double seconds);

/// Single-threaded span recorder. Open/Close bracket a stage on the
/// recording thread; AddSpan backfills a span from timings measured
/// elsewhere (the parallel shard executors record wall times into their
/// result slots and the coordinator emits the spans afterwards).
class TraceBuilder {
 public:
  TraceBuilder();

  /// Seconds since the trace epoch.
  double Now() const;

  /// Record a complete span; returns its index for Attr calls.
  int AddSpan(std::string_view name, int parent, double start_seconds,
              double duration_seconds);
  /// Start a span now; Close stamps its duration.
  int Open(std::string_view name, int parent = -1);
  void Close(int span);

  void Attr(int span, std::string_view key, std::string_view value);
  void AttrCount(int span, std::string_view key, uint64_t value);

  /// Hand the trace off (the builder is spent afterwards).
  std::shared_ptr<const QueryTrace> Finish();

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::shared_ptr<QueryTrace> trace_;
};

/// One stage's span over a nullable TraceBuilder: opened on construction,
/// closed on destruction (so an unwinding stage still records how long it
/// ran). With tracing off every call is a no-op that allocates nothing:
/// names and attribute values arrive as string views.
class TraceScope {
 public:
  /// Root span `name` of a fresh trace the scope owns when `enabled`, a
  /// disabled scope otherwise. Finish() hands the trace off.
  static TraceScope Root(bool enabled, std::string_view name) {
    return TraceScope(enabled, name);
  }
  /// Child span `name` of `parent`, opened now.
  TraceScope(const TraceScope& parent, std::string_view name);
  /// Child span backfilled from timings measured elsewhere: "name[index]"
  /// (plain `name` for a negative index) over [start, start + duration].
  TraceScope(const TraceScope& parent, std::string_view name, int64_t index,
             double start_seconds, double duration_seconds);
  ~TraceScope() { Close(); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Seconds since the trace epoch; 0 when tracing is off. Reads only the
  /// immutable epoch and the clock, so worker threads may call it.
  double Now() const { return tb_ != nullptr ? tb_->Now() : 0.0; }

  void Attr(std::string_view key, std::string_view value);
  void AttrCount(std::string_view key, uint64_t value);

  /// Close a root scope and hand off its trace, once every child scope
  /// has closed; nullptr when tracing is off (and for child scopes).
  std::shared_ptr<const QueryTrace> Finish();

 private:
  TraceScope(bool enabled, std::string_view name);
  void Close();  // stamps the duration once

  std::unique_ptr<TraceBuilder> owned_;  ///< root scopes only
  TraceBuilder* tb_ = nullptr;           ///< null = tracing off
  int span_ = -1;
  bool open_ = false;
};

}  // namespace obs
}  // namespace sky

#endif  // SKY_OBS_TRACE_H_
