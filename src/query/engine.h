// Copyright (c) SkyBench-NG contributors.
// SkylineEngine: the long-lived serving layer on top of the algorithm
// suite. Holds a registry of named datasets, each registered as a
// ShardMap of K >= 1 shards (K = 1 aliases the dataset), and answers
// every fresh QuerySpec through one three-stage plan -> execute -> merge
// pipeline:
//
//   plan     the planner prunes shards whose bounding boxes miss the
//            constraint box, picks the merge strategy and — for
//            Algorithm::kAuto requests — cost-selects an algorithm and
//            thread budget per surviving shard from its StatsSketch,
//   execute  surviving shards run per-shard skylines / k-skybands on the
//            shared executor, each one ComputeSkyline / ComputeSkyband
//            call on the shard's RowSource (a lone survivor gets the
//            whole thread budget and the progressive callback),
//   merge    partial results are combined with the paper's M(S)
//            union-then-filter operator (depth-aware for k-skybands);
//            a lone survivor's answer is final and skips it.
//
// Finished results land in a byte- and entry-capped result cache, the
// engine's one cache, which keeps the results whose recompute costs most
// (query/result_cache.h). No view is materialized: every shard run hands
// its algorithm a RowSource (data/row_source.h) whose load applies the
// box, projection and negation while making the run's working copy; a
// zonemap traversal of a box-only spec reads the shard rows in place
// instead. Each shard owns its zonemap index, built on first use — by a
// constrained load or a zonemap run — and repaired by mutations
// (query/delta.h).
// All public methods are safe to call concurrently from many threads.
#ifndef SKY_QUERY_ENGINE_H_
#define SKY_QUERY_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/options.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "query/delta.h"
#include "query/planner.h"
#include "query/query_spec.h"
#include "query/result_cache.h"
#include "query/shard_map.h"
#include "query/view.h"

namespace sky {

/// Result of one query: original-dataset row ids plus per-id dominator
/// counts under the query's dominance relation (all zero when band_k == 1).
struct QueryResult {
  /// Terminal outcome of the request (common/cancel.h). kOk results carry
  /// the exact answer (possibly `stale`); kDeadlineExceeded may carry a
  /// `truncated` progressive prefix; kOverloaded / kCancelled /
  /// kInternalError carry no rows. Unknown datasets and invalid specs
  /// still throw as before — statuses cover runtime outcomes only:
  /// deadlines, cancellation, load shedding, contained worker failures.
  Status status = Status::kOk;
  /// `ids` is a confirmed-but-incomplete progressive prefix cut off by a
  /// deadline: every id is a true member of the answer, some members are
  /// missing, and neither top-k ranking nor dominator counts were
  /// applied. Truncated results are never cached.
  bool truncated = false;
  /// Served from a TTL-expired result-cache entry under
  /// Config::serve_stale — the member set may predate recent mutations.
  /// Stale results are re-served as-is, never re-cached.
  bool stale = false;
  std::vector<PointId> ids;
  std::vector<uint32_t> dominator_counts;  ///< parallel to `ids`
  size_t matched_rows = 0;  ///< rows inside the constraint box
  bool cache_hit = false;   ///< true when served from the result cache
  uint32_t shards_executed = 1;  ///< shards the plan actually ran
  uint32_t shards_pruned = 0;    ///< shards skipped by box intersection
  /// Algorithm each executed shard ran — under kAuto, the cost model's
  /// per-shard picks. Like `stats`, a cache hit reports the run that
  /// produced the entry. Empty when every shard was pruned. band_k > 1
  /// reports the selection even though ComputeSkyband's block flow
  /// ignores it.
  std::vector<Algorithm> shard_algorithms;
  RunStats stats;           ///< stats of the run that produced the entry
  /// Constraint box of the canonical spec that produced this result —
  /// the mutation path's invalidation key: a cached result survives a
  /// mutation iff its box provably excludes every mutated row.
  std::vector<DimConstraint> constraints;
  /// Per-query span tree, present iff Options::trace was set — on every
  /// outcome, shed and aborted queries included (obs/trace.h; render with
  /// trace->Render()). Never stored in the result cache — a cache hit
  /// carries a fresh two-span hit trace, not the producer's.
  std::shared_ptr<const obs::QueryTrace> trace;
};

/// Payload bytes of a result for the cache's byte budget.
size_t QueryResultBytes(const QueryResult& r);

/// Top-k rank score of a view-space row: ViewRowScore, with NaN (possible
/// in loaded CSV data) mapped to +inf so it sorts last and std::sort keeps
/// a strict weak ordering.
Value RankScore(const Value* view_row, int dims);

/// Rank r's entries by (dominator count asc, rank score asc, original id
/// asc) and truncate to top_k; `scores` is parallel to r.ids. The engine
/// and the one-shot RunQuery path share it, so both rank identically.
void RankAndTruncate(QueryResult& r, size_t top_k,
                     const std::vector<Value>& scores);

/// One-shot, uncached execution of `spec` against `data` with the
/// algorithm/threads/alpha selection in `opts` (band_k > 1 routes to
/// ComputeSkyband, which ignores the algorithm field): canonicalize,
/// materialize the view (MaterializeView), compute, map ids back, apply
/// the top-k cap. Deliberately not routed through the planner or the
/// engine's RowSource loads, so tests and the benchmark's correctness
/// gate can use it as an oracle for the engine's plan path. Throws
/// std::runtime_error on invalid specs. Defined in query/run_query.cc.
QueryResult RunQuery(const Dataset& data, const QuerySpec& spec,
                     const Options& opts = Options{});

/// One-shot, uncached execution of the engine's plan path: plan against
/// `map`, run the surviving shards at the plan's thread budget, merge
/// with M(S). Row-for-row identical to RunQuery on the unsharded
/// dataset. Exposed for tests and benchmarks; serving traffic goes
/// through SkylineEngine::Execute.
QueryResult RunShardedQuery(const ShardMap& map, const QuerySpec& spec,
                            const Options& opts = Options{});

/// Brute-force check of `r` on the MaterializeView view of `spec`:
/// compare id sets (and dominator counts, and top-k order) against
/// dominator counts taken by definition. O(view^2); test and --verify
/// use. Defined in query/run_query.cc.
bool VerifyQuery(const Dataset& data, const QuerySpec& spec,
                 const QueryResult& r);

class SkylineEngine {
 public:
  struct Config {
    /// Max finished results kept in the result cache (0 disables
    /// caching). Past it the cache evicts the entry whose recorded
    /// compute time, weighted by its hits and aged by a rising clock, is
    /// lowest (GreedyDual-Size-Frequency, query/result_cache.h).
    size_t result_cache_capacity = 128;
    /// Byte budget over cached result payloads (QueryResultBytes); 0
    /// disables the byte cap. Once exceeded, evicts in the same priority
    /// order as the entry cap.
    size_t result_cache_bytes = 0;
    /// TTL over cached results in seconds (0 = never expire). Entries
    /// older than this are lazily expired on Get (ttl_evictions
    /// counter) — for refresh-heavy workloads where stale answers are
    /// worse than recomputes.
    double result_cache_ttl = 0.0;
    /// Shards per registered dataset. 1 registers a single shard that
    /// aliases the dataset — no row copy, same plan/execute path.
    size_t shards = 1;
    /// Row-to-shard assignment policy used at registration.
    ShardPolicy shard_policy = ShardPolicy::kRoundRobin;
    /// Serving-wide auto-selection: when true, Execute treats every
    /// request as Algorithm::kAuto, letting the cost model pick per
    /// query and per shard regardless of the caller's Options.
    bool auto_algorithm = false;
    /// Feed the engine's metrics registry: Execute records every query
    /// series at the one outcome point all its exits (hit, shed, aborted,
    /// fresh) return through, and the mutation driver every mutation
    /// series at its own. Off skips both — the measured-overhead baseline
    /// of bench/perf_smoke's metrics pair. The result cache's and the
    /// executor's own counters are maintained regardless.
    bool metrics = true;
    /// Width of the engine's shared work-stealing executor
    /// (parallel/executor.h): every query, mutation repair, and
    /// intra-shard algorithm phase runs as capped task groups on this one
    /// worker set, so N concurrent requests never spawn N×threads OS
    /// threads. 0 = Executor::DefaultThreads(); 1 = fully inline (no
    /// worker threads at all). Options::threads / the planner's
    /// shard_threads budget become per-query concurrency limits against
    /// this width.
    int executor_threads = 0;
    /// Admission control: max queries computing concurrently. 0 =
    /// unlimited. Cache hits are always served; a fresh compute over the
    /// cap is shed immediately with Status::kOverloaded (or answered
    /// stale under `serve_stale`). Mutations are not admission-gated.
    int max_inflight = 0;
    /// Degraded answers instead of failures: a shed or deadline-exceeded
    /// query with a TTL-expired result-cache entry for its exact key is
    /// answered from that entry, marked QueryResult::stale. Requires
    /// result_cache_ttl > 0 to ever trigger (unexpired entries are plain
    /// hits). Expired entries are then kept for fallback rather than
    /// lazily erased; a successful recompute refreshes them in place.
    bool serve_stale = false;
  };

  SkylineEngine();  // default Config
  explicit SkylineEngine(Config config);

  SkylineEngine(const SkylineEngine&) = delete;
  SkylineEngine& operator=(const SkylineEngine&) = delete;

  /// Register (or replace) a dataset under `name`, sharding it per the
  /// engine Config. Replacement bumps the version, so cached results of
  /// the old generation can never be served for the new data. Returns the
  /// registered version.
  uint64_t RegisterDataset(const std::string& name, Dataset data);

  /// Same, with an explicit shard count / policy overriding the Config.
  uint64_t RegisterDataset(const std::string& name, Dataset data,
                           size_t shards, ShardPolicy policy);

  /// Drop `name` from the registry and purge its result-cache entries.
  /// In-flight queries holding the dataset finish safely (shared
  /// ownership). Returns false if absent.
  bool EvictDataset(const std::string& name);

  // ---- Incremental mutation ------------------------------------------
  //
  // Point-level updates without a re-register: each mutated row is
  // routed to its shard and only that shard's skyline, SoA mirror, and
  // sketch are repaired (query/delta.h); the M(S) merge makes shard-
  // local repair sufficient for the global answer. Row ids are compact
  // indices: InsertPoints appends (existing ids stable, new rows get ids
  // old_count..old_count+k-1); DeletePoints compacts (a surviving id
  // shifts down by the number of deleted ids below it) — after any
  // mutation the registered state is row-identical to a fresh
  // registration of the surviving rows. Each mutation bumps a per-
  // dataset minor version and *selectively* invalidates cached results:
  // those whose constraint box excludes every mutated row survive —
  // deletes remap their ids in place — and the rest are erased. Touched
  // shards carry a block-locally repaired zonemap index when the old one
  // was built. Mutations serialize with each other; queries never block.

  /// Append every row of `rows` (dims must match). Returns the new minor
  /// version. Throws std::runtime_error on unknown name or dims
  /// mismatch.
  uint64_t InsertPoints(const std::string& name, const Dataset& rows);

  /// Delete the rows with the given current ids (duplicates tolerated).
  /// Returns the new minor version. Throws std::runtime_error on unknown
  /// name or an out-of-range id.
  uint64_t DeletePoints(const std::string& name, std::span<const PointId> ids);

  /// Minor version of a registered dataset (0 = never mutated; also 0 if
  /// absent). Bumped by every InsertPoints / DeletePoints batch.
  uint64_t MinorVersion(const std::string& name) const;

  /// Look up a registered dataset (nullptr if absent).
  std::shared_ptr<const Dataset> Find(const std::string& name) const;

  /// Shard decomposition of a registered dataset — never null for a
  /// registered name (one shard when registered unsharded); nullptr if
  /// absent. Each shard's sketch is the cost model's selection input.
  std::shared_ptr<const ShardMap> FindShards(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> DatasetNames() const;

  /// Execute `spec` against the dataset registered under `name`,
  /// consulting the result cache first. Safe for concurrent callers; two
  /// racing misses on the same key may both compute (last insert wins —
  /// both results are correct). On multi-shard plans a progressive
  /// callback fires during the merge stage (once partial results are
  /// confirmed global), not per shard; single-shard plans stream from
  /// the shard's own run. Throws std::runtime_error for unknown names or
  /// invalid specs. Runtime outcomes are returned, not thrown: a deadline
  /// (Options::deadline_ms) or caller cancellation comes back as
  /// QueryResult::status (with a `truncated` partial on progressive
  /// requests), admission-control rejection as kOverloaded (or a `stale`
  /// answer under Config::serve_stale), and any exception a worker
  /// raises mid-compute — std::bad_alloc included — is contained and
  /// mapped to kInternalError with the engine state intact.
  QueryResult Execute(const std::string& name, const QuerySpec& spec,
                      const Options& opts = Options{});

  void ClearCache() { cache_.Clear(); }

  /// The engine's metrics registry — every counter/histogram the serving
  /// and mutation paths feed, plus the cache, executor and dataset-count
  /// collector — ready for obs/export.h. Snapshotting is safe
  /// concurrently with serving.
  obs::MetricsRegistry& Metrics() { return metrics_; }
  const obs::MetricsRegistry& Metrics() const { return metrics_; }

  /// The engine-owned shared scheduler every serving and mutation path
  /// runs on (Config::executor_threads). Exposed so callers embedding the
  /// engine can co-schedule their own work on the same bounded worker set.
  Executor& executor() { return executor_; }
  const Executor& executor() const { return executor_; }

 private:
  struct Registered {
    /// Whole-dataset rows at current ids, for Find() only — queries and
    /// mutations read `shards`. A mutation clears this (the truth lives
    /// in the shards); Find() lazily re-caches ShardMap::WholeRows().
    std::shared_ptr<const Dataset> data;
    std::shared_ptr<const ShardMap> shards;  ///< never null
    uint64_t version = 0;
    uint64_t minor = 0;  ///< bumped per mutation batch
    int dims = 0;        ///< stable across mutations
    size_t count = 0;    ///< current row count
  };

  /// Result-cache insert gated on (`version`, `minor`) still being the
  /// registered generation of `name`, checked under the registry lock so
  /// the insert cannot interleave with a re-registration's purge or a
  /// mutation's selective fixup: a replacement/mutation blocks on the
  /// registry lock until the Put finishes, and its ErasePrefix/EditPrefix
  /// then sees the entry — a computation that outlived its generation
  /// can never leave stale entries squatting under live keys. Lock
  /// order: registry (shared) -> cache mutex; no path takes them in the
  /// other order.
  void PutIfCurrent(const std::string& name, uint64_t version, uint64_t minor,
                    const std::string& key,
                    std::shared_ptr<const QueryResult> value);

  /// One repaired mutation batch, ready to publish.
  struct MutationDelta {
    std::shared_ptr<const ShardMap> map;  ///< the repaired COW map
    size_t count = 0;    ///< row count once the batch is applied
    RepairStats repair;  ///< work the shard repairs did
    /// Bounds of every mutated row (NaN coordinates excluded).
    std::vector<Value> lo, hi;
    /// Delete compaction map (new id = old id - id_shift[old id]); empty
    /// for inserts.
    std::vector<uint32_t> id_shift;
  };

  /// Copy of `name`'s registry entry; throws std::runtime_error if absent.
  Registered MutationSnapshot(const std::string& name) const;

  /// Run repair(t, stats) for t in [0, n) as a capped task group on the
  /// shared executor; returns the summed RepairStats.
  RepairStats RepairShards(
      size_t n, const std::function<void(size_t, RepairStats*)>& repair);

  /// Selective result-cache fixup after a mutation, called with
  /// `registry_mu_` held exclusively (lock order registry -> cache is the
  /// process-wide rule). Returns the number of cached results erased.
  size_t FixupResultsLocked(const std::string& prefix,
                            const MutationDelta& delta);

  /// The one mutation driver behind InsertPoints / DeletePoints: per
  /// attempt, `repair` builds the repaired delta against a snapshot of
  /// `name` (throwing on invalid input) and returns the rows it mutates,
  /// 0 for none; the driver publishes it, retries when a re-registration
  /// replaced the snapshot's generation, and records the batch in
  /// `batches` / `rows` and every other mutation series at its outcome
  /// point. Returns the new minor version (the current one when nothing
  /// was mutated). Throws std::runtime_error if `name` is or gets evicted.
  uint64_t Mutate(
      const std::string& name, obs::Counter* batches, obs::Counter* rows,
      const std::function<size_t(const Registered&, MutationDelta&)>& repair);

  /// Hot-path instruments, interned once at construction so serving
  /// threads never touch the registry mutex (obs/metrics.h pointers are
  /// stable for the registry's lifetime).
  struct Instruments {
    obs::Counter* queries = nullptr;        ///< sky_engine_queries_total
    obs::Histogram* latency = nullptr;      ///< sky_query_latency_seconds
    obs::Histogram* compute = nullptr;      ///< sky_query_compute_seconds
    obs::Counter* view_builds = nullptr;    ///< sky_engine_view_builds_total
    obs::Counter* inserts = nullptr;        ///< sky_mutation_inserts_total
    obs::Counter* deletes = nullptr;        ///< sky_mutation_deletes_total
    obs::Counter* rows_inserted = nullptr;
    obs::Counter* rows_deleted = nullptr;
    obs::Counter* retries = nullptr;  ///< sky_mutation_retries_total
    obs::Counter* repair_dom_tests = nullptr;
    obs::Counter* sketch_rebuilds = nullptr;
    obs::Histogram* mutation_latency = nullptr;  ///< sky_mutation_seconds
    obs::Counter* invalidated_results = nullptr;
    obs::Counter* zonemap_repairs = nullptr;  ///< sky_zonemap_repairs_total
    /// sky_query_deadline_exceeded_total — queries whose deadline tripped
    /// (truncated partials included).
    obs::Counter* deadline_exceeded = nullptr;
    /// sky_query_shed_total — queries rejected by admission control.
    obs::Counter* shed = nullptr;
    /// sky_query_degraded_total — degraded answers served: stale cache
    /// entries and truncated progressive prefixes.
    obs::Counter* degraded = nullptr;
    /// sky_engine_algorithm_total{algo=...}, indexed by Algorithm value —
    /// one bump per executed shard (the planner decision tally).
    std::array<obs::Counter*, static_cast<size_t>(Algorithm::kAuto) + 1>
        algorithm{};
    PlannerCounters planner;  ///< sky_planner_* decision tallies
  };

  void WireInstruments();

  const Config config_;
  /// The shared work-stealing worker set (declared before the cache so
  /// it outlives any destructor-ordered teardown that might still touch
  /// it). All TaskGroups are scoped inside Execute/mutation calls, which
  /// must have returned before destruction — the usual engine-outlives-
  /// callers contract.
  Executor executor_;
  obs::MetricsRegistry metrics_;
  Instruments inst_;
  mutable std::shared_mutex registry_mu_;
  std::map<std::string, Registered> registry_;  // guarded by registry_mu_
  uint64_t next_version_ = 1;                   // guarded by registry_mu_
  /// Serializes InsertPoints / DeletePoints batches with each other (the
  /// registry lock is only held for snapshot and publish, so concurrent
  /// mutations could otherwise interleave their repair work). Always
  /// acquired before registry_mu_.
  std::mutex mutation_mu_;
  /// Fresh computes currently inside Execute (admission control's
  /// Config::max_inflight gauge; cache hits and shed queries never
  /// count).
  std::atomic<int> inflight_{0};
  ResultCache<QueryResult> cache_;
};

}  // namespace sky

#endif  // SKY_QUERY_ENGINE_H_
