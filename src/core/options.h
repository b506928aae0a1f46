// Copyright (c) SkyBench-NG contributors.
// Public options and result types for skyline computation.
#ifndef SKY_CORE_OPTIONS_H_
#define SKY_CORE_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/stats.h"
#include "common/types.h"
#include "data/partition.h"

namespace sky {

class Executor;

/// Every algorithm implemented by the library. Q-Flow and Hybrid are the
/// paper's contribution; the rest are the baselines of its evaluation plus
/// the classic sequential algorithms the benchmark suite ships. Each
/// concrete value owns a descriptor row in core/algorithm_registry.h.
enum class Algorithm : uint8_t {
  kBnl,        ///< block-nested-loop [Börzsönyi et al. 2001] — test oracle
  kSfs,        ///< sort-filter skyline [Chomicki et al. 2003]
  kLess,       ///< linear elimination-sort skyline [Godfrey et al. 2007]
  kSalsa,      ///< sort-and-limit skyline [Bartolini et al. 2008]
  kSSkyline,   ///< in-place nested loop used inside PSkyline [Im/Park 2011]
  kPSkyline,   ///< divide-and-conquer multicore [Im/Park 2011]
  kAPSkyline,  ///< angle-based divide-and-conquer multicore [Liknes 2014]
  kPsfs,       ///< parallel SFS, the naive baseline of [Im/Park 2011]
  kQFlow,      ///< paper §V: block flow with global shared skyline
  kHybrid,     ///< paper §VI: Q-Flow + point-based partitioning + M(S)
  kBSkyTree,   ///< sequential state of the art [Lee/Hwang 2014]
  kBSkyTreeS,  ///< BSkyTree-S: one pivot, no recursion/tree [Lee/Hwang 2014]
  kOsp,        ///< OSP: recursive partitioning, random pivot [Zhang 2009]
  kPBSkyTree,  ///< paper Appendix A: parallelized BSkyTree
  kZonemap,    ///< BBS-style best-first traversal over the block zonemap
               ///< index (index/zonemap.h, core/zonemap_skyline.h)
  kAuto,       ///< cost-model selection from the dataset/shard sketch
               ///< (query/cost_model.h); resolved before dispatch
};

const char* AlgorithmName(Algorithm algo);
/// Parse a CLI spelling or display name (case and '-' insensitive),
/// including "auto". Throws std::invalid_argument listing every valid
/// name on junk.
Algorithm ParseAlgorithm(const std::string& name);

/// True for algorithms that use more than one thread. kAuto counts as
/// parallel: it may resolve to a parallel algorithm.
bool IsParallelAlgorithm(Algorithm algo);

/// Invoked after each completed block with the original ids of points just
/// confirmed as skyline members (progressive reporting, paper §I).
using ProgressiveCallback = std::function<void(std::span<const PointId>)>;

struct Options {
  Algorithm algorithm = Algorithm::kHybrid;

  /// Total parallelism (including the calling thread). 0 = hardware
  /// concurrency. Sequential algorithms ignore this. It caps the run's
  /// TaskGroup on the resolved executor, so a value above that executor's
  /// width runs at its width: past Executor::DefaultThreads() a one-shot
  /// call clamps exactly as an engine query on a narrower executor does.
  int threads = 0;

  /// Optional shared work-stealing scheduler (parallel/executor.h), not
  /// owned. Parallel algorithms run their loops as one capped TaskGroup
  /// on it — the engine sets this so concurrent queries and mutations
  /// share one bounded worker set. Null = Executor::Default(), the
  /// process-wide scheduler one-shot library and CLI calls borrow.
  Executor* executor = nullptr;

  /// Block size α. 0 = per-algorithm default from the paper's Fig. 7/8
  /// study: 2^13 for Q-Flow/PSFS, 2^10 for Hybrid.
  size_t alpha = 0;

  /// Pivot selection policy for Hybrid (paper default: median).
  PivotPolicy pivot = PivotPolicy::kMedian;

  /// Size of each per-thread pre-filter priority queue (paper: β = 8).
  /// 0 disables the pre-filter.
  int prefilter_beta = 8;

  /// Use the AVX2 dominance kernels when the CPU supports them.
  bool use_simd = true;

  /// Route the hot window scans through the batched SoA tile kernels
  /// (dominance/batch.h): one candidate vs 8 window points per compare,
  /// cache-blocked over the window. Honored by Q-Flow, Hybrid (M(S) and
  /// peer scans) and the sharded merge; off restores the one-vs-one
  /// paths for ablation.
  bool use_batch = true;

  /// Collect dominance-test counters (small overhead).
  bool count_dts = false;

  /// Record a per-query trace of the serving pipeline — plan, view build
  /// vs. cache hit, per-shard execution, merge, cache put — attached to
  /// QueryResult::trace (obs/trace.h). Honored by the query-engine paths
  /// (SkylineEngine::Execute, RunQuery, RunShardedQuery); plain
  /// ComputeSkyline calls ignore it.
  bool trace = false;

  /// Seed for randomized choices (kRandom pivot).
  uint64_t seed = 42;

  /// Rows per zonemap block for Algorithm::kZonemap (index/zonemap.h).
  /// 0 = ZoneMapIndex::kDefaultBlockRows. Other algorithms ignore it.
  size_t block_rows = 0;

  /// Optional progressive result callback. Honored by the algorithms
  /// whose registry descriptor sets `progressive` (Q-Flow, Hybrid,
  /// SFS, SaLSa, LESS, PSFS, BSkyTree-S); others ignore it. kAuto
  /// restricts selection to these when a callback is present.
  ProgressiveCallback progressive;

  /// Wall-clock budget for one computation, in milliseconds; 0 = none.
  /// ComputeSkyline arms a CancelToken from it (chained to `cancel`
  /// below) and the long-running loops poll at block / tile boundaries,
  /// so a run returns within the budget plus one checkpoint granule —
  /// by throwing CancelledError(kDeadlineExceeded). The engine converts
  /// that to QueryResult::status (or a `truncated` partial result on
  /// progressive-capable paths) instead of letting it escape.
  double deadline_ms = 0;

  /// Optional cooperative cancellation token (not owned; null = never
  /// cancelled). Polled at the same checkpoints as the deadline. The
  /// engine threads its own per-query token through here.
  const CancelToken* cancel = nullptr;

  /// Resolved α for an algorithm (applies the paper defaults). kAuto
  /// resolves to a concrete algorithm before α matters; asking anyway
  /// returns the Fig. 7 default.
  size_t AlphaFor(Algorithm algo) const;
  /// Resolved thread count.
  int ResolvedThreads() const;
  /// The executor a run's TaskGroup borrows: `executor`, or
  /// Executor::Default() when null. A run of resolved width 1 gets null —
  /// a serial group that never constructs the default executor.
  Executor* ResolvedExecutor() const;
};

/// A skyline result: original Dataset row indices of all skyline members
/// (order unspecified; duplicates of skyline points are all included), and
/// the run's statistics.
struct Result {
  std::vector<PointId> skyline;
  RunStats stats;
};

}  // namespace sky

#endif  // SKY_CORE_OPTIONS_H_
