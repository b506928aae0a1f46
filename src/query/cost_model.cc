// Copyright (c) SkyBench-NG contributors.
#include "query/cost_model.h"

#include <algorithm>
#include <cmath>

#include "core/algorithm_registry.h"

namespace sky {
namespace {

/// The model's runtime estimate, in the registry's relative-ns units:
///
///   d_factor = cmp_dim_growth^(d - 4)          pruning decay past d=4
///   work     = per_point * n * d               linear passes (L1, sort)
///            + per_cmp * d_factor * n * m * d  dominance-test volume
///            + per_sky2 * m^2 * d              D&C merge phases
///   cost     = startup + startup_thread * t
///            + (1 - pf) * work + pf * work / t t = 1 for sequential
///
/// n is the post-constraint row estimate and m the skyline estimate at
/// that n (times band_k for k-skybands: every band level re-filters).
double Cost(const AlgorithmDescriptor& desc, double n_eff, int d,
            double m_eff, int threads) {
  const double t = desc.parallel ? std::max(1, threads) : 1;
  const double d_factor =
      std::pow(desc.cost.cmp_dim_growth, std::max(0, d - 4));
  const double work =
      desc.cost.per_point_ns * n_eff * d +
      desc.cost.per_cmp_ns * d_factor * n_eff * m_eff * d +
      desc.cost.per_sky2_ns * m_eff * m_eff * d;
  const double pf = desc.cost.parallel_fraction;
  return desc.cost.startup_ns + desc.cost.startup_thread_ns * t +
         (1.0 - pf) * work + pf * work / t;
}

/// Per-coordinate surcharges of the zonemap_direct comparison
/// (SelectionContext::zonemap_direct). A constrained spec makes every
/// ordinary candidate load its rows through the shard's RowSource before
/// it runs; the zonemap traversal replaces that with AABB pruning plus a
/// row scan over the boxes that survive it. The model charges a
/// full-dataset load (copy + box test per row) to every ordinary
/// candidate and a cheaper whole-dataset scan bound to zonemap —
/// pessimistic for zonemap (it skips disjoint blocks without touching
/// rows), so the pick only flips where the win is structural. The load
/// charge overstates a constrained load, which now walks the shard's
/// zonemap and skips the blocks the box misses too; the constant stays
/// until it is refitted against measured loads.
constexpr double kViewMaterializeNs = 1.2;
constexpr double kZonemapBoxScanNs = 0.25;

struct Effective {
  double n = 1.0;
  double m = 1.0;
};

Effective EffectiveSizes(const StatsSketch& sketch,
                         const SelectionContext& ctx) {
  Effective e;
  e.n = std::max(1.0, static_cast<double>(sketch.n) *
                          std::clamp(ctx.selectivity, 0.0, 1.0));
  e.m = sketch.EstimateSkylineAt(e.n);
  if (ctx.band_k > 1) {
    e.m = std::min(e.n, e.m * static_cast<double>(ctx.band_k));
  }
  return e;
}

}  // namespace

double EstimateAlgorithmCost(Algorithm algorithm, const StatsSketch& sketch,
                             const SelectionContext& ctx) {
  const Effective e = EffectiveSizes(sketch, ctx);
  return Cost(GetAlgorithmDescriptor(algorithm), e.n, sketch.d, e.m,
              ctx.threads);
}

AlgorithmChoice ChooseAlgorithm(const StatsSketch& sketch,
                                const SelectionContext& ctx) {
  const Effective e = EffectiveSizes(sketch, ctx);
  AlgorithmChoice choice;
  choice.est_rows = e.n;
  choice.est_skyline = e.m;
  bool first = true;
  for (const AlgorithmDescriptor& desc : AlgorithmTable()) {
    if (!desc.auto_candidate) continue;
    // Zonemap competes only where the engine would traverse the shard's
    // index against a constraint box (see SelectionContext::zonemap_direct).
    if (desc.algorithm == Algorithm::kZonemap && !ctx.zonemap_direct) {
      continue;
    }
    // k-skybands run ComputeSkyband, which reuses Q-Flow's block flow
    // whatever Options.algorithm says — restrict to capable algorithms
    // so the reported choice matches what actually executes.
    if (ctx.band_k > 1 && !desc.skyband) continue;
    // A progressive caller must get an algorithm that streams.
    if (ctx.progressive && !desc.progressive) continue;
    double cost = Cost(desc, e.n, sketch.d, e.m, ctx.threads);
    if (ctx.zonemap_direct) {
      // Traversal comparison: ordinary candidates first pay the
      // full-dataset load the zonemap traversal skips.
      const double full = static_cast<double>(sketch.n) * sketch.d;
      cost += desc.algorithm == Algorithm::kZonemap
                  ? kZonemapBoxScanNs * full
                  : kViewMaterializeNs * full;
    }
    if (first || cost < choice.est_cost) {
      choice.algorithm = desc.algorithm;
      choice.est_cost = cost;
      first = false;
    }
  }
  return choice;
}

double EstimateConstraintSelectivity(
    const StatsSketch& sketch,
    const std::vector<DimConstraint>& constraints) {
  double sel = 1.0;
  for (const DimConstraint& c : constraints) {
    sel *= sketch.EstimateIntervalSelectivity(c.dim, c.lo, c.hi);
  }
  sel = std::clamp(sel, 0.0, 1.0);
  // Incremental mutations freeze the quantile sample (data/sketch.h), so
  // the estimate drifts as rows churn. Damp toward the conservative 1.0
  // ("everything survives the constraint") in proportion to the mutated
  // fraction: a stale sketch then over-budgets rather than under-plans,
  // and a rebuilt sketch (StaleFraction 0) keeps today's exact behavior.
  const double stale = sketch.StaleFraction();
  return sel + (1.0 - sel) * stale;
}

Algorithm ChooseAlgorithmForDataset(const Dataset& data,
                                    const Options& opts) {
  SelectionContext ctx;
  ctx.threads = opts.ResolvedThreads();
  ctx.progressive = opts.progressive != nullptr;
  return ChooseAlgorithm(ComputeSketch(data, opts.seed), ctx).algorithm;
}

}  // namespace sky
