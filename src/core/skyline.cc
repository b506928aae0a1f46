// Copyright (c) SkyBench-NG contributors.
#include "core/skyline.h"

#include <algorithm>

#include "baselines/bnl.h"
#include "core/algorithm_registry.h"
#include "query/cost_model.h"

namespace sky {

Result ComputeSkyline(const Dataset& data, const Options& opts) {
  return ComputeSkyline(RowSource(data), opts);
}

Result ComputeSkyline(const RowSource& source, const Options& opts) {
  Options run = opts;
  // Arm the deadline here, at the one dispatch point every direct call
  // funnels through, and chain it to any caller-provided token. The
  // algorithms poll `run.cancel` at block / tile boundaries and unwind
  // with CancelledError(kDeadlineExceeded); library callers see that
  // exception, the engine converts it to QueryResult::status.
  CancelToken deadline(run.deadline_ms);
  if (run.deadline_ms > 0) {
    deadline.set_parent(run.cancel);
    run.cancel = &deadline;
    run.deadline_ms = 0;
  }
  if (run.algorithm == Algorithm::kAuto) {
    // Direct calls with kAuto sketch the input on the fly (the one
    // deliberate core -> query arrow; the serving layer resolves from
    // its registration-time sketches long before reaching here). The
    // sketch covers the source rows: a box or projection can change
    // which candidate is cheapest, never the answer.
    run.algorithm = ChooseAlgorithmForDataset(source.rows(), opts);
  }
  return GetAlgorithmDescriptor(run.algorithm).compute(source, run);
}

bool VerifySkyline(const Dataset& data,
                   const std::vector<PointId>& candidate) {
  Options ref_opts;
  ref_opts.algorithm = Algorithm::kBnl;
  Result ref = BnlCompute(data, ref_opts);
  std::vector<PointId> a = candidate;
  std::vector<PointId> b = std::move(ref.skyline);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace sky
