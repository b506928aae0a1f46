// Copyright (c) SkyBench-NG contributors.
// Trace tests (obs/trace.h): FormatSeconds scaling, TraceBuilder span
// recording, TraceScope's no-op and nesting contract, Render()'s
// indented tree, and the engine integration — span trees of Execute,
// RunQuery and RunShardedQuery (plan / shard / merge, view build,
// truncated and failed queries), the two-span hit trace, and the
// invariant that cached results never carry the producer's trace.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "data/generator.h"
#include "query/engine.h"

namespace sky {
namespace {

using obs::FormatSeconds;
using obs::TraceBuilder;
using obs::TraceSpan;

TEST(FormatSecondsTest, PicksHumanScale) {
  EXPECT_EQ(FormatSeconds(0.0), "0ns");
  EXPECT_EQ(FormatSeconds(840e-9), "840ns");
  EXPECT_EQ(FormatSeconds(12.34e-6), "12.3us");
  EXPECT_EQ(FormatSeconds(1.52e-3), "1.52ms");
  EXPECT_EQ(FormatSeconds(2.0405), "2.041s");
}

TEST(TraceBuilderTest, RecordsSpansAndAttrs) {
  TraceBuilder tb;
  const int root = tb.Open("query");
  EXPECT_EQ(root, 0);
  const int child = tb.AddSpan("plan", root, 0.001, 0.002);
  tb.Attr(child, "merge", "union-filter");
  tb.AttrCount(child, "shards", 4);
  tb.Close(root);
  const auto trace = tb.Finish();
  ASSERT_EQ(trace->spans.size(), 2u);
  EXPECT_EQ(trace->spans[0].name, "query");
  EXPECT_EQ(trace->spans[0].parent, -1);
  EXPECT_GE(trace->spans[0].duration_seconds, 0.0);
  EXPECT_EQ(trace->spans[1].name, "plan");
  EXPECT_EQ(trace->spans[1].parent, 0);
  EXPECT_DOUBLE_EQ(trace->spans[1].start_seconds, 0.001);
  ASSERT_EQ(trace->spans[1].attrs.size(), 2u);
  EXPECT_EQ(trace->spans[1].attrs[0],
            (std::pair<std::string, std::string>{"merge", "union-filter"}));
  EXPECT_EQ(trace->spans[1].attrs[1],
            (std::pair<std::string, std::string>{"shards", "4"}));
}

TEST(TraceBuilderTest, NowIsMonotone) {
  TraceBuilder tb;
  const double a = tb.Now();
  const double b = tb.Now();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(TraceScopeTest, DisabledScopeIsANoOp) {
  obs::TraceScope root = obs::TraceScope::Root(false, "query");
  root.Attr("dataset", "hotels");
  EXPECT_EQ(root.Now(), 0.0);
  {
    obs::TraceScope plan(root, "plan");
    plan.AttrCount("shards", 4);
    const obs::TraceScope shard(root, "shard", 3, 0.0, 1.0);
    EXPECT_EQ(plan.Now(), 0.0);
  }
  EXPECT_EQ(root.Finish(), nullptr);
}

TEST(TraceScopeTest, NestsClosesAndBackfillsSpans) {
  obs::TraceScope root = obs::TraceScope::Root(true, "query");
  root.Attr("dataset", "hotels");
  {
    obs::TraceScope plan(root, "plan");
    plan.AttrCount("shards", 2);
    const obs::TraceScope inner(plan, "inner");
  }
  {
    obs::TraceScope shard(root, "shard", 7, 0.25, 0.5);
    shard.Attr("algo", "hybrid");
  }
  const obs::TraceScope get(root, "cache.get", -1, 0.0, 0.125);
  const std::shared_ptr<const obs::QueryTrace> trace = root.Finish();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->spans.size(), 5u);
  const std::vector<std::string> names = {"query", "plan", "inner",
                                          "shard[7]", "cache.get"};
  const std::vector<int> parents = {-1, 0, 1, 0, 0};
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(trace->spans[i].name, names[i]);
    EXPECT_EQ(trace->spans[i].parent, parents[i]);
  }
  EXPECT_EQ(trace->spans[0].attrs.front(),
            (std::pair<std::string, std::string>("dataset", "hotels")));
  EXPECT_EQ(trace->spans[1].attrs.front(),
            (std::pair<std::string, std::string>("shards", "2")));
  EXPECT_EQ(trace->spans[3].attrs.front(),
            (std::pair<std::string, std::string>("algo", "hybrid")));
  EXPECT_EQ(trace->spans[3].start_seconds, 0.25);
  EXPECT_EQ(trace->spans[3].duration_seconds, 0.5);
  EXPECT_EQ(trace->spans[4].duration_seconds, 0.125);
  // Scopes closed in nesting order: each parent outlasts its child.
  EXPECT_GE(trace->spans[1].duration_seconds,
            trace->spans[2].duration_seconds);
  EXPECT_GE(trace->spans[0].duration_seconds,
            trace->spans[1].duration_seconds);
}

TEST(RenderTest, IndentedTreeWithExactFormatting) {
  TraceBuilder tb;
  const int root = tb.AddSpan("query", -1, 0.0, 1.52e-3);
  tb.Attr(root, "dataset", "hotels");
  tb.AddSpan("plan", root, 0.0, 12.34e-6);
  const int shard = tb.AddSpan("shard[0]", root, 0.0, 840e-9);
  tb.AttrCount(shard, "rows", 42);
  EXPECT_EQ(tb.Finish()->Render(),
            "query 1.52ms dataset=hotels\n"
            "  plan 12.3us\n"
            "  shard[0] 840ns rows=42\n");
}

TEST(RenderTest, GrandchildrenIndentTwice) {
  TraceBuilder tb;
  const int a = tb.AddSpan("a", -1, 0.0, 0.0);
  const int b = tb.AddSpan("b", a, 0.0, 0.0);
  tb.AddSpan("c", b, 0.0, 0.0);
  tb.AddSpan("d", a, 0.0, 0.0);
  EXPECT_EQ(tb.Finish()->Render(),
            "a 0ns\n"
            "  b 0ns\n"
            "    c 0ns\n"
            "  d 0ns\n");
}

/// Index of the first span with `name`, or -1.
int FindSpan(const obs::QueryTrace& t, const std::string& name) {
  for (size_t i = 0; i < t.spans.size(); ++i) {
    if (t.spans[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

/// Value of attr `key` on span `idx`, or "" when absent.
std::string AttrOf(const obs::QueryTrace& t, int idx, const std::string& key) {
  for (const auto& [k, v] : t.spans[static_cast<size_t>(idx)].attrs) {
    if (k == key) return v;
  }
  return "";
}

TEST(EngineTraceTest, ShardedConstrainedQuerySpanTree) {
  SkylineEngine::Config config;
  config.auto_algorithm = true;
  SkylineEngine engine(config);
  engine.RegisterDataset(
      "pts",
      GenerateSynthetic(Distribution::kIndependent, 4000, 4, /*seed=*/11),
      /*shards=*/4, ShardPolicy::kMedianPivot);

  QuerySpec spec;
  spec.Constrain(0, 0.0f, 0.4f);
  Options opts;
  opts.trace = true;
  opts.threads = 2;
  opts.count_dts = true;
  const QueryResult r = engine.Execute("pts", spec, opts);

  ASSERT_NE(r.trace, nullptr);
  const obs::QueryTrace& t = *r.trace;
  ASSERT_FALSE(t.spans.empty());
  EXPECT_EQ(t.spans[0].name, "query");
  EXPECT_EQ(t.spans[0].parent, -1);
  EXPECT_EQ(AttrOf(t, 0, "dataset"), "pts");
  EXPECT_EQ(AttrOf(t, 0, "cache"), "miss");

  // Parents always precede their children in recording order.
  for (size_t i = 0; i < t.spans.size(); ++i) {
    EXPECT_LT(t.spans[i].parent, static_cast<int>(i));
  }

  // The plan stage comes first under the root and reports the pruning
  // decision; executed + pruned must cover the shard map.
  const int plan = FindSpan(t, "plan");
  ASSERT_GE(plan, 0);
  EXPECT_EQ(t.spans[static_cast<size_t>(plan)].parent, 0);
  EXPECT_EQ(AttrOf(t, plan, "shards"),
            std::to_string(r.shards_executed));
  EXPECT_EQ(AttrOf(t, plan, "pruned"), std::to_string(r.shards_pruned));
  EXPECT_EQ(r.shards_executed + r.shards_pruned, 4u);

  // One shard span per executed shard, each under the root, after the
  // plan span, and labeled with the algorithm it ran.
  size_t shard_spans = 0;
  for (size_t i = 0; i < t.spans.size(); ++i) {
    if (t.spans[i].name.rfind("shard[", 0) != 0) continue;
    ++shard_spans;
    EXPECT_EQ(t.spans[i].parent, 0);
    EXPECT_GT(static_cast<int>(i), plan);
    EXPECT_NE(AttrOf(t, static_cast<int>(i), "algo"), "");
    EXPECT_NE(AttrOf(t, static_cast<int>(i), "dom_tests"), "");
  }
  EXPECT_EQ(shard_spans, r.shards_executed);

  // Multi-shard plans merge after the last shard span; the result lands
  // in the cache through a cache.put span.
  if (r.shards_executed > 1) {
    const int merge = FindSpan(t, "merge");
    ASSERT_GE(merge, 0);
    EXPECT_EQ(t.spans[static_cast<size_t>(merge)].parent, 0);
    EXPECT_NE(AttrOf(t, merge, "strategy"), "");
  }
  const int put = FindSpan(t, "cache.put");
  ASSERT_GE(put, 0);
  EXPECT_EQ(t.spans[static_cast<size_t>(put)].parent, 0);

  // Render() yields the root line unindented and children at depth one.
  const std::string rendered = t.Render();
  EXPECT_EQ(rendered.rfind("query ", 0), 0u);
  EXPECT_NE(rendered.find("\n  plan "), std::string::npos);

  // A repeat of the same query is served from the result cache with a
  // fresh two-span hit trace, not the producer's tree.
  const QueryResult hit = engine.Execute("pts", spec, opts);
  EXPECT_TRUE(hit.cache_hit);
  ASSERT_NE(hit.trace, nullptr);
  ASSERT_EQ(hit.trace->spans.size(), 2u);
  EXPECT_EQ(hit.trace->spans[0].name, "query");
  EXPECT_EQ(AttrOf(*hit.trace, 0, "cache"), "hit");
  EXPECT_EQ(hit.trace->spans[1].name, "cache.get");

  // Tracing stays strictly opt-in: an untraced repeat of a cached query
  // carries no trace (the cache never stored one).
  Options quiet = opts;
  quiet.trace = false;
  const QueryResult untraced = engine.Execute("pts", spec, quiet);
  EXPECT_TRUE(untraced.cache_hit);
  EXPECT_EQ(untraced.trace, nullptr);
}

TEST(EngineTraceTest, UnshardedIdentityQueryTracesExecuteStage) {
  // An unsharded dataset is a one-shard plan: the trace has the same
  // shape as any other fresh compute — plan, the lone shard's execute
  // span, cache.put — and no merge.
  SkylineEngine engine;
  engine.RegisterDataset(
      "flat", GenerateSynthetic(Distribution::kAnticorrelated, 500, 3,
                                /*seed=*/3));
  Options opts;
  opts.trace = true;
  const QueryResult r = engine.Execute("flat", QuerySpec{}, opts);
  ASSERT_NE(r.trace, nullptr);
  const obs::QueryTrace& t = *r.trace;
  EXPECT_EQ(t.spans[0].name, "query");
  const int plan = FindSpan(t, "plan");
  const int shard = FindSpan(t, "shard[0]");
  const int put = FindSpan(t, "cache.put");
  ASSERT_GE(plan, 0);
  ASSERT_GE(shard, 0);
  ASSERT_GE(put, 0);
  EXPECT_LT(plan, shard);
  EXPECT_LT(shard, put);
  for (const int span : {plan, shard, put}) {
    EXPECT_EQ(t.spans[static_cast<size_t>(span)].parent, 0);
  }
  EXPECT_EQ(AttrOf(t, plan, "shards"), "1");
  EXPECT_EQ(AttrOf(t, plan, "merge"), "none");
  EXPECT_NE(AttrOf(t, shard, "algo"), "");
  EXPECT_EQ(AttrOf(t, shard, "rows"), "500");
  EXPECT_EQ(AttrOf(t, shard, "view"), "");  // identity: no view at all
  EXPECT_EQ(FindSpan(t, "merge"), -1);

  Options quiet;
  const QueryResult untraced =
      engine.Execute("flat", QuerySpec{}, quiet);
  EXPECT_EQ(untraced.trace, nullptr);
}

TEST(EngineTraceTest, UnshardedViewSpanCarriesBuildWidth) {
  // A view spanning several row chunks builds at the request's budget on
  // the shared executor, and the lone shard's span reports that width.
  // A zonemap run on a box-only spec traverses the shard's index in
  // place: it loads nothing, yet still reports its exact matched rows.
  SkylineEngine::Config config;
  config.executor_threads = 4;
  SkylineEngine engine(config);
  engine.RegisterDataset(
      "flat", GenerateSynthetic(Distribution::kIndependent, 20'000, 4,
                                /*seed=*/5));
  QuerySpec spec;
  spec.SetPreference(1, Preference::kMax);
  Options opts;
  opts.trace = true;
  opts.threads = 4;
  const QueryResult r = engine.Execute("flat", spec, opts);
  ASSERT_NE(r.trace, nullptr);
  const int shard = FindSpan(*r.trace, "shard[0]");
  ASSERT_GE(shard, 0);
  EXPECT_EQ(r.trace->spans[static_cast<size_t>(shard)].parent, 0);
  EXPECT_EQ(AttrOf(*r.trace, shard, "view"), "build");
  EXPECT_EQ(AttrOf(*r.trace, shard, "rows"), "20000");
  EXPECT_EQ(AttrOf(*r.trace, shard, "threads"), "4");
  EXPECT_GT(FindSpan(*r.trace, "cache.put"), shard);

  QuerySpec boxed;
  boxed.Constrain(0, 0.1f, 0.5f);
  Options zonemap = opts;
  zonemap.algorithm = Algorithm::kZonemap;
  const QueryResult traversal = engine.Execute("flat", boxed, zonemap);
  ASSERT_NE(traversal.trace, nullptr);
  const obs::QueryTrace& t = *traversal.trace;
  const int run = FindSpan(t, "shard[0]");
  ASSERT_GE(run, 0);
  for (const obs::TraceSpan& span : t.spans) {
    if (span.parent == run) {
      EXPECT_NE(span.name, "view.build");
    }
  }
  EXPECT_EQ(AttrOf(t, run, "view"), "");
  EXPECT_EQ(AttrOf(t, run, "rows"), std::to_string(traversal.matched_rows));
  const Dataset data = GenerateSynthetic(Distribution::kIndependent, 20'000,
                                         4, /*seed=*/5);
  size_t inside = 0;
  for (size_t i = 0; i < data.count(); ++i) {
    inside += data.Row(i)[0] >= 0.1f && data.Row(i)[0] <= 0.5f;
  }
  EXPECT_EQ(traversal.matched_rows, inside);
}

TEST(EngineTraceTest, RunQueryIdentityTracesExecuteStage) {
  const Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 500, 3, /*seed=*/3);
  Options opts;
  opts.algorithm = Algorithm::kHybrid;
  opts.trace = true;
  const QueryResult r = RunQuery(data, QuerySpec{}, opts);
  ASSERT_NE(r.trace, nullptr);
  const obs::QueryTrace& t = *r.trace;
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].name, "query");
  EXPECT_EQ(t.spans[0].parent, -1);
  EXPECT_EQ(AttrOf(t, 0, "members"), std::to_string(r.ids.size()));
  EXPECT_EQ(t.spans[1].name, "execute");
  EXPECT_EQ(t.spans[1].parent, 0);
  EXPECT_EQ(AttrOf(t, 1, "algo"), AlgorithmName(Algorithm::kHybrid));
  EXPECT_EQ(AttrOf(t, 1, "rows"), "500");

  opts.trace = false;
  EXPECT_EQ(RunQuery(data, QuerySpec{}, opts).trace, nullptr);
}

TEST(EngineTraceTest, RunQueryViewSpecTracesViewBuildThenExecute) {
  const Dataset data =
      GenerateSynthetic(Distribution::kIndependent, 2'000, 4, /*seed=*/5);
  QuerySpec spec;
  spec.SetPreference(1, Preference::kMax);
  spec.Constrain(0, 0.2f, 0.8f);
  Options opts;
  opts.algorithm = Algorithm::kQFlow;
  opts.threads = 1;
  opts.trace = true;
  const QueryResult r = RunQuery(data, spec, opts);
  ASSERT_NE(r.trace, nullptr);
  const obs::QueryTrace& t = *r.trace;
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[0].name, "query");
  EXPECT_EQ(AttrOf(t, 0, "members"), std::to_string(r.ids.size()));
  EXPECT_EQ(t.spans[1].name, "view.build");
  EXPECT_EQ(t.spans[1].parent, 0);
  EXPECT_EQ(AttrOf(t, 1, "rows"), std::to_string(r.matched_rows));
  EXPECT_EQ(AttrOf(t, 1, "threads"), "1");
  EXPECT_EQ(t.spans[2].name, "execute");
  EXPECT_EQ(t.spans[2].parent, 0);
  EXPECT_EQ(AttrOf(t, 2, "algo"), AlgorithmName(Algorithm::kQFlow));
  EXPECT_EQ(AttrOf(t, 2, "rows"), std::to_string(r.matched_rows));
  EXPECT_LT(r.matched_rows, data.count());
}

TEST(EngineTraceTest, RunShardedQueryTracesPlanShardsThenMerge) {
  const ShardMap map = ShardMap::Build(
      GenerateSynthetic(Distribution::kIndependent, 4'000, 4, /*seed=*/11),
      /*shards=*/4, ShardPolicy::kMedianPivot);
  QuerySpec spec;
  spec.Constrain(3, 0.0f, 0.4f);
  Options opts;
  opts.trace = true;
  opts.threads = 2;
  const QueryResult r = RunShardedQuery(map, spec, opts);
  ASSERT_NE(r.trace, nullptr);
  const obs::QueryTrace& t = *r.trace;
  ASSERT_GT(r.shards_executed, 1u);
  ASSERT_GT(r.shards_pruned, 0u);
  EXPECT_EQ(t.spans[0].name, "query");
  EXPECT_EQ(AttrOf(t, 0, "members"), std::to_string(r.ids.size()));

  const int plan = FindSpan(t, "plan");
  ASSERT_EQ(plan, 1);
  EXPECT_EQ(t.spans[1].parent, 0);
  EXPECT_EQ(AttrOf(t, plan, "shards"), std::to_string(r.shards_executed));
  EXPECT_EQ(AttrOf(t, plan, "pruned"), std::to_string(r.shards_pruned));
  EXPECT_EQ(AttrOf(t, plan, "merge"), "skyline-union");

  // Among the root's children: shard[i] spans in shard order right after
  // the plan, then the merge. Each shard span carries its own children —
  // the first-use index build and the constrained load — before the next
  // shard span.
  std::vector<size_t> top;
  for (size_t i = 2; i < t.spans.size(); ++i) {
    if (t.spans[i].parent == 0) top.push_back(i);
  }
  size_t next = 0;
  for (; next < top.size(); ++next) {
    const int span = static_cast<int>(top[next]);
    if (t.spans[top[next]].name.rfind("shard[", 0) != 0) break;
    EXPECT_NE(AttrOf(t, span, "algo"), "");
    EXPECT_NE(AttrOf(t, span, "rows"), "");
    EXPECT_EQ(AttrOf(t, span, "view"), "build");
    std::vector<std::string> children;
    int load = -1;
    for (size_t c = 0; c < t.spans.size(); ++c) {
      if (t.spans[c].parent != span) continue;
      children.push_back(t.spans[c].name);
      if (t.spans[c].name == "view.build") load = static_cast<int>(c);
    }
    EXPECT_EQ(children, (std::vector<std::string>{"zonemap", "view.build"}));
    ASSERT_GE(load, 0);
    EXPECT_EQ(AttrOf(t, load, "rows"), AttrOf(t, span, "rows"));
    EXPECT_NE(AttrOf(t, load, "rows_in"), "");
    const size_t blocks = std::stoul(AttrOf(t, load, "blocks"));
    EXPECT_GT(blocks, 0u);
    EXPECT_EQ(std::stoul(AttrOf(t, load, "blocks_visited")) +
                  std::stoul(AttrOf(t, load, "blocks_box_skipped")),
              blocks);
    EXPECT_LE(std::stoul(AttrOf(t, load, "blocks_inside")),
              std::stoul(AttrOf(t, load, "blocks_visited")));
    EXPECT_EQ(AttrOf(t, load, "threads"), AttrOf(t, span, "threads"));
  }
  EXPECT_EQ(next, r.shards_executed);
  ASSERT_LT(next, top.size());
  EXPECT_EQ(t.spans[top[next]].name, "merge");
  const int merge = static_cast<int>(top[next]);
  EXPECT_EQ(AttrOf(t, merge, "strategy"), "skyline-union");
  EXPECT_EQ(AttrOf(t, merge, "members"), std::to_string(r.ids.size()));
  EXPECT_NE(AttrOf(t, merge, "union"), "");
}

TEST(EngineTraceTest, TruncatedProgressiveQueryMarksRootSpan) {
  Dataset data =
      GenerateSynthetic(Distribution::kAnticorrelated, 20'000, 6, /*seed=*/19);
  SkylineEngine engine;
  engine.RegisterDataset("ds", std::move(data));
  CancelToken token;
  Options opts;
  opts.algorithm = Algorithm::kQFlow;
  opts.alpha = 512;
  opts.cancel = &token;
  opts.trace = true;
  opts.progressive = [&](std::span<const PointId>) {
    token.Cancel(Status::kDeadlineExceeded);
  };
  const QueryResult r = engine.Execute("ds", QuerySpec{}, opts);
  ASSERT_EQ(r.status, Status::kDeadlineExceeded);
  ASSERT_TRUE(r.truncated);
  ASSERT_NE(r.trace, nullptr);
  const obs::QueryTrace& t = *r.trace;
  EXPECT_EQ(t.spans[0].name, "query");
  EXPECT_EQ(AttrOf(t, 0, "dataset"), "ds");
  EXPECT_EQ(AttrOf(t, 0, "cache"), "miss");
  EXPECT_EQ(AttrOf(t, 0, "status"), "deadline_exceeded");
  EXPECT_EQ(AttrOf(t, 0, "truncated"), "true");
  EXPECT_EQ(AttrOf(t, 0, "members"), "");
}

TEST(EngineTraceTest, ContainedShardFailureMarksRootSpan) {
  SkylineEngine engine;
  engine.RegisterDataset(
      "ds", GenerateSynthetic(Distribution::kIndependent, 1'000, 4, /*seed=*/2),
      /*shards=*/4, ShardPolicy::kRoundRobin);
  Options opts;
  opts.trace = true;
  FailPoints::Instance().Arm("shard_execute", FailPoints::Mode::kThrow);
  const QueryResult r = engine.Execute("ds", QuerySpec{}, opts);
  FailPoints::Instance().DisarmAll();
  ASSERT_EQ(r.status, Status::kInternalError);
  ASSERT_NE(r.trace, nullptr);
  const obs::QueryTrace& t = *r.trace;
  EXPECT_EQ(t.spans[0].name, "query");
  EXPECT_EQ(AttrOf(t, 0, "dataset"), "ds");
  EXPECT_EQ(AttrOf(t, 0, "status"), "internal_error");
  EXPECT_GE(FindSpan(t, "plan"), 1);
  EXPECT_EQ(FindSpan(t, "cache.put"), -1);
}

}  // namespace
}  // namespace sky
