// Copyright (c) SkyBench-NG contributors.
// Trace tests (obs/trace.h): FormatSeconds scaling, TraceBuilder span
// recording and Render()'s indented tree, and the engine integration —
// span nesting/ordering on a sharded + constrained query, the two-span
// hit trace, and the invariant that cached results never carry the
// producer's trace.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

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
  SkylineEngine engine;
  engine.RegisterDataset(
      "flat", GenerateSynthetic(Distribution::kAnticorrelated, 500, 3,
                                /*seed=*/3));
  Options opts;
  opts.trace = true;
  const QueryResult r = engine.Execute("flat", QuerySpec{}, opts);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_EQ(r.trace->spans[0].name, "query");
  EXPECT_GE(FindSpan(*r.trace, "execute"), 0);

  Options quiet;
  const QueryResult untraced =
      engine.Execute("flat", QuerySpec{}, quiet);
  EXPECT_EQ(untraced.trace, nullptr);
}

TEST(EngineTraceTest, UnshardedViewSpanCarriesBuildWidth) {
  // A view spanning several row chunks builds at the request's budget on
  // the shared executor; the trace reports that width, and a repeat that
  // reuses the cached view reports a hit with no build width.
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
  const int view = FindSpan(*r.trace, "view");
  ASSERT_GE(view, 0);
  EXPECT_EQ(r.trace->spans[static_cast<size_t>(view)].parent, 0);
  EXPECT_EQ(AttrOf(*r.trace, view, "source"), "build");
  EXPECT_EQ(AttrOf(*r.trace, view, "rows"), "20000");
  EXPECT_EQ(AttrOf(*r.trace, view, "threads"), "4");

  QuerySpec deeper = spec;
  deeper.band_k = 2;  // same ViewKey: the cached view is reused
  const QueryResult hit = engine.Execute("flat", deeper, opts);
  ASSERT_NE(hit.trace, nullptr);
  const int reused = FindSpan(*hit.trace, "view");
  ASSERT_GE(reused, 0);
  EXPECT_EQ(AttrOf(*hit.trace, reused, "source"), "hit");
  EXPECT_EQ(AttrOf(*hit.trace, reused, "threads"), "");
}

}  // namespace
}  // namespace sky
