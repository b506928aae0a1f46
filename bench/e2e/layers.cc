// Copyright (c) SkyBench-NG contributors.
// Per-layer breakdown, measured from outside the engine: registry and
// executor counter deltas, stage shares from the engine's existing
// Options::trace spans, and a single-threaded replay of cache-miss reads
// through the public layer functions. Also writes the Chrome trace.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/timer.h"
#include "core/skyband.h"
#include "core/skyline.h"
#include "core/zonemap_skyline.h"
#include "e2e.h"
#include "index/zonemap.h"
#include "query/planner.h"
#include "query/view.h"

namespace e2e {
namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Delta(const EngineCounters& before, const EngineCounters& after,
             const std::string& name, const sky::obs::Labels& labels = {}) {
  return after.registry.Value(name, labels) -
         before.registry.Value(name, labels);
}

/// Bucket-wise difference of one histogram between two snapshots.
sky::obs::HistogramData HistogramDelta(const EngineCounters& before,
                                       const EngineCounters& after,
                                       const std::string& name) {
  sky::obs::HistogramData out;
  const sky::obs::MetricValue* a = after.registry.Find(name);
  if (a == nullptr) return out;
  out = a->histogram;
  if (const sky::obs::MetricValue* b = before.registry.Find(name)) {
    for (size_t i = 0; i < out.buckets.size(); ++i) {
      out.buckets[i] -= b->histogram.buckets[i];
    }
    out.count -= b->histogram.count;
    out.sum -= b->histogram.sum;
  }
  return out;
}

/// Total length of the union of [start, end) intervals.
double Covered(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [s, e] : iv) {
    if (s > hi) {
      if (hi > lo) total += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

/// Engine span name -> stage of query.stage_share_p99.*.
const char* StageOf(const std::string& span) {
  if (span == "plan") return "plan";
  if (span == "view" || span == "view.build") return "view";
  if (span == "zonemap") return "zonemap";
  if (span == "execute" || span.rfind("shard[", 0) == 0) return "shard";
  if (span == "merge") return "merge";
  if (span == "cache.put") return "cache_put";
  return "other";
}

constexpr const char* kStages[] = {"queue", "plan",  "view",      "zonemap",
                                   "shard", "merge", "cache_put", "other"};

}  // namespace

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void SpanLog::AttachEngineTrace(const sky::obs::QueryTrace& trace,
                                int parent) {
  if (trace.spans.empty()) return;
  // Copied out: push_back below may reallocate `spans`.
  const Span host = spans[static_cast<size_t>(parent)];
  const sky::obs::TraceSpan& root = trace.spans.front();
  const double offset =
      host.end - (root.start_seconds + root.duration_seconds);
  const int base = static_cast<int>(spans.size());
  for (const sky::obs::TraceSpan& s : trace.spans) {
    Span copy;
    copy.name = s.name;
    copy.request = host.request;
    copy.parent = s.parent < 0 ? parent : base + s.parent;
    copy.tid = host.tid;
    copy.start = offset + s.start_seconds;
    copy.end = copy.start + s.duration_seconds;
    copy.args = s.attrs;
    spans.push_back(std::move(copy));
  }
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char num[64];
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans) {
      out << (first ? "\n" : ",\n");
      first = false;
      std::snprintf(num, sizeof num, "\"ts\":%.3f,\"dur\":%.3f", s.start * 1e6,
                    (s.end - s.start) * 1e6);
      out << "{\"name\":" << JsonQuote(s.name) << ",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << s.tid << "," << num << ",\"args\":{\"request\":"
          << s.request << ",\"parent\":"
          << JsonQuote(s.parent < 0
                           ? std::string()
                           : log.spans[static_cast<size_t>(s.parent)].name);
      for (const auto& [k, v] : s.args) {
        out << "," << JsonQuote(k) << ":" << JsonQuote(v);
      }
      out << "}}";
    }
  }
  out << "\n]}\n";
}

EngineCounters ReadCounters(sky::SkylineEngine& engine) {
  return EngineCounters{engine.Metrics().Snapshot(),
                        engine.executor().Counters()};
}

void ReportCounterDeltas(const EngineCounters& before,
                         const EngineCounters& after, size_t queue_depth_max,
                         Report& report) {
  const double rh = Delta(before, after, "sky_result_cache_hits_total");
  const double rm = Delta(before, after, "sky_result_cache_misses_total");
  report.Set("query.result_cache_hit_ratio", Ratio(rh, rh + rm), "ratio",
             static_cast<uint64_t>(rh + rm));
  const double vh = Delta(before, after, "sky_view_cache_hits_total");
  const double vm = Delta(before, after, "sky_view_cache_misses_total");
  report.Set("query.view_cache_hit_ratio", Ratio(vh, vh + vm), "ratio",
             static_cast<uint64_t>(vh + vm));
  report.Set("query.view_builds",
             Delta(before, after, "sky_engine_view_builds_total"), "count");
  const sky::obs::HistogramData compute =
      HistogramDelta(before, after, "sky_query_compute_seconds");
  report.Set("query.compute_ms_p50", compute.Quantile(0.5) * 1e3, "ms",
             compute.count);
  report.Set("query.compute_ms_p99", compute.Quantile(0.99) * 1e3, "ms",
             compute.count);

  static const std::pair<sky::Algorithm, const char*> kBuckets[] = {
      {sky::Algorithm::kHybrid, "hybrid"},
      {sky::Algorithm::kQFlow, "qflow"},
      {sky::Algorithm::kBSkyTree, "bskytree"},
      {sky::Algorithm::kZonemap, "zonemap"},
  };
  std::map<std::string, double> by_algo;
  double shards_run = 0.0;
  for (const sky::obs::MetricValue& m : after.registry.metrics) {
    if (m.name != "sky_engine_algorithm_total") continue;
    const double d = Delta(before, after, m.name, m.labels);
    std::string bucket = "other";
    for (const auto& [key, label] : m.labels) {
      for (const auto& [algo, name] : kBuckets) {
        if (key == "algo" && label == sky::AlgorithmName(algo)) bucket = name;
      }
    }
    by_algo[bucket] += d;
    shards_run += d;
  }
  for (const char* b : {"hybrid", "qflow", "bskytree", "zonemap", "other"}) {
    report.Set(std::string("query.algo_share.") + b,
               Ratio(by_algo[b], shards_run), "ratio",
               static_cast<uint64_t>(shards_run));
  }

  static const std::pair<const char*, const char*> kMutation[] = {
      {"repair_dom_tests", "sky_mutation_repair_dom_tests_total"},
      {"invalidated_results", "sky_invalidated_results_total"},
      {"invalidated_views", "sky_invalidated_views_total"},
      {"zonemap_repairs", "sky_zonemap_repairs_total"},
      {"sketch_rebuilds", "sky_sketch_rebuilds_total"},
      {"retries", "sky_mutation_retries_total"},
  };
  for (const auto& [name, metric] : kMutation) {
    report.Set(std::string("query.mutation.") + name,
               Delta(before, after, metric), "count");
  }

  const sky::Executor::CountersSnapshot& a = after.executor;
  const sky::Executor::CountersSnapshot& b = before.executor;
  const double tasks = static_cast<double>(a.tasks - b.tasks);
  const double inline_runs = static_cast<double>(a.inline_runs - b.inline_runs);
  report.Set("parallel.tasks", tasks, "count");
  report.Set("parallel.inline_ratio", Ratio(inline_runs, tasks + inline_runs),
             "ratio");
  report.Set("parallel.steals", static_cast<double>(a.steals - b.steals),
             "count");
  report.Set("parallel.parks_per_task",
             Ratio(static_cast<double>(a.parks - b.parks), tasks), "ratio");
  report.Set("parallel.queue_depth_max", static_cast<double>(queue_depth_max),
             "count");
}

void ReportStageShares(const std::vector<TracedRead>& reads, Report& report) {
  std::vector<double> latencies;
  for (const TracedRead& r : reads) latencies.push_back(r.latency);
  const double p99 = Percentile(latencies, 99);
  std::map<std::string, double> stage;
  double total = 0.0;
  uint64_t tail = 0;
  for (const TracedRead& r : reads) {
    if (r.latency < p99 || r.trace == nullptr || r.trace->spans.empty()) {
      continue;
    }
    ++tail;
    const auto& spans = r.trace->spans;
    const double root = spans.front().duration_seconds;
    std::map<std::string, std::vector<std::pair<double, double>>> by_stage;
    std::vector<std::pair<double, double>> children;
    for (size_t i = 1; i < spans.size(); ++i) {
      const double s = spans[i].start_seconds;
      const double e = s + spans[i].duration_seconds;
      by_stage[StageOf(spans[i].name)].emplace_back(s, e);
      children.emplace_back(s, e);
    }
    for (auto& [name, iv] : by_stage) stage[name] += Covered(iv);
    stage["other"] += std::max(0.0, root - Covered(children));
    stage["queue"] += std::max(0.0, r.latency - root);
    total += r.latency;
  }
  for (const char* s : kStages) {
    report.Set(std::string("query.stage_share_p99.") + s,
               Ratio(stage[s], total), "ratio", tail);
  }
}

void ReplayLayers(const sky::ShardMap& map,
                  const std::vector<sky::QuerySpec>& specs, int query_threads,
                  Report& report) {
  std::vector<double> plan_us, view_ms, shard_ms, skew, merge_ms, union_rows,
      zm_build_ms;
  double shards_seen = 0.0, shards_pruned = 0.0;
  double tests = 0.0, skips = 0.0, dom_seconds = 0.0;
  double blocks = 0.0, visited = 0.0, box_skipped = 0.0;
  std::vector<std::unique_ptr<sky::ZoneMapIndex>> indexes(map.shard_count());
  const auto index_of = [&](uint32_t s) -> const sky::ZoneMapIndex& {
    if (indexes[s] == nullptr) {
      const sky::Shard& shard = map.shard(s);
      sky::WallTimer t;
      indexes[s] = std::make_unique<sky::ZoneMapIndex>(
          sky::ZoneMapIndex::Build(shard.rows(), 0, &shard.sketch));
      zm_build_ms.push_back(t.Seconds() * 1e3);
    }
    return *indexes[s];
  };
  const auto account = [&](const sky::RunStats& st) {
    tests += static_cast<double>(st.dominance_tests);
    skips += static_cast<double>(st.mask_filter_hits);
    dom_seconds += st.phase1_seconds + st.phase2_seconds;
  };

  for (const sky::QuerySpec& spec : specs) {
    const sky::QuerySpec canon = spec.Canonicalize(map.dims());
    sky::Options plan_opts;
    plan_opts.algorithm = sky::Algorithm::kAuto;
    plan_opts.threads = query_threads;
    sky::WallTimer plan_timer;
    const sky::ExecutionPlan plan = sky::PlanQuery(map, canon, plan_opts);
    plan_us.push_back(plan_timer.Seconds() * 1e6);
    shards_seen += static_cast<double>(map.shard_count());
    shards_pruned += plan.pruned;

    const bool identity = canon.IsIdentityTransform();
    const bool box_only = canon.band_k == 1 && canon.IsBoxOnlyTransform() &&
                          !canon.constraints.empty();
    int view_dims = 0;
    for (const sky::Preference p : canon.preferences) {
      view_dims += p != sky::Preference::kIgnore;
    }
    // Candidate rows of every executed shard, in view space, for the merge.
    std::vector<std::vector<sky::Value>> candidates;
    std::vector<double> per_shard;
    for (size_t i = 0; i < plan.shards.size(); ++i) {
      const uint32_t s = plan.shards[i];
      const sky::Shard& shard = map.shard(s);
      sky::Options one;
      one.algorithm = plan.algorithms.empty() ? sky::Algorithm::kHybrid
                                              : plan.algorithms[i];
      one.threads = 1;
      one.count_dts = true;
      std::vector<sky::Value> rows;
      const auto keep = [&](const sky::Dataset& d,
                            const std::vector<sky::PointId>& ids) {
        for (const sky::PointId id : ids) {
          rows.insert(rows.end(), d.Row(id), d.Row(id) + d.dims());
        }
      };
      if (box_only) {
        const sky::ZoneMapIndex& index = index_of(s);
        sky::WallTimer t;
        const sky::ZonemapRunResult run = sky::ZonemapSkylineRun(
            shard.rows(), index, canon.constraints, one);
        const double ms = t.Seconds() * 1e3;
        blocks += static_cast<double>(index.block_count());
        visited += static_cast<double>(run.blocks_visited);
        box_skipped += static_cast<double>(run.blocks_box_skipped);
        if (one.algorithm == sky::Algorithm::kZonemap) {
          shard_ms.push_back(ms);
          per_shard.push_back(ms);
          account(run.stats);
          keep(shard.rows(), run.skyline);
          candidates.push_back(std::move(rows));
          continue;
        }
      }
      std::unique_ptr<sky::QueryView> view;
      if (!identity) {
        sky::WallTimer t;
        view = std::make_unique<sky::QueryView>(
            sky::MaterializeView(shard.rows(), canon));
        view_ms.push_back(t.Seconds() * 1e3);
      }
      const sky::Dataset& target = identity ? shard.rows() : view->data;
      if (target.count() > 0) {
        sky::WallTimer t;
        if (canon.band_k == 1) {
          const sky::Result run = sky::ComputeSkyline(target, one);
          account(run.stats);
          keep(target, run.skyline);
        } else {
          const sky::SkybandResult run =
              sky::ComputeSkyband(target, canon.band_k, one);
          account(run.stats);
          keep(target, run.skyband);
        }
        const double ms = t.Seconds() * 1e3;
        shard_ms.push_back(ms);
        per_shard.push_back(ms);
      }
      candidates.push_back(std::move(rows));
    }
    if (per_shard.size() >= 2) {
      double sum = 0.0, mx = 0.0;
      for (const double ms : per_shard) {
        sum += ms;
        mx = std::max(mx, ms);
      }
      skew.push_back(Ratio(mx, sum / static_cast<double>(per_shard.size())));
    }
    if (plan.merge == sky::MergeStrategy::kNone) continue;

    size_t total = 0;
    for (const auto& c : candidates) {
      total += c.size() / static_cast<size_t>(view_dims);
    }
    if (total == 0) continue;
    sky::Dataset merged(view_dims, total);
    size_t w = 0;
    for (const auto& c : candidates) {
      for (size_t off = 0; off < c.size(); off += view_dims) {
        std::copy(c.begin() + static_cast<ptrdiff_t>(off),
                  c.begin() + static_cast<ptrdiff_t>(off + view_dims),
                  merged.MutableRow(w++));
      }
    }
    sky::Options merge_opts;
    merge_opts.algorithm = plan.merge_algorithm;
    merge_opts.threads = 1;
    merge_opts.count_dts = true;
    sky::WallTimer t;
    if (canon.band_k == 1) {
      account(sky::ComputeSkyline(merged, merge_opts).stats);
    } else {
      account(sky::ComputeSkyband(merged, canon.band_k, merge_opts).stats);
    }
    merge_ms.push_back(t.Seconds() * 1e3);
    union_rows.push_back(static_cast<double>(total));
  }

  const uint64_t n = specs.size();
  report.Set("query.plan_us_p50", Median(plan_us), "us", plan_us.size());
  report.Set("query.shards_pruned_ratio", Ratio(shards_pruned, shards_seen),
             "ratio", n);
  report.Set("query.view_build_ms_p50", Median(view_ms), "ms", view_ms.size());
  report.Set("query.shard_ms_p50", Median(shard_ms), "ms", shard_ms.size());
  report.Set("query.shard_skew_p50", Median(skew), "x", skew.size());
  report.Set("query.merge_ms_p50", Median(merge_ms), "ms", merge_ms.size());
  report.Set("query.merge_union_rows_p50", Median(union_rows), "count",
             union_rows.size());
  report.Set("index.zonemap_build_ms", Median(zm_build_ms), "ms",
             zm_build_ms.size());
  report.Set("index.blocks_visited_ratio", Ratio(visited, blocks), "ratio");
  report.Set("index.blocks_box_skipped_ratio", Ratio(box_skipped, blocks),
             "ratio");
  report.Set("dominance.tests_per_s", Ratio(tests, dom_seconds), "1/s");
  report.Set("dominance.mask_skip_ratio", Ratio(skips, tests + skips),
             "ratio");
}

const std::vector<std::pair<std::string, std::string>>& EndToEndCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"ops_per_s", "ops/s"}, {"p50_ms", "ms"},          {"p99_ms", "ms"},
      {"setup_s", "s"},       {"setup_rss_mb", "MiB"},
  };
  return kCatalog;
}

const std::vector<std::pair<std::string, std::string>>& LayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog =
      [] {
        std::vector<std::pair<std::string, std::string>> c = {
            {"client.reads", "count"},
            {"client.writes", "count"},
            {"client.read_p50_ms", "ms"},
            {"client.read_p99_ms", "ms"},
            {"client.write_p50_ms", "ms"},
            {"client.write_p90_ms", "ms"},
            {"client.peak_rss_mb", "MiB"},
        };
        for (const char* algo : {"hybrid", "qflow"}) {
          const std::string a = std::string("core.") + algo;
          for (const char* t : {"t1", "tN"}) {
            c.emplace_back(a + "." + t + "_ms", "ms");
            for (const char* phase : {"phase1_s", "phase2_s", "serial_s"}) {
              c.emplace_back(a + "." + t + "." + phase, "s");
            }
          }
          c.emplace_back(a + ".dominance_tests", "count");
          c.emplace_back(a + ".speedup", "x");
        }
        c.insert(c.end(), {
                              {"dominance.tests_per_s", "1/s"},
                              {"dominance.mask_skip_ratio", "ratio"},
                              {"parallel.tasks", "count"},
                              {"parallel.inline_ratio", "ratio"},
                              {"parallel.steals", "count"},
                              {"parallel.parks_per_task", "ratio"},
                              {"parallel.queue_depth_max", "count"},
                              {"query.result_cache_hit_ratio", "ratio"},
                              {"query.view_cache_hit_ratio", "ratio"},
                              {"query.view_builds", "count"},
                              {"query.compute_ms_p50", "ms"},
                              {"query.compute_ms_p99", "ms"},
                              {"query.plan_us_p50", "us"},
                              {"query.shards_pruned_ratio", "ratio"},
                              {"query.view_build_ms_p50", "ms"},
                              {"query.shard_ms_p50", "ms"},
                              {"query.shard_skew_p50", "x"},
                              {"query.merge_ms_p50", "ms"},
                              {"query.merge_union_rows_p50", "count"},
                          });
        for (const char* s : kStages) {
          c.emplace_back(std::string("query.stage_share_p99.") + s, "ratio");
        }
        for (const char* a : {"hybrid", "qflow", "bskytree", "zonemap",
                              "other"}) {
          c.emplace_back(std::string("query.algo_share.") + a, "ratio");
        }
        for (const char* m : {"repair_dom_tests", "invalidated_results",
                              "invalidated_views", "zonemap_repairs",
                              "sketch_rebuilds", "retries"}) {
          c.emplace_back(std::string("query.mutation.") + m, "count");
        }
        c.insert(c.end(), {
                              {"query.register_s", "s"},
                              {"index.zonemap_build_ms", "ms"},
                              {"index.blocks_visited_ratio", "ratio"},
                              {"index.blocks_box_skipped_ratio", "ratio"},
                              {"obs.trace_overhead", "ratio"},
                          });
        return c;
      }();
  return kCatalog;
}

}  // namespace e2e
