// Copyright (c) SkyBench-NG contributors.
// skybench — command-line front end for the library, in the spirit of the
// paper's released SkyBench suite: run any implemented algorithm on a
// generated or loaded dataset and report timing, phase breakdown and
// dominance-test counts.
//
// Examples:
//   skybench --algo=hybrid --dist=anti --n=1000000 --d=12 --threads=16
//   skybench --algo=qflow --input=points.csv --alpha=8192 --stats
//   skybench --algo=all --dist=indep --n=100000 --d=8 --verify
//
// Query-engine flags (any of them routes the run through SkylineEngine):
//   skybench --dist=house --n=50000 --minmax=min,max,min,min,max,min
//   skybench --input=points.csv --project=0,2,5 --constrain=0:0.1:0.9
//   skybench --algo=qflow --dist=anti --kband=3 --topk=10
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/version.h"
#include "core/algorithm_registry.h"
#include "core/skyline.h"
#include "data/generator.h"
#include "data/realistic.h"
#include "dominance/dominance.h"
#include "obs/export.h"
#include "query/engine.h"
#include "query/shard_map.h"

namespace sky {
namespace {

struct CliArgs {
  std::string algo = "hybrid";
  std::string dist = "indep";
  std::string input;      // CSV or binary path; overrides generation
  std::string format = "auto";  // input parsing: auto|csv|bin
  std::string output;     // write result rows; *.bin selects SaveBinary
  size_t n = 100'000;
  int d = 8;
  int threads = 0;
  size_t alpha = 0;
  std::string pivot = "median";
  uint64_t seed = 42;
  bool no_simd = false;
  bool stats = false;
  bool verify = false;
  // Query-engine surface; any non-default value routes through the engine.
  std::string minmax;     // per-dim preference list, e.g. "min,max,ignore"
  std::string project;    // keep-list of dimension indices, e.g. "0,2,5"
  std::string constrain;  // box constraints, e.g. "1:0.2:0.8,3:*:0.5"
  uint32_t kband = 1;     // band depth (1 = skyline)
  size_t topk = 0;        // ranked result cap (0 = all)
  size_t shards = 1;      // engine shard count (1 = unsharded)
  std::string shard_policy = "rr";  // rr|median
  int executor_threads = 0;  // engine shared-executor width (0 = hardware)
  std::string insert_csv;  // rows to InsertPoints after registration
  std::string delete_ids;  // ids to DeletePoints after registration
  // Robust serving: deadline applies to both paths; the admission /
  // serve-stale knobs are engine config. --failpoint specs are armed
  // directly at parse time (process-wide registry).
  double deadline_ms = 0;  // per-query wall-clock budget (0 = none)
  int max_inflight = 0;    // engine admission cap (0 = unlimited)
  bool serve_stale = false;  // answer shed/timed-out queries from
                             // expired cache entries, marked stale
  bool trace = false;      // print the per-query span tree
  std::string stats_json;  // write the engine metrics snapshot as JSON
  std::string stats_prom;  // write it as Prometheus text exposition

  bool UsesQueryEngine() const {
    return !minmax.empty() || !project.empty() || !constrain.empty() ||
           kband != 1 || topk != 0 || shards > 1 || !insert_csv.empty() ||
           !delete_ids.empty() || trace || !stats_json.empty() ||
           !stats_prom.empty() || max_inflight != 0 || serve_stale;
  }
};

[[noreturn]] void Version() {
  std::printf("skybench %s (%s build, AVX2 kernels %s, cpu avx2 %s)\n",
              kVersionString, kBuildType[0] != '\0' ? kBuildType : "unknown",
              kBuildHasAvx2 ? "compiled" : "absent",
              CpuHasAvx2() ? "yes" : "no");
  std::exit(0);
}

[[noreturn]] void Usage(int exit_code = 2) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "usage: skybench [options]\n"
      "  --algo=NAME      bnl|sfs|less|salsa|sskyline|pskyline|psfs|qflow|\n"
      "                   hybrid|bskytree|pbskytree|zonemap|all\n"
      "                   (default hybrid)\n"
      "                   auto = cost-model selection per query and shard\n"
      "  --dist=NAME      corr|indep|anti|nba|house|weather  (default indep)\n"
      "  --n=N --d=D      generated workload size             (1e5 x 8)\n"
      "  --input=PATH     load CSV or binary snapshot instead of generating\n"
      "  --format=NAME    input format: auto|csv|bin     (default auto:\n"
      "                   sniff the binary magic, else CSV)\n"
      "  --output=PATH    write result points (*.bin = binary snapshot,\n"
      "                   else CSV)\n"
      "  --threads=T      0 = all hardware threads; clamped at the hardware\n"
      "                   width (the engine executor's, on engine runs)\n"
      "  --alpha=A        block size (0 = paper default)\n"
      "  --pivot=NAME     median|balanced|manhattan|volume|random\n"
      "  --seed=S         generator / random pivot seed\n"
      "  --no-simd        scalar dominance kernels\n"
      "  --stats          print the phase breakdown\n"
      "  --verify         cross-check against the BNL oracle\n"
      "query engine (any of these routes the run through SkylineEngine):\n"
      "  --minmax=LIST    per-dim preference: min|max|ignore (or -,+,_)\n"
      "  --project=LIST   keep only these dimension indices, e.g. 0,2,5\n"
      "  --constrain=SPEC box constraints DIM:LO:HI[,...]; * = unbounded\n"
      "  --kband=K        k-skyband: points with < K dominators (default 1)\n"
      "  --topk=K         cap ranked results at K points (default all)\n"
      "  --shards=K       split the dataset into K engine shards; queries\n"
      "                   plan, prune and merge per shard (default 1)\n"
      "  --shard-policy=P rr|median row-to-shard assignment (default rr)\n"
      "  --executor-threads=T width of the engine's shared work-stealing\n"
      "                   executor (0 = all hardware threads; 1 = inline);\n"
      "                   --threads then caps each query's share of it\n"
      "  --insert-csv=P   after load, insert the rows of file P (CSV or\n"
      "                   binary snapshot) via the incremental delta path;\n"
      "                   new rows take ids N, N+1, ...\n"
      "  --delete-ids=L   after load (and any insert), delete these row\n"
      "                   ids, e.g. 3,17,42; surviving ids compact down\n"
      "robust serving:\n"
      "  --deadline-ms=D  per-query wall-clock budget in milliseconds; a\n"
      "                   run that overshoots stops at the next checkpoint\n"
      "                   (parallel algorithms and the zonemap path only)\n"
      "  --max-inflight=N admission cap on concurrent fresh computes in the\n"
      "                   engine (0 = unlimited); over-cap queries are shed\n"
      "  --serve-stale    answer shed or timed-out queries from a\n"
      "                   TTL-expired result-cache entry, marked stale\n"
      "  --failpoint=SPEC arm a fault-injection site, repeatable:\n"
      "                   NAME:MODE[:P[:DELAY_MS]], MODE one of\n"
      "                   throw|bad_alloc|error|delay (see README for the\n"
      "                   site catalog); also via SKYBENCH_FAILPOINTS env\n"
      "observability:\n"
      "  --trace          print each query's span tree (plan, per-shard\n"
      "                   execute, merge, cache put) after the result line\n"
      "  --stats-json=P   write the engine metrics snapshot to P as JSON\n"
      "  --stats-prom=P   write it to P as Prometheus text exposition\n"
      "  --version        print build identity and exit\n"
      "  --help           print this message and exit\n"
      "exit codes: 0 success; 1 --verify mismatch; 2 usage or input\n"
      "errors; 3 query refused at runtime (deadline exceeded, shed by\n"
      "admission control, or an injected/internal failure)\n");
  std::exit(exit_code);
}

/// Strict non-negative integer parse for the query flags (a negative or
/// over-range --kband would otherwise wrap through the unsigned cast).
unsigned long long ParseCount(const char* text, const char* flag,
                              unsigned long long max_value) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0' || v < 0 ||
      static_cast<unsigned long long>(v) > max_value) {
    std::fprintf(stderr,
                 "error: %s wants an integer in [0, %llu], got '%s'\n", flag,
                 max_value, text);
    std::exit(2);
  }
  return static_cast<unsigned long long>(v);
}

/// Strict non-negative millisecond parse for --deadline-ms (fractional
/// budgets are allowed; junk or negatives exit 2 like every flag error).
double ParseMillis(const char* text, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (errno == ERANGE || end == text || *end != '\0' || !(v >= 0)) {
    std::fprintf(stderr, "error: %s wants a non-negative number, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return v;
}

/// Comma-separated row ids for --delete-ids. ParseIndexList is the wrong
/// tool here: it range-checks against the dimension count.
std::vector<PointId> ParseIdList(const std::string& text) {
  std::vector<PointId> ids;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    ids.push_back(static_cast<PointId>(
        ParseCount(token.c_str(), "--delete-ids", UINT32_MAX)));
    pos = comma + 1;
  }
  return ids;
}

bool Flag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

CliArgs Parse(int argc, char** argv) {
  CliArgs a;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (Flag(argv[i], "--algo", &v) && v) a.algo = v;
    else if (Flag(argv[i], "--dist", &v) && v) a.dist = v;
    else if (Flag(argv[i], "--input", &v) && v) a.input = v;
    else if (Flag(argv[i], "--format", &v) && v) a.format = v;
    else if (Flag(argv[i], "--output", &v) && v) a.output = v;
    else if (Flag(argv[i], "--n", &v) && v)
      a.n = static_cast<size_t>(std::atoll(v));
    else if (Flag(argv[i], "--d", &v) && v) a.d = std::atoi(v);
    else if (Flag(argv[i], "--threads", &v) && v) a.threads = std::atoi(v);
    else if (Flag(argv[i], "--alpha", &v) && v)
      a.alpha = static_cast<size_t>(std::atoll(v));
    else if (Flag(argv[i], "--pivot", &v) && v) a.pivot = v;
    else if (Flag(argv[i], "--seed", &v) && v)
      a.seed = static_cast<uint64_t>(std::atoll(v));
    else if (Flag(argv[i], "--minmax", &v) && v) a.minmax = v;
    else if (Flag(argv[i], "--project", &v) && v) a.project = v;
    else if (Flag(argv[i], "--constrain", &v) && v) a.constrain = v;
    else if (Flag(argv[i], "--kband", &v) && v)
      a.kband = static_cast<uint32_t>(ParseCount(v, "--kband", UINT32_MAX));
    else if (Flag(argv[i], "--topk", &v) && v)
      a.topk = static_cast<size_t>(ParseCount(v, "--topk", SIZE_MAX));
    else if (Flag(argv[i], "--shards", &v) && v)
      a.shards = static_cast<size_t>(ParseCount(v, "--shards", 1'000'000));
    else if (Flag(argv[i], "--shard-policy", &v) && v) a.shard_policy = v;
    else if (Flag(argv[i], "--executor-threads", &v) && v)
      a.executor_threads = std::atoi(v);
    else if (Flag(argv[i], "--insert-csv", &v) && v) a.insert_csv = v;
    else if (Flag(argv[i], "--delete-ids", &v) && v) a.delete_ids = v;
    else if (Flag(argv[i], "--deadline-ms", &v) && v)
      a.deadline_ms = ParseMillis(v, "--deadline-ms");
    else if (Flag(argv[i], "--max-inflight", &v) && v)
      a.max_inflight =
          static_cast<int>(ParseCount(v, "--max-inflight", 1'000'000));
    else if (Flag(argv[i], "--serve-stale", &v)) a.serve_stale = true;
    else if (Flag(argv[i], "--failpoint", &v) && v) {
      std::string err;
      if (!FailPoints::Instance().ArmFromSpec(v, &err)) {
        std::fprintf(stderr, "error: --failpoint: %s\n", err.c_str());
        std::exit(2);
      }
    }
    else if (Flag(argv[i], "--trace", &v)) a.trace = true;
    else if (Flag(argv[i], "--stats-json", &v) && v) a.stats_json = v;
    else if (Flag(argv[i], "--stats-prom", &v) && v) a.stats_prom = v;
    else if (Flag(argv[i], "--no-simd", &v)) a.no_simd = true;
    else if (Flag(argv[i], "--stats", &v)) a.stats = true;
    else if (Flag(argv[i], "--verify", &v)) a.verify = true;
    else if (Flag(argv[i], "--version", &v)) Version();
    else if (Flag(argv[i], "--help", &v) || std::strcmp(argv[i], "-h") == 0)
      Usage(0);
    else Usage();
  }
  return a;
}

Dataset LoadData(const CliArgs& a) {
  if (!a.input.empty()) {
    if (a.format == "bin") return Dataset::LoadBinary(a.input);
    if (a.format == "csv") return Dataset::LoadCsv(a.input);
    // auto: the snapshot magic decides, so binary inputs need no
    // particular file extension.
    return Dataset::SniffBinary(a.input) ? Dataset::LoadBinary(a.input)
                                         : Dataset::LoadCsv(a.input);
  }
  if (a.dist == "nba") return GenerateNbaLike(a.n, a.seed);
  if (a.dist == "house") return GenerateHouseLike(a.n, a.seed);
  if (a.dist == "weather") return GenerateWeatherLike(a.n, a.seed);
  return GenerateSynthetic(ParseDistribution(a.dist), a.n, a.d, a.seed);
}

Options BuildOptions(const CliArgs& a, Algorithm algo) {
  Options o;
  o.algorithm = algo;
  o.threads = a.threads;
  o.alpha = a.alpha;
  o.pivot = ParsePivotPolicy(a.pivot);
  o.use_simd = !a.no_simd;
  o.count_dts = true;
  o.trace = a.trace;
  o.seed = a.seed;
  o.deadline_ms = a.deadline_ms;
  return o;
}

/// Write the selected rows (original dimensions) of `data` to `path` —
/// a binary snapshot when the path ends in ".bin", CSV otherwise.
void WriteRows(const Dataset& data, const std::vector<PointId>& ids,
               const std::string& path, const char* what) {
  Dataset out(data.dims(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(out.MutableRow(i), data.Row(ids[i]),
                sizeof(Value) * static_cast<size_t>(data.dims()));
  }
  const bool bin =
      path.size() > 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
  if (bin) {
    out.SaveBinary(path);
  } else {
    out.SaveCsv(path);
  }
  std::printf("  wrote %zu %s rows to %s (%s)\n", out.count(), what,
              path.c_str(), bin ? "bin" : "csv");
}

void RunOne(const Dataset& data, Algorithm algo, const CliArgs& a) {
  Result r;
  try {
    r = ComputeSkyline(data, BuildOptions(a, algo));
  } catch (const CancelledError& err) {
    // The library path has no QueryResult::status to carry the refusal,
    // so the deadline surfaces here as the documented runtime exit code.
    std::printf("%-10s status=%s\n", AlgorithmName(algo),
                StatusName(err.reason()));
    std::exit(3);
  }
  std::printf("%-10s time=%.4fs |sky|=%zu dts=%llu\n", AlgorithmName(algo),
              r.stats.total_seconds, r.skyline.size(),
              static_cast<unsigned long long>(r.stats.dominance_tests));
  if (a.stats) std::printf("  %s\n", r.stats.ToString().c_str());
  if (a.verify) {
    if (VerifySkyline(data, r.skyline)) {
      std::printf("  verification: OK\n");
    } else {
      std::printf("  verification: FAILED\n");
      std::exit(1);
    }
  }
  if (!a.output.empty()) WriteRows(data, r.skyline, a.output, "skyline");
}

QuerySpec BuildSpec(const CliArgs& a, int dims) {
  QuerySpec spec;
  if (!a.minmax.empty()) {
    spec.preferences = ParsePreferenceList(a.minmax);
    if (spec.preferences.size() != static_cast<size_t>(dims)) {
      throw std::runtime_error("--minmax lists " +
                               std::to_string(spec.preferences.size()) +
                               " preferences for a d=" + std::to_string(dims) +
                               " dataset");
    }
  }
  if (!a.project.empty()) spec.Project(ParseIndexList(a.project), dims);
  if (!a.constrain.empty()) spec.constraints = ParseConstraintList(a.constrain);
  spec.band_k = a.kband;
  spec.top_k = a.topk;
  return spec;
}

void RunQueryOne(SkylineEngine& engine, const Dataset& data, Algorithm algo,
                 const CliArgs& a) {
  const QuerySpec spec = BuildSpec(a, data.dims());
  const QueryResult r = engine.Execute("cli", spec, BuildOptions(a, algo));
  if (r.status != Status::kOk && !r.stale) {
    // Clean refusal: the engine returned no rows (errors never carry a
    // result). Truncated partials need a progressive consumer, which the
    // CLI is not, so this prints and exits with the runtime code.
    std::printf("%-10s status=%s\n",
                a.kband > 1 ? "skyband" : AlgorithmName(algo),
                StatusName(r.status));
    std::exit(3);
  }
  // The k-skyband path is algorithm-independent (ComputeSkyband ignores
  // the algorithm selection), so labelling it with an algorithm name
  // would misattribute the timing.
  std::printf("%-10s time=%.4fs |result|=%zu matched=%zu%s%s\n",
              a.kband > 1 ? "skyband" : AlgorithmName(algo),
              r.stats.total_seconds, r.ids.size(), r.matched_rows,
              r.cache_hit ? " [cached]" : "", r.stale ? " [stale]" : "");
  if (a.shards > 1) {
    std::printf("  shards: policy=%s executed=%u pruned=%u\n",
                a.shard_policy.c_str(), r.shards_executed, r.shards_pruned);
  }
  if (algo == Algorithm::kAuto) {
    // The cost model's decision, one entry per executed shard.
    std::printf("  auto:");
    for (const Algorithm chosen : r.shard_algorithms) {
      std::printf(" %s", AlgorithmName(chosen));
    }
    std::printf("\n");
  }
  if (a.trace && r.trace != nullptr) {
    std::printf("%s", r.trace->Render().c_str());
  }
  if (a.stats) std::printf("  %s\n", r.stats.ToString().c_str());
  if (a.verify) {
    if (VerifyQuery(data, spec, r)) {
      std::printf("  verification: OK\n");
    } else {
      std::printf("  verification: FAILED\n");
      std::exit(1);
    }
  }
  if (!a.output.empty()) WriteRows(data, r.ids, a.output, "result");
}

}  // namespace
}  // namespace sky

int main(int argc, char** argv) try {
  const sky::CliArgs args = sky::Parse(argc, argv);
  if (args.input.empty() && (args.d < 1 || args.d > sky::kMaxDims)) {
    std::fprintf(stderr, "error: --d must be in [1, %d], got %d\n",
                 sky::kMaxDims, args.d);
    return 2;
  }
  if (args.format != "auto" && args.format != "csv" && args.format != "bin") {
    std::fprintf(stderr, "error: unknown --format '%s' (want auto|csv|bin)\n",
                 args.format.c_str());
    return 2;
  }
  // Resolved before the data load so a typo fails fast.
  const sky::ShardPolicy shard_policy =
      sky::ParseShardPolicy(args.shard_policy);
  // Resolve algorithm names before the (possibly expensive) data load so
  // a typo fails fast.
  std::vector<sky::Algorithm> algos;
  if (args.algo == "all") {
    // Sweep the whole registry: a new algorithm row joins --algo=all
    // (and its verify coverage) automatically.
    for (const sky::AlgorithmDescriptor& desc : sky::AlgorithmTable()) {
      algos.push_back(desc.algorithm);
    }
  } else {
    algos.push_back(sky::ParseAlgorithm(args.algo));
  }
  sky::Dataset data = sky::LoadData(args);
  std::printf("dataset: n=%zu d=%d\n", data.count(), data.dims());
  // --algo=auto (any spelling ParseAlgorithm accepts) routes through
  // the engine too: selection happens at plan time from
  // registration-time sketches, and the per-shard decisions are
  // reported on the result.
  const bool auto_algo =
      algos.size() == 1 && algos[0] == sky::Algorithm::kAuto;
  if (args.UsesQueryEngine() || auto_algo) {
    // Route through the serving layer: register once (padded rows and the
    // shard decomposition built at load), then execute against the
    // registered dataset.
    sky::SkylineEngine::Config cfg;
    cfg.shards = args.shards;
    cfg.shard_policy = shard_policy;
    cfg.executor_threads = args.executor_threads;
    cfg.max_inflight = args.max_inflight;
    cfg.serve_stale = args.serve_stale;
    sky::SkylineEngine engine(cfg);
    engine.RegisterDataset("cli", std::move(data));
    if (!args.insert_csv.empty()) {
      // Incremental delta path: only the touched shards repair their
      // skylines; the registration is not rebuilt.
      sky::Dataset extra = sky::Dataset::SniffBinary(args.insert_csv)
                               ? sky::Dataset::LoadBinary(args.insert_csv)
                               : sky::Dataset::LoadCsv(args.insert_csv);
      const size_t added = extra.count();
      engine.InsertPoints("cli", extra);
      std::printf("inserted %zu rows from %s (minor v%llu)\n", added,
                  args.insert_csv.c_str(),
                  static_cast<unsigned long long>(engine.MinorVersion("cli")));
    }
    if (!args.delete_ids.empty()) {
      const std::vector<sky::PointId> drop =
          sky::ParseIdList(args.delete_ids);
      engine.DeletePoints("cli", drop);
      std::printf("deleted %zu rows (minor v%llu); surviving ids compacted\n",
                  drop.size(),
                  static_cast<unsigned long long>(engine.MinorVersion("cli")));
    }
    const std::shared_ptr<const sky::Dataset> ds = engine.Find("cli");
    if (args.kband > 1 && algos.size() > 1) {
      // The skyband path ignores the algorithm selection: an --algo=all
      // sweep would run the identical computation once per name.
      std::printf(
          "note: --kband is algorithm-independent; running once\n");
      algos.resize(1);
    }
    for (const sky::Algorithm algo : algos) {
      sky::RunQueryOne(engine, *ds, algo, args);
      // In --algo=all sweeps each algorithm should compute, not replay the
      // previous algorithm's cached answer.
      if (algos.size() > 1) engine.ClearCache();
    }
    if (!args.stats_json.empty() || !args.stats_prom.empty()) {
      const sky::obs::MetricsSnapshot snap = engine.Metrics().Snapshot();
      if (!args.stats_json.empty()) {
        sky::obs::WriteTextFile(args.stats_json, sky::obs::RenderJson(snap));
        std::printf("wrote metrics snapshot (json) to %s\n",
                    args.stats_json.c_str());
      }
      if (!args.stats_prom.empty()) {
        sky::obs::WriteTextFile(args.stats_prom,
                                sky::obs::RenderPrometheus(snap));
        std::printf("wrote metrics snapshot (prometheus) to %s\n",
                    args.stats_prom.c_str());
      }
    }
  } else {
    for (const sky::Algorithm algo : algos) sky::RunOne(data, algo, args);
  }
  return 0;
} catch (const std::exception& e) {
  // Unknown algorithm/distribution names and unreadable inputs surface
  // here; fail with a clean diagnostic instead of std::terminate.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
