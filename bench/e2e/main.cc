// Copyright (c) SkyBench-NG contributors.
// skybench_e2e: runs one workload of the end-to-end benchmark.
//
//   skybench_e2e --workload=W [--seed=S] [--seconds=T] [--trace=0|1]
//                [--smoke] [--out=DIR] [--commit=SHA]
//   skybench_e2e --selftest
//
// W is batch_scaling, serve_read, serve_mixed or serve_unique. The run
// prints every metric with its unit and sample count, writes
// DIR/result_<W>.json (plus DIR/trace_<W>.json when traced) and ends with
// one JSON line {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics, or with --trace=1 the per-layer ones. Exits 0 only
// when every checked answer matched its oracle.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "dominance/dominance.h"
#include "e2e.h"

namespace {

constexpr const char* kUsage =
    "usage: skybench_e2e --workload=batch_scaling|serve_read|serve_mixed|"
    "serve_unique [--seed=S] [--seconds=T] [--trace=0|1] [--smoke] "
    "[--out=DIR] [--commit=SHA]\n"
    "       skybench_e2e --selftest\n";

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The processor brand string, read with CPUID (no file access).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  const size_t last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

std::string HostJson(const e2e::Args& args) {
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"clients_max\": " << e2e::ClientThreads()
    << ", \"cpu\": " << e2e::JsonQuote(CpuModel())
    << ", \"avx2\": " << (sky::CpuHasAvx2() ? "true" : "false")
    << ", \"commit\": " << e2e::JsonQuote(args.commit)
    << ", \"build_type\": " << e2e::JsonQuote(SKY_E2E_BUILD_TYPE) << "}";
  return o.str();
}

std::string MetricsJson(
    const e2e::Report& report,
    const std::vector<std::pair<std::string, std::string>>& names,
    bool with_samples) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end()) continue;
    o << (first ? "" : ", ") << e2e::JsonQuote(name)
      << ": {\"value\": " << Number(it->second.value)
      << ", \"unit\": " << e2e::JsonQuote(it->second.unit);
    if (with_samples) o << ", \"samples\": " << it->second.samples;
    o << "}";
    first = false;
  }
  o << "}";
  return o.str();
}

/// Accepts --key=value and --key value.
bool ParseArgs(int argc, char** argv, e2e::Args& args, bool& selftest) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--selftest") {
      selftest = true;
      continue;
    }
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0)) return false;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        args.traced = value == "1";
      } else if (key == "--out") {
        args.out_dir = value;
      } else if (key == "--commit") {
        args.commit = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  bool selftest = false;
  if (!ParseArgs(argc, argv, args, selftest)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (selftest) {
    const std::vector<std::string> failures = e2e::SelfTest();
    for (const std::string& f : failures) {
      std::fprintf(stderr, "selftest: %s\n", f.c_str());
    }
    std::printf("selftest: %s\n", failures.empty() ? "ok" : "FAILED");
    return failures.empty() ? 0 : 1;
  }
  const bool batch = args.workload == "batch_scaling";
  if (!batch && args.workload != "serve_read" &&
      args.workload != "serve_mixed" && args.workload != "serve_unique") {
    std::fputs(kUsage, stderr);
    return 2;
  }

  e2e::Report report;
  try {
    if (batch) {
      e2e::RunBatchScaling(args, report);
    } else {
      e2e::RunServing(args, report);
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("run aborted: ") + e.what());
  }

  // Every metric a run reports must be catalogued, and a traced run
  // reports the whole layer catalog: a layer the workload bypasses reads 0.
  const auto& e2e_names = e2e::EndToEndCatalog();
  const auto& layer_names = e2e::LayerCatalog();
  std::set<std::string> known;
  for (const auto& [name, unit] : e2e_names) known.insert(name);
  for (const auto& [name, unit] : layer_names) {
    known.insert(name);
    if (args.traced && report.metrics.count(name) == 0) {
      report.Set(name, 0.0, unit, 0);
    }
  }
  for (const auto& [name, metric] : report.metrics) {
    if (known.count(name) == 0) report.Fail("uncatalogued metric " + name);
  }
  if (report.attempted == 0) report.Fail("no timed operation completed");
  for (const auto& [name, unit] : e2e_names) {
    if (report.metrics.count(name) == 0) {
      report.Fail("missing end-to-end metric " + name);
    }
  }

  std::printf("workload %s seed %llu seconds %g%s%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.traced ? " traced" : "", args.smoke ? " smoke" : "");
  for (const auto* names : {&e2e_names, &layer_names}) {
    for (const auto& [name, unit] : *names) {
      const auto it = report.metrics.find(name);
      if (it == report.metrics.end()) continue;
      std::printf("  %-34s %16.6g %-6s n=%llu\n", name.c_str(),
                  it->second.value, it->second.unit.c_str(),
                  static_cast<unsigned long long>(it->second.samples));
    }
  }
  std::printf("  attempted=%llu failed=%llu verified=%llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.verified));
  for (const std::string& p : report.problems) {
    std::printf("  problem: %s\n", p.c_str());
  }

  if (!args.out_dir.empty()) {
    std::vector<std::pair<std::string, std::string>> all = e2e_names;
    all.insert(all.end(), layer_names.begin(), layer_names.end());
    std::ofstream out(args.out_dir + "/result_" + args.workload + ".json");
    out << "{\"workload\": " << e2e::JsonQuote(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"seconds\": " << Number(args.seconds)
        << ", \"traced\": " << (args.traced ? "true" : "false")
        << ", \"smoke\": " << (args.smoke ? "true" : "false")
        << ", \"host\": " << HostJson(args)
        << ", \"correct\": " << (report.correct ? "true" : "false")
        << ", \"attempted\": " << report.attempted
        << ", \"failed\": " << report.failed
        << ", \"verified\": " << report.verified
        << ", \"metrics\": " << MetricsJson(report, all, true) << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(report, args.traced ? layer_names : e2e_names, false)
                  .c_str());
  return report.correct ? 0 : 1;
}
