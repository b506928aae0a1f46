// Copyright (c) SkyBench-NG contributors.
#include "core/options.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "core/algorithm_registry.h"
#include "parallel/executor.h"

namespace sky {
namespace {

/// Case- and dash-insensitive normal form, so "Q-Flow", "qflow" and
/// "BSkyTree-S"/"bskytrees" all parse ("auto" included).
std::string NormalizeAlgorithmName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (c == '-') continue;
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

}  // namespace

const char* AlgorithmName(Algorithm algo) {
  if (algo == Algorithm::kAuto) return "auto";
  for (const AlgorithmDescriptor& desc : AlgorithmTable()) {
    if (desc.algorithm == algo) return desc.name;
  }
  return "?";
}

Algorithm ParseAlgorithm(const std::string& name) {
  const std::string norm = NormalizeAlgorithmName(name);
  if (norm == "auto") return Algorithm::kAuto;
  for (const AlgorithmDescriptor& desc : AlgorithmTable()) {
    if (norm == NormalizeAlgorithmName(desc.parse_name) ||
        norm == NormalizeAlgorithmName(desc.name)) {
      return desc.algorithm;
    }
  }
  throw std::invalid_argument("unknown algorithm '" + name +
                              "' (valid: " + AlgorithmNameList() + ")");
}

bool IsParallelAlgorithm(Algorithm algo) {
  if (algo == Algorithm::kAuto) return true;  // may resolve to parallel
  return GetAlgorithmDescriptor(algo).parallel;
}

size_t Options::AlphaFor(Algorithm algo) const {
  if (alpha != 0) return alpha;
  switch (algo) {
    case Algorithm::kHybrid:
      return size_t{1} << 10;  // paper Fig. 8
    default:
      return size_t{1} << 13;  // paper Fig. 7 (kAuto: resolved upstream)
  }
}

int Options::ResolvedThreads() const {
  return threads > 0 ? threads : Executor::DefaultThreads();
}

Executor* Options::ResolvedExecutor() const {
  if (executor != nullptr) return executor;
  return ResolvedThreads() > 1 ? &Executor::Default() : nullptr;
}

}  // namespace sky
