// Copyright (c) SkyBench-NG contributors.
// Fault-injection (failpoint) harness for the serving and mutation paths.
//
// A failpoint is a named site in the code — SKY_FAILPOINT("view_build")
// — that normally costs one relaxed atomic load. Arming a site (via the
// API, a CLI --failpoint flag, or the SKYBENCH_FAILPOINTS environment
// variable) makes the site throw, allocate-fail, error, or delay with a
// configurable probability, so tests can prove that every failure mode
// surfaces as a clean error Status or an exact answer — never a torn
// result. Probability draws are deterministic (a per-site counter fed
// through splitmix64), so a failing injection run replays exactly.
//
// Site catalog (kept current in README.md "Robust serving"):
//   view_build      any non-identity load or view: box filter, projection
//                   or MAX flip — once per RowSource load (data/
//                   row_source.cc; engine shard runs) and once per
//                   MaterializeView (query/view.cc; the RunQuery path)
//   zonemap_build   building the block zonemap index
//   shard_execute   per-shard algorithm run inside the fan-out
//   shard_repair    delta repair of one shard on insert/delete
//   merge_union     the M(S) union-then-filter merge stage
//   executor_task   every task the work-stealing executor runs
//   result_cache_put  admission of a finished result into the cache
#ifndef SKY_COMMON_FAILPOINT_H_
#define SKY_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace sky {

/// Thrown by a site armed in kError mode: the "clean, expected error"
/// injection (e.g. a failed I/O), distinct from kThrow's generic
/// runtime_error so tests can tell the two containment paths apart.
class FailPointError : public std::runtime_error {
 public:
  explicit FailPointError(const std::string& site)
      : std::runtime_error("failpoint '" + site + "': injected error"),
        site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

class FailPoints {
 public:
  enum class Mode : uint8_t {
    kThrow,     ///< throw std::runtime_error (an unexpected bug)
    kBadAlloc,  ///< throw std::bad_alloc (allocation failure)
    kError,     ///< throw FailPointError (an expected, typed failure)
    kDelay,     ///< sleep delay_ms (a slow dependency / page fault storm)
  };

  /// Process-wide registry. First use arms every spec found in the
  /// SKYBENCH_FAILPOINTS env var ("site:mode[:p[:delay_ms]]", comma
  /// separated), so injection works in any binary without plumbing.
  static FailPoints& Instance();

  /// Arm `site`. `probability` in [0,1] is the per-hit trip chance
  /// (clamped); `delay_ms` only matters for kDelay.
  void Arm(const std::string& site, Mode mode, double probability = 1.0,
           int delay_ms = 10);
  /// Arm from a "site:mode[:p[:delay_ms]]" spec. Returns false (and sets
  /// *error when non-null) on a malformed spec.
  bool ArmFromSpec(const std::string& spec, std::string* error = nullptr);
  void Disarm(const std::string& site);
  void DisarmAll();

  /// Times the site was reached / actually tripped since armed.
  uint64_t Hits(const std::string& site) const;
  uint64_t Trips(const std::string& site) const;
  std::vector<std::string> ArmedSites() const;

  static const char* ModeName(Mode mode);
  /// Parse "throw" / "bad_alloc" / "error" / "delay"; false on junk.
  static bool ParseMode(const std::string& name, Mode* mode);

  /// True when any site is armed — the only check on the fast path.
  bool armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Slow path: look the site up and fire its configured behaviour.
  void Evaluate(const char* site);

 private:
  FailPoints();

  struct SiteState {
    Mode mode = Mode::kThrow;
    double probability = 1.0;
    int delay_ms = 10;
    uint64_t hits = 0;
    uint64_t trips = 0;
    uint64_t draws = 0;  // deterministic probability stream position
  };

  std::atomic<int> armed_count_{0};
  mutable std::mutex mu_;
  std::unordered_map<std::string, SiteState> sites_;  // guarded by mu_
};

/// The site marker. One relaxed load when nothing is armed.
inline void MaybeFailPoint(const char* site) {
  FailPoints& fp = FailPoints::Instance();
  if (fp.armed()) fp.Evaluate(site);
}

#define SKY_FAILPOINT(site) ::sky::MaybeFailPoint(site)

}  // namespace sky

#endif  // SKY_COMMON_FAILPOINT_H_
