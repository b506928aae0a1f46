// Copyright (c) SkyBench-NG contributors.
// Thread-safe cache of finished query results, keyed by the engine's
// canonical (dataset version | spec) strings, that evicts by the compute a
// result saves rather than by recency: GreedyDual-Size-Frequency (Cao &
// Irani, USITS'97; Cherkasova, HP Labs 1998). Each entry records the wall
// seconds of the compute that produced it (its cost) and its hit count;
// its priority is H = clock + cost * max(1, hits), and the cache evicts
// the lowest H, ties to the least recently used, then raises the clock to
// the victim's H. A result hit often or expensive to recompute outlives a
// stream of cheap one-off misses, while one never hit again ages out as
// the clock rises past it. Priority is not divided by size: the byte
// budget bounds size on its own.
//
// Entries are shared_ptrs so a hit never copies the (possibly large) id
// vectors under the lock and an eviction never invalidates a result a
// reader still holds. Eviction is entry-capped and, optionally,
// byte-capped: a SizeFn prices each value. The fresh entry of a Put is a
// victim candidate like any other, so a result cheaper than everything
// resident, or larger than the whole byte budget, is simply not retained.
// An optional TTL expires entries lazily on Get, for refresh-heavy
// workloads where a stale-but-cached answer is worse than a recompute.
#ifndef SKY_QUERY_RESULT_CACHE_H_
#define SKY_QUERY_RESULT_CACHE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace sky {

template <typename V>
class ResultCache {
 public:
  /// Byte price of one cached value (payload estimate, not allocator
  /// truth). nullptr prices everything at zero.
  using SizeFn = size_t (*)(const V&);

  explicit ResultCache(size_t capacity) : ResultCache(capacity, 0, nullptr) {}

  /// `byte_capacity` == 0 disables the byte budget; `capacity` == 0
  /// disables caching entirely; `ttl_seconds` <= 0 disables expiry.
  ResultCache(size_t capacity, size_t byte_capacity, SizeFn size_fn,
              double ttl_seconds = 0.0)
      : capacity_(capacity),
        byte_capacity_(byte_capacity),
        size_fn_(size_fn),
        ttl_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(std::max(0.0, ttl_seconds)))) {}

  /// Fetch and count a hit, raising the entry's priority; nullptr on
  /// miss. An entry older than the TTL counts as a miss: it is erased
  /// here (lazy expiry — no reaper thread) and ttl_evictions is
  /// incremented.
  std::shared_ptr<const V> Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    if (Expired(it->second)) {
      Erase(it);
      ++ttl_evictions_;
      ++evictions_;
      ++misses_;
      return nullptr;
    }
    return Hit(it->second);
  }

  /// Like Get, but a TTL-expired entry is returned anyway — with
  /// `*expired` set — instead of being erased: the engine's serve-stale
  /// fallback answers a shed or timed-out query from the expired value,
  /// and a later successful recompute's Put refreshes the entry in
  /// place. An expired return still counts as a miss (a recompute is
  /// expected) plus a stale_hits tick; only a fresh return is a hit.
  std::shared_ptr<const V> GetAllowStale(const std::string& key,
                                         bool* expired) {
    std::lock_guard<std::mutex> lock(mu_);
    *expired = false;
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    if (Expired(it->second)) {
      *expired = true;
      ++stale_hits_;
      ++misses_;
      return it->second.value;
    }
    return Hit(it->second);
  }

  /// Insert (or refresh) a value whose compute took `cost_seconds`, then
  /// evict lowest-priority entries, the fresh one included, past either
  /// cap. A refresh takes the new cost and keeps the hit count. A
  /// capacity of 0 disables caching entirely.
  void Put(const std::string& key, std::shared_ptr<const V> value,
           double cost_seconds) {
    if (capacity_ == 0) return;
    const size_t entry_bytes = (size_fn_ != nullptr && value != nullptr)
                                   ? size_fn_(*value)
                                   : 0;
    // Also maps NaN to 0: a priority must order.
    const double cost = cost_seconds > 0.0 ? cost_seconds : 0.0;
    std::lock_guard<std::mutex> lock(mu_);
    if (byte_capacity_ != 0 && entry_bytes > byte_capacity_) {
      // It would be its own victim, after every cheaper entry.
      ++byte_evictions_;
      ++evictions_;
      return;
    }
    auto [it, fresh] = index_.try_emplace(key);
    Entry& e = it->second;
    bytes_ -= e.bytes;
    e.value = std::move(value);
    e.bytes = entry_bytes;
    e.inserted = Clock::now();  // a refresh restarts the TTL
    e.cost = cost;
    bytes_ += entry_bytes;
    if (fresh) {
      try {
        e.pos = order_.emplace(Rank{Priority(e), ++tick_}, &it->first).first;
      } catch (...) {  // leave no entry without its order_ node
        bytes_ -= entry_bytes;
        index_.erase(it);
        throw;
      }
    } else {
      Rerank(e);
    }
    while (!order_.empty() &&
           (index_.size() > capacity_ ||
            (byte_capacity_ != 0 && bytes_ > byte_capacity_))) {
      if (index_.size() <= capacity_) ++byte_evictions_;
      const auto victim = order_.begin();
      clock_ = victim->first.first;
      Erase(index_.find(*victim->second));
      ++evictions_;
    }
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    order_.clear();
    bytes_ = 0;
  }

  /// Drop every entry whose key starts with `prefix`. O(entries); used
  /// when a dataset generation dies (eviction / re-registration) so its
  /// unreachable results stop pinning memory and cache slots.
  size_t ErasePrefix(const std::string& prefix) {
    return EditPrefix(prefix, [](const std::string&,
                                 const std::shared_ptr<const V>&) {
      return std::shared_ptr<const V>();
    });
  }

  /// Selective invalidation: visit every entry whose key starts with
  /// `prefix` and let `fn(key, value)` decide its fate — return the
  /// value unchanged to keep it, nullptr to erase it, or a different
  /// shared_ptr to replace it in place (bytes re-priced; cost, hit count
  /// and priority kept). O(entries); the mutation path uses this to keep
  /// provably unaffected results alive across a minor-version bump
  /// instead of purging the whole generation. Returns the number erased.
  template <typename Fn>
  size_t EditPrefix(const std::string& prefix, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t erased = 0;
    for (auto it = index_.begin(); it != index_.end();) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) {
        ++it;
        continue;
      }
      Entry& e = it->second;
      std::shared_ptr<const V> next = fn(it->first, e.value);
      if (next == nullptr) {
        it = Erase(it);
        ++erased;
        continue;
      }
      if (next.get() != e.value.get()) {
        bytes_ -= e.bytes;
        e.bytes = size_fn_ != nullptr ? size_fn_(*next) : 0;
        bytes_ += e.bytes;
        e.value = std::move(next);
      }
      ++it;
    }
    return erased;
  }

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;       ///< total evictions (any cause)
    uint64_t byte_evictions = 0;  ///< evictions forced by the byte budget
    uint64_t ttl_evictions = 0;   ///< entries lazily expired by the TTL
    uint64_t stale_hits = 0;      ///< expired entries GetAllowStale returned
    double saved_seconds = 0.0;   ///< summed recorded cost of every hit
    size_t entries = 0;
    size_t bytes = 0;             ///< priced bytes currently resident
  };

  Counters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    Counters c;
    c.hits = hits_;
    c.misses = misses_;
    c.evictions = evictions_;
    c.byte_evictions = byte_evictions_;
    c.ttl_evictions = ttl_evictions_;
    c.stale_hits = stale_hits_;
    c.saved_seconds = saved_seconds_;
    c.entries = index_.size();
    c.bytes = bytes_;
    return c;
  }

  size_t capacity() const { return capacity_; }
  size_t byte_capacity() const { return byte_capacity_; }

 private:
  using Clock = std::chrono::steady_clock;
  /// (H, last-use tick): the victim order. Ticks are unique, so ranks
  /// are too, and equal priorities fall back to least recently used.
  using Rank = std::pair<double, uint64_t>;
  /// Every entry's rank, front = next victim, mapped to the entry's key
  /// in index_ (node-based: rehashing moves no key).
  using Order = std::map<Rank, const std::string*>;

  struct Entry {
    std::shared_ptr<const V> value;
    size_t bytes = 0;
    Clock::time_point inserted;
    double cost = 0.0;  ///< wall seconds of the compute that produced it
    uint64_t hits = 0;
    typename Order::iterator pos;  ///< this entry's node in order_
  };
  using Index = std::unordered_map<std::string, Entry>;

  bool Expired(const Entry& e) const {
    return ttl_ != Clock::duration::zero() && Clock::now() - e.inserted > ttl_;
  }

  double Priority(const Entry& e) const {
    return clock_ + e.cost * static_cast<double>(std::max<uint64_t>(1, e.hits));
  }

  /// Recompute `e`'s priority and mark it most recently used, reusing
  /// its order_ node.
  void Rerank(Entry& e) {
    auto node = order_.extract(e.pos);
    node.key() = {Priority(e), ++tick_};
    e.pos = order_.insert(std::move(node)).position;
  }

  std::shared_ptr<const V> Hit(Entry& e) {
    ++e.hits;
    Rerank(e);
    ++hits_;
    saved_seconds_ += e.cost;
    return e.value;
  }

  typename Index::iterator Erase(typename Index::iterator it) {
    bytes_ -= it->second.bytes;
    order_.erase(it->second.pos);
    return index_.erase(it);
  }

  const size_t capacity_;
  const size_t byte_capacity_;
  const SizeFn size_fn_;
  const Clock::duration ttl_;
  mutable std::mutex mu_;
  Index index_;
  Order order_;
  double clock_ = 0.0;  ///< H of the last victim (GreedyDual's L)
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t byte_evictions_ = 0;
  uint64_t ttl_evictions_ = 0;
  uint64_t stale_hits_ = 0;
  double saved_seconds_ = 0.0;
  size_t bytes_ = 0;
};

}  // namespace sky

#endif  // SKY_QUERY_RESULT_CACHE_H_
