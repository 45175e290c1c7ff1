#pragma once

// Content-addressed result cache for analysis operations. Keys combine the
// canonical 64-bit net hash (petri/canonical.h) with the operation name and
// a canonical parameter string, so "the same analysis of the same net"
// resolves to the same entry no matter which client sent it or how the net
// text was formatted. Values are the serialized JSON result payloads the
// service would otherwise recompute — exactly the memoization lever of
// Sobociński & Stephens' compositional reachability checkers, applied at
// the service boundary.
//
// Bounded two ways: total estimated bytes (LRU eviction, estimates in the
// spirit of `reach.graph_bytes`) and an optional TTL. These are the only
// ways out: failed, cancelled and truncated runs never insert, and a key's
// answer never goes stale, so there is no explicit erase. Thread-safe;
// counters `svc.cache.{hit,miss,eviction,expired}` and gauges
// `svc.cache.{bytes,entries}` make the hit rate observable via `--stats`.

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/hash.h"

namespace cipnet::svc {

struct CacheKey {
  std::uint64_t net_hash = 0;
  std::string op;
  std::string params;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    Fnv1a64 h;
    h.u64(key.net_hash);
    h.str(key.op);
    h.str(key.params);
    return static_cast<std::size_t>(h.digest());
  }
};

struct ResultCacheOptions {
  /// Estimated-byte budget; least-recently-used entries are evicted beyond
  /// it. A payload larger than the whole budget is not cached at all.
  std::size_t max_bytes = 64ull << 20;
  /// Entry lifetime; zero = never expires.
  std::chrono::milliseconds ttl{0};
};

class ResultCache {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ResultCache(ResultCacheOptions options = {});

  /// The cached payload for `key`, refreshing its recency — or nullopt on
  /// miss (also when the entry had expired; expiry counts as a miss).
  /// `now` is injectable for TTL tests.
  [[nodiscard]] std::optional<std::string> lookup(
      const CacheKey& key, Clock::time_point now = Clock::now());

  /// Insert or overwrite, then evict LRU entries until under budget.
  void insert(const CacheKey& key, std::string payload,
              Clock::time_point now = Clock::now());

  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t bytes() const;

  /// Write-through persistence hooks (svc/cache_persist.h): `on_insert`
  /// for every stored entry, `on_evict` for every LRU victim and expired
  /// entry. Both run *outside* the cache lock, so a hook may call back
  /// into the cache, and hooks for one key may arrive in either order.
  /// That needs no repair: every payload ever stored under a key is the
  /// answer a recompute would give, so a misordered pair can only lose a
  /// warm entry or keep one that is still correct. Attach before the cache
  /// is shared across threads (the service constructor does); hooks
  /// themselves must be thread-safe.
  struct Listener {
    std::function<void(const CacheKey&, const std::string& payload)>
        on_insert;
    std::function<void(const CacheKey&)> on_evict;
  };
  void set_listener(Listener listener) { listener_ = std::move(listener); }

 private:
  struct Entry {
    std::string payload;
    std::size_t bytes = 0;
    Clock::time_point inserted;
    std::list<CacheKey>::iterator lru_it;
  };

  [[nodiscard]] static std::size_t entry_bytes(const CacheKey& key,
                                               const std::string& payload);
  void erase_locked(const CacheKey& key);
  void update_gauges_locked() const;

  ResultCacheOptions options_;
  Listener listener_;

  mutable std::mutex mutex_;
  std::list<CacheKey> lru_;  // front = most recently used
  std::unordered_map<CacheKey, Entry, CacheKeyHash> map_;
  std::size_t bytes_ = 0;
};

}  // namespace cipnet::svc
