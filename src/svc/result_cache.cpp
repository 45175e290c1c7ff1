#include "svc/result_cache.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"

namespace cipnet::svc {

namespace {
CIPNET_FAULT_SITE(f_insert, "svc.cache.insert");
const obs::Counter c_hits("svc.cache.hit");
const obs::Counter c_misses("svc.cache.miss");
const obs::Counter c_evictions("svc.cache.eviction");
const obs::Counter c_expired("svc.cache.expired");
const obs::Gauge g_bytes("svc.cache.bytes");
const obs::Gauge g_entries("svc.cache.entries");

/// Hash-map node + LRU-list node overhead, same spirit as the estimates in
/// reach/reachability.cpp.
constexpr std::size_t kNodeOverhead = 6 * sizeof(void*);
}  // namespace

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {}

std::size_t ResultCache::entry_bytes(const CacheKey& key,
                                     const std::string& payload) {
  return sizeof(CacheKey) + key.op.size() + key.params.size() +
         sizeof(Entry) + payload.size() + kNodeOverhead;
}

void ResultCache::update_gauges_locked() const {
  g_bytes.set(bytes_);
  g_entries.set(map_.size());
}

void ResultCache::erase_locked(const CacheKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  map_.erase(it);
}

std::optional<std::string> ResultCache::lookup(const CacheKey& key,
                                               Clock::time_point now) {
  bool expired = false;
  std::optional<std::string> hit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      c_misses.add();
      return std::nullopt;
    }
    if (options_.ttl.count() > 0 &&
        now - it->second.inserted >= options_.ttl) {
      erase_locked(key);
      c_expired.add();
      c_misses.add();
      update_gauges_locked();
      expired = true;
    } else {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      c_hits.add();
      hit = it->second.payload;
    }
  }
  // Outside the lock: an expired entry's on-disk twin has expired too.
  if (expired && listener_.on_evict) listener_.on_evict(key);
  return hit;
}

void ResultCache::insert(const CacheKey& key, std::string payload,
                         Clock::time_point now) {
  // Fault point sits before any mutation: an injected insert failure
  // leaves the cache exactly as it was (strong exception guarantee).
  if (CIPNET_FAULT_FIRES(f_insert)) {
    throw FaultInjected("svc.cache.insert");
  }
  const std::size_t cost = entry_bytes(key, payload);
  if (cost > options_.max_bytes) return;  // would evict everything else
  // Snapshot for the write-through hook before the move below; victims are
  // collected under the lock and notified after it.
  std::string persisted;
  if (listener_.on_insert) persisted = payload;
  std::vector<CacheKey> evicted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    erase_locked(key);
    lru_.push_front(key);
    Entry entry;
    entry.payload = std::move(payload);
    entry.bytes = cost;
    entry.inserted = now;
    entry.lru_it = lru_.begin();
    map_.emplace(key, std::move(entry));
    bytes_ += cost;
    // The new entry alone fits the budget (checked above), so eviction
    // never claws back the key just inserted.
    while (bytes_ > options_.max_bytes && !lru_.empty()) {
      evicted.push_back(lru_.back());
      erase_locked(lru_.back());
      c_evictions.add();
    }
    update_gauges_locked();
  }
  if (listener_.on_insert) listener_.on_insert(key, persisted);
  if (listener_.on_evict) {
    for (const CacheKey& victim : evicted) listener_.on_evict(victim);
  }
}

std::size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

std::size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

}  // namespace cipnet::svc
