#pragma once

// Write-through persistence for the ResultCache: `serve --cache-dir DIR`
// keeps one sealed file per cache entry (`<keyhash>.rc`, written with the
// atomic protocol of util/atomic_file.h), so a restarted server answers
// previously-computed requests warm. Loading is corruption-tolerant: a
// file that fails the envelope checks is quarantined to `.bad` and counted
// (`store.corrupt.skipped`), an expired one is dropped
// (`store.cache.dropped`) — a damaged cache directory can cost hits, never
// the process.
//
// The directory mirrors the cache through two unordered hooks: every
// insert writes its key's file, and every LRU eviction or TTL expiry
// deletes it. Nothing else touches a file — the persister only ever sees
// entries the service decided to memoize (failed and truncated runs never
// reach `insert`). Keys are content-addressed, so whichever order two
// hooks for one key run in, a file on disk can only hold the answer a
// recompute would give. A lost race deletes a file early or keeps one the
// cache evicted, never a wrong answer, so the persister keeps no state to
// order the hooks.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "svc/result_cache.h"

namespace cipnet::svc {

/// "CIPNRC01" little-endian.
inline constexpr std::uint64_t kCacheEntryMagic = 0x313043524e504943ULL;
inline constexpr std::uint32_t kCacheEntryVersion = 1;

/// Entry body inside the sealed envelope. `wall_ms` is the wall-clock
/// insert time (system_clock, ms since epoch): the in-memory cache runs on
/// steady_clock, which does not survive a restart, so reload re-derives
/// the entry's age from wall time and re-inserts it backdated — TTL keeps
/// counting across the restart instead of resetting.
struct CacheEntryImage {
  CacheKey key;
  std::uint64_t wall_ms = 0;
  std::string payload;
};

[[nodiscard]] std::string encode_cache_entry(const CacheEntryImage& image);
[[nodiscard]] bool decode_cache_entry(const std::string& body,
                                      CacheEntryImage& image,
                                      std::string& why);

class CachePersister {
 public:
  /// `dir` is created if missing; `ttl` mirrors the cache's own TTL
  /// (zero = entries never expire on reload).
  CachePersister(std::string dir, std::chrono::milliseconds ttl);

  /// Scan `dir` for `*.rc` files and re-insert every survivor into
  /// `cache`, backdated by its wall-clock age. Returns the number still
  /// resident when the scan ends: an entry the cache's budget cannot hold
  /// (larger than all of it, or evicted by later ones) loses its file
  /// too. Replaces the cache's hooks while it runs and leaves none
  /// installed, so call it before `attach` — loading through the
  /// write-back hook would rewrite every file it just read.
  std::size_t load_into(ResultCache& cache);

  /// Install the write-through hooks on `cache`.
  void attach(ResultCache& cache);

  [[nodiscard]] std::string path_for(const CacheKey& key) const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  void persist(const CacheKey& key, const std::string& payload);

  std::string dir_;
  std::chrono::milliseconds ttl_;
};

}  // namespace cipnet::svc
