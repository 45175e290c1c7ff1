#include "svc/cache_persist.h"

#include <cstdio>
#include <filesystem>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/error.h"

namespace cipnet::svc {

namespace {

const obs::Counter c_loaded("store.cache.loaded");
const obs::Counter c_persisted("store.cache.persisted");
const obs::Counter c_dropped("store.cache.dropped");
const obs::Counter c_corrupt("store.corrupt.skipped");
const obs::Counter c_persist_errors("store.persist.errors");

std::uint64_t wall_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string encode_cache_entry(const CacheEntryImage& image) {
  std::string body;
  body.reserve(image.payload.size() + 64);
  store::put_u64(body, image.key.net_hash);
  store::put_str(body, image.key.op);
  store::put_str(body, image.key.params);
  store::put_u64(body, image.wall_ms);
  store::put_str(body, image.payload);
  return body;
}

bool decode_cache_entry(const std::string& body, CacheEntryImage& image,
                        std::string& why) {
  std::size_t pos = 0;
  if (!store::get_u64(body, pos, image.key.net_hash) ||
      !store::get_str(body, pos, image.key.op) ||
      !store::get_str(body, pos, image.key.params) ||
      !store::get_u64(body, pos, image.wall_ms) ||
      !store::get_str(body, pos, image.payload)) {
    why = "truncated entry";
    return false;
  }
  if (pos != body.size()) {
    why = "trailing bytes";
    return false;
  }
  return true;
}

CachePersister::CachePersister(std::string dir, std::chrono::milliseconds ttl)
    : dir_(std::move(dir)), ttl_(ttl) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; writes
  // into a missing directory surface as counted persist errors below.
}

std::string CachePersister::path_for(const CacheKey& key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.rc",
                static_cast<unsigned long long>(CacheKeyHash{}(key)));
  return dir_ + "/" + name;
}

std::size_t CachePersister::load_into(ResultCache& cache) {
  std::error_code ec;
  const std::uint64_t now_ms = wall_now_ms();
  // Residency is tracked through the cache's own hooks: an entry too large
  // for the whole budget is never stored, and one the LRU evicts while a
  // smaller cache reloads leaves memory again. Neither may keep its file,
  // or every later boot would read it again.
  std::unordered_set<CacheKey, CacheKeyHash> resident;
  ResultCache::Listener track;
  track.on_insert = [&resident](const CacheKey& key, const std::string&) {
    resident.insert(key);
  };
  track.on_evict = [&resident](const CacheKey& key) { resident.erase(key); };
  cache.set_listener(std::move(track));
  std::vector<std::pair<std::string, CacheKey>> inserted;  // path, key
  std::filesystem::directory_iterator it(dir_, ec);
  // increment(ec), not the range-for operator++: that overload throws out
  // of the scan (and of the AnalysisService constructor), and a wholly
  // unreadable directory must cost only warmth, never the boot.
  for (; !ec && it != std::filesystem::directory_iterator();
       it.increment(ec)) {
    if (it->path().extension() != ".rc") continue;
    const std::string path = it->path().string();
    std::optional<std::string> bytes;
    try {
      bytes = store::read_file(path);
    } catch (const Error&) {
      // Unreadable (real I/O trouble or the injected store.load fault):
      // skip it this boot; the file may well read fine next time, so it
      // is not quarantined.
      c_corrupt.add();
      continue;
    }
    if (!bytes.has_value()) continue;  // raced away underneath the scan
    std::string body;
    std::string why;
    CacheEntryImage image;
    if (!store::open_blob(*bytes, kCacheEntryMagic, kCacheEntryVersion, body,
                          why) ||
        !decode_cache_entry(body, image, why)) {
      c_corrupt.add();
      store::quarantine_file(path);
      obs::FlightRecorder::instance().record(
          obs::FlightKind::kCustom, 0, "store.corrupt.skipped: " + why, 0, 0);
      continue;
    }
    const std::uint64_t age_ms =
        image.wall_ms < now_ms ? now_ms - image.wall_ms : 0;
    if (ttl_.count() > 0 &&
        age_ms >= static_cast<std::uint64_t>(ttl_.count())) {
      c_dropped.add();
      std::error_code rm;  // not `ec`: a failed drop must not end the scan
      std::filesystem::remove(path, rm);
      continue;
    }
    // Backdate the in-memory entry by its wall-clock age so the TTL keeps
    // counting across the restart.
    try {
      cache.insert(image.key, std::move(image.payload),
                   ResultCache::Clock::now() -
                       std::chrono::milliseconds(age_ms));
      inserted.emplace_back(path, std::move(image.key));
    } catch (const Error&) {
      // Injected svc.cache.insert fault: the entry stays on disk for the
      // next boot; this one simply starts colder.
    }
  }
  cache.set_listener({});
  for (const auto& [path, key] : inserted) {
    if (resident.count(key) != 0) continue;
    std::error_code rm;
    std::filesystem::remove(path, rm);
  }
  c_loaded.add(resident.size());
  return resident.size();
}

void CachePersister::attach(ResultCache& cache) {
  ResultCache::Listener listener;
  listener.on_insert = [this](const CacheKey& key,
                              const std::string& payload) {
    persist(key, payload);
  };
  listener.on_evict = [this](const CacheKey& key) {
    std::error_code ec;
    std::filesystem::remove(path_for(key), ec);
  };
  cache.set_listener(std::move(listener));
}

void CachePersister::persist(const CacheKey& key,
                             const std::string& payload) {
  CacheEntryImage image;
  image.key = key;
  image.wall_ms = wall_now_ms();
  image.payload = payload;
  const std::string sealed = store::seal_blob(
      kCacheEntryMagic, kCacheEntryVersion, encode_cache_entry(image));
  try {
    store::write_file_atomic(path_for(key), sealed);
    c_persisted.add();
  } catch (const Error&) {
    // Write-through is best effort (counted): a failed persist (real or
    // injected store.write / store.fsync) costs warmth after the next
    // restart, never the in-memory entry or the response.
    c_persist_errors.add();
    obs::FlightRecorder::instance().record(obs::FlightKind::kCustom, 0,
                                           "store.persist.error", 0, 0);
  }
}

}  // namespace cipnet::svc
