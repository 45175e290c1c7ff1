#pragma once

// Metric time series: a background sampler that snapshots the metric
// registry plus resident-set size into a bounded in-memory ring at a fixed
// interval, turning the point-in-time registry into a recorded history of
// the run. Consumers:
//
//   * `--sample-ms N` on the CLI (or CIPNET_SAMPLE_MS in the environment)
//     starts the sampler for the duration of a command; `--samples-out
//     <file.jsonl>` additionally streams every sample to disk as one
//     `{"event":"sample",...}` line — the stream `cipnet report` ingests.
//   * `--progress` on the CLI starts it too (500 ms unless `--sample-ms`
//     says otherwise) and renders each sample as one stderr line through
//     the `on_sample` callback.
//   * The `history` introspection op of `cipnet serve` pages the ring with
//     a since-cursor (`cursor` = highest `seq` already seen; the response
//     carries `next_cursor`), so a dashboard can poll without re-reading.
//
// Sampling is deliberately coarse (≥ 1 ms interval, default off) and the
// critical sections are tiny — a registry snapshot under the registry
// mutex, a ring push under the sampler mutex — so a live sampler costs
// well under the 2% gate enforced by the `sampler-overhead-check` bench
// target. The ring overwrites oldest-first; `obs.sampler.dropped` counts
// evictions so a paging consumer can tell when it fell behind.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace cipnet::json {
class Writer;
}  // namespace cipnet::json

namespace cipnet::obs {

/// One recorded sample: monotonic sequence number (the paging cursor),
/// tracer-epoch timestamp, RSS, and a full metric snapshot.
struct TimeSample {
  std::uint64_t seq = 0;
  std::uint64_t ns = 0;
  std::uint64_t rss_bytes = 0;
  Snapshot metrics;
};

struct SamplerOptions {
  /// Milliseconds between samples; clamped to >= 1.
  std::uint64_t interval_ms = 100;
  /// Ring capacity in samples; oldest are evicted past this.
  std::size_t capacity = 600;
  /// When nonempty, every sample is appended to this JSONL file as an
  /// `{"event":"sample",...}` line (file truncated at start). A failed
  /// write is counted in `obs.sampler.export_errors`, never fatal.
  std::string jsonl_path;
  /// Called with every sample taken while running, the close-out sample
  /// of `stop()` last. Runs under the sampler lock, so calls arrive one at
  /// a time in `seq` order (a renderer may keep the previous sample to
  /// take rates); it must not call back into the sampler.
  std::function<void(const TimeSample&)> on_sample;
};

/// Process-wide sampler singleton. `start`/`stop` manage the background
/// thread; `sample_once` takes an immediate sample on the caller's thread
/// (tests, final flush). All methods are thread-safe.
class TimeSeriesSampler {
 public:
  static TimeSeriesSampler& instance();

  /// Launch the background thread. Returns false (and changes nothing)
  /// when already running or when `jsonl_path` cannot be opened.
  bool start(const SamplerOptions& options);

  /// Take one final sample, join the thread, close the export file.
  /// No-op when not running.
  void stop();

  [[nodiscard]] bool running() const;
  [[nodiscard]] std::uint64_t interval_ms() const;

  /// Sample immediately on the calling thread (also used by the background
  /// loop). Works whether or not the thread is running.
  void sample_once();

  /// Samples with `seq > cursor`, oldest first, at most `max` (0 = no
  /// limit). Pass cursor 0 for "from the beginning of the ring".
  [[nodiscard]] std::vector<TimeSample> since(std::uint64_t cursor,
                                              std::size_t max = 0) const;

  /// Highest sequence number assigned so far (0 = never sampled). Feed it
  /// back as `cursor` to receive only newer samples.
  [[nodiscard]] std::uint64_t next_cursor() const;

  /// Samples evicted by the bounded ring since the last `start`.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Drop all samples and reset the cursor (tests).
  void clear();

 private:
  TimeSeriesSampler() = default;

  void run_loop();
  void push(TimeSample sample);

  mutable std::mutex mutex_;
  std::deque<TimeSample> ring_;
  std::size_t capacity_ = 600;  // standalone sample_once before any start()
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t interval_ms_ = 0;
  bool running_ = false;
  bool stop_requested_ = false;
  std::condition_variable cv_;
  std::thread thread_;
  std::ofstream out_;
  bool export_open_ = false;
  std::function<void(const TimeSample&)> on_sample_;
};

/// Serialize one sample as the `{"event":"sample",...}` object shared by
/// the JSONL export and the `history` op: seq, ns, rss_bytes, nonzero
/// counters and gauges, histogram percentiles.
void write_sample_json(json::Writer& w, const TimeSample& sample);

/// Start the sampler from CIPNET_SAMPLE_MS / CIPNET_SAMPLES_OUT when set
/// (used by bench mains so `sampler-overhead-check` can toggle sampling
/// without new flags). Returns true when a sampler was started.
bool start_sampler_from_env();

}  // namespace cipnet::obs
