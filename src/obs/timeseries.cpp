#include "obs/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "obs/memory.h"
#include "obs/sink_jsonl.h"
#include "obs/trace.h"
#include "util/json_writer.h"

namespace cipnet::obs {

namespace {

const Counter c_samples("obs.sampler.samples");
const Counter c_dropped("obs.sampler.dropped");
const Counter c_export_errors("obs.sampler.export_errors");

}  // namespace

TimeSeriesSampler& TimeSeriesSampler::instance() {
  static TimeSeriesSampler sampler;
  return sampler;
}

bool TimeSeriesSampler::start(const SamplerOptions& options) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (running_) return false;
  if (!options.jsonl_path.empty()) {
    out_.open(options.jsonl_path, std::ios::trunc);
    if (!out_) return false;
    export_open_ = true;
  }
  interval_ms_ = std::max<std::uint64_t>(options.interval_ms, 1);
  capacity_ = std::max<std::size_t>(options.capacity, 1);
  on_sample_ = options.on_sample;
  dropped_ = 0;
  stop_requested_ = false;
  running_ = true;
  lock.unlock();
  thread_ = std::thread([this] { run_loop(); });
  return true;
}

void TimeSeriesSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  sample_once();  // close-out sample so short runs never export empty
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
  interval_ms_ = 0;
  on_sample_ = nullptr;
  if (export_open_) {
    out_.close();
    export_open_ = false;
  }
}

bool TimeSeriesSampler::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

std::uint64_t TimeSeriesSampler::interval_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return interval_ms_;
}

void TimeSeriesSampler::run_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                   [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    sample_once();
  }
}

void TimeSeriesSampler::sample_once() {
  TimeSample sample;
  sample.ns = Tracer::instance().now_ns();
  sample.rss_bytes = current_rss_bytes();
  sample.metrics = Registry::instance().snapshot();
  c_samples.add();
  push(std::move(sample));
}

void TimeSeriesSampler::push(TimeSample sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  sample.seq = ++next_seq_;
  if (export_open_) {
    json::Writer w;
    write_sample_json(w, sample);
    out_ << w.str() << '\n';
    out_.flush();
    if (!out_) {
      // Count every failed line, not just the first: clear the stream so
      // the next sample tries (and, on a full disk, fails) again.
      c_export_errors.add();
      out_.clear();
    }
  }
  if (on_sample_) on_sample_(sample);
  ring_.push_back(std::move(sample));
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
    c_dropped.add();
  }
}

std::vector<TimeSample> TimeSeriesSampler::since(std::uint64_t cursor,
                                                 std::size_t max) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TimeSample> out;
  // Ring is ordered by seq; binary-search the first entry past the cursor.
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), cursor,
      [](std::uint64_t c, const TimeSample& s) { return c < s.seq; });
  for (; it != ring_.end(); ++it) {
    if (max != 0 && out.size() >= max) break;
    out.push_back(*it);
  }
  return out;
}

std::uint64_t TimeSeriesSampler::next_cursor() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t TimeSeriesSampler::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void TimeSeriesSampler::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_seq_ = 0;
  dropped_ = 0;
}

void write_sample_json(json::Writer& w, const TimeSample& sample) {
  w.begin_object();
  w.member("event", "sample");
  w.member("seq", sample.seq);
  w.member("ns", sample.ns);
  w.member("rss_bytes", sample.rss_bytes);
  write_snapshot_members(w, sample.metrics, /*nonzero_only=*/true);
  w.end_object();
}

bool start_sampler_from_env() {
  const char* ms = std::getenv("CIPNET_SAMPLE_MS");
  if (ms == nullptr || ms[0] == '\0') return false;
  const long interval = std::strtol(ms, nullptr, 10);
  if (interval <= 0) return false;
  SamplerOptions options;
  options.interval_ms = static_cast<std::uint64_t>(interval);
  if (const char* path = std::getenv("CIPNET_SAMPLES_OUT")) {
    options.jsonl_path = path;
  }
  return TimeSeriesSampler::instance().start(options);
}

}  // namespace cipnet::obs
