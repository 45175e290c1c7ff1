#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace cipnet::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// An open span on this thread: the record under construction plus the
/// counter values when it opened (registration order; diffed on close).
struct Frame {
  SpanRecord record;
  std::vector<std::uint64_t> counters_at_open;
};

thread_local std::vector<Frame> t_stack;

std::atomic<std::uint32_t> g_next_tid{1};
thread_local std::uint32_t t_tid = 0;

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_now_ns()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::add_sink(std::shared_ptr<Sink> sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sinks_.push_back(std::move(sink));
}

void Tracer::remove_sink(const std::shared_ptr<Sink>& sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

void Tracer::reset_epoch() {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_ns_ = steady_now_ns();
}

std::uint64_t Tracer::now_ns() const {
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch = epoch_ns_;
  }
  const std::uint64_t now = steady_now_ns();
  return now >= epoch ? now - epoch : 0;
}

void Tracer::emit(const SpanRecord& root) {
  // Copy the sink list so a sink can (de)register sinks without deadlock.
  std::vector<std::shared_ptr<Sink>> sinks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sinks = sinks_;
  }
  for (const auto& sink : sinks) sink->on_span(root);
}

Span::Span(std::string_view name) {
  if (!enabled()) return;
  active_ = true;
  t_stack.emplace_back();
  Frame& frame = t_stack.back();
  frame.record.name = std::string(name);
  frame.record.start_ns = Tracer::instance().now_ns();
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  frame.record.tid = t_tid;
  frame.record.job_id = current_job_id();
  Registry::instance().counter_values(frame.counters_at_open);
}

Span::~Span() {
  if (!active_ || t_stack.empty()) return;
  Frame frame = std::move(t_stack.back());
  t_stack.pop_back();
  frame.record.duration_ns =
      Tracer::instance().now_ns() - frame.record.start_ns;
  if (enabled()) {
    // Duration distribution per span name ("span.reach.explore", ...), so
    // repeated operations expose p50/p90/p99 in the metrics snapshot.
    Registry::instance()
        .histogram_cells("span." + frame.record.name)
        ->record(frame.record.duration_ns);
  }

  // Counter deltas: counters registered after the span opened diff against
  // zero (registration order only ever appends).
  std::vector<std::uint64_t> now_values;
  Registry::instance().counter_values(now_values);
  const std::vector<std::string> names = Registry::instance().counter_names();
  for (std::size_t i = 0; i < now_values.size(); ++i) {
    const std::uint64_t before =
        i < frame.counters_at_open.size() ? frame.counters_at_open[i] : 0;
    // A Registry::reset() mid-span can make the counter go backwards;
    // attribute the post-reset value in that case rather than underflow.
    const std::uint64_t delta =
        now_values[i] >= before ? now_values[i] - before : now_values[i];
    if (delta != 0) {
      frame.record.counter_deltas.emplace_back(names[i], delta);
    }
  }
  std::sort(frame.record.counter_deltas.begin(),
            frame.record.counter_deltas.end());

  if (t_stack.empty()) {
    Tracer::instance().emit(frame.record);
  } else {
    t_stack.back().record.children.push_back(std::move(frame.record));
  }
}

}  // namespace cipnet::obs
