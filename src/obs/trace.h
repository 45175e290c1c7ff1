#pragma once

// RAII tracing spans forming a nested trace tree. A `Span` measures a
// steady-clock duration and the counter deltas that accrued while it was
// open; spans opened inside it become its children. When a root span (no
// open parent on this thread) closes, the completed tree is handed to every
// registered `Sink`.
//
// Span names follow the `module.operation` convention (`reach.explore`,
// `algebra.hide`, ...). Like the metrics, spans are inert unless
// instrumentation is enabled (see obs/metrics.h): a disabled `Span` is a
// single flag check in both constructor and destructor.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cipnet::obs {

/// One completed span. `start_ns` is relative to the tracer epoch (set when
/// tracing is reset), `counter_deltas` holds the counters that changed while
/// the span was open (including changes attributed to its children).
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  /// Small per-process number of the thread the span ran on, assigned on
  /// the thread's first span (1, 2, ...); a span's children share it.
  std::uint32_t tid = 0;
  /// Owning service job (obs/trace_context.h), 0 outside any request.
  std::uint64_t job_id = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  std::vector<SpanRecord> children;
};

/// Receives each completed root span (with its nested children).
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_span(const SpanRecord& root) = 0;
};

/// Process-wide sink registration and the trace epoch. Thread-safe; spans
/// themselves are tracked per-thread, so concurrent threads produce
/// separate trees.
class Tracer {
 public:
  static Tracer& instance();

  void add_sink(std::shared_ptr<Sink> sink);
  void remove_sink(const std::shared_ptr<Sink>& sink);

  /// Restart the epoch `start_ns` is measured from.
  void reset_epoch();

  /// Nanoseconds since the epoch (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Internal: dispatch a completed root span to every sink.
  void emit(const SpanRecord& root);

 private:
  Tracer();

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Sink>> sinks_;
  std::uint64_t epoch_ns_ = 0;  // steady-clock origin
};

/// RAII span. Construct to open, destroy to close. Inert when
/// instrumentation is disabled at construction time.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

}  // namespace cipnet::obs
