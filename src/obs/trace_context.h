#pragma once

// Request-scoped trace identity. The service (`cipnet serve`) mints one
// `TraceContext` per request at frame parse — job id, operation, canonical
// net hash, optional client tag — and installs it on whichever thread is
// executing that request with a `ScopedTraceContext`. Everything below the
// service that emits telemetry (spans in obs/trace.h, flight-recorder
// events in obs/flight_recorder.h) reads the thread's current context and
// stamps the owning job id, so a span tree or a crash dump is attributable
// to the request that caused it without threading an id through every
// call signature.
//
// Reading the current context is one thread-local pointer load; with no
// context installed every accessor returns the zero/empty defaults, so
// non-service callers (CLI subcommands, tests, benches) pay nothing.

#include <cstdint>
#include <string>

namespace cipnet::obs {

/// Identity of the request a thread is currently working for. `job_id` is
/// the service-assigned monotonic id (0 = no request context); `net_hash`
/// is the canonical net fingerprint once known (0 before the net parses).
struct TraceContext {
  std::uint64_t job_id = 0;
  std::string op;
  std::uint64_t net_hash = 0;
  std::string client;
};

/// The context installed on this thread, or nullptr outside any request.
[[nodiscard]] const TraceContext* current_trace_context();

/// Job id of the current context, 0 when none — the cheap accessor the
/// telemetry hot paths use.
[[nodiscard]] std::uint64_t current_job_id();

/// Mutable access to the innermost installed context (nullptr when none).
/// The service uses this to back-fill `net_hash` once the net text parses,
/// mid-request.
[[nodiscard]] TraceContext* mutable_current_trace_context();

/// RAII installation: makes `ctx` the thread's current context for the
/// scope, restoring the previous one (spans and flight events inside
/// inherit the innermost context). Copyable contexts nest — a worker
/// running job A that synchronously evaluates a sub-request B sees B while
/// B's scope is open, then A again.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  [[nodiscard]] TraceContext& context() { return ctx_; }

 private:
  TraceContext ctx_;
  TraceContext* prev_;
};

}  // namespace cipnet::obs
