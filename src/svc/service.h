#pragma once

// The concurrent analysis service behind `cipnet serve`: line-delimited
// JSON requests in, one JSON response line per request out. Each request
// names an operation over a net shipped inline (`.cpn` text, `.g` text for
// STG ops); execution runs on a `JobScheduler` worker under a per-request
// deadline (`CancelToken`), and successful results are memoized in a
// content-addressed `ResultCache` keyed by the canonical net hash. The
// protocol — ops, schemas, error codes, backpressure semantics — is
// specified in docs/SERVICE.md.
//
// Observability: every request is minted a `TraceContext` (obs/
// trace_context.h) at parse, so spans and flight-recorder events
// downstream carry the owning job id; every response carries a `timings`
// object (queue_wait/cache_lookup/exec/serialize, in microseconds,
// mirrored into the `svc.phase.*` histograms); and the
// introspection ops `metrics` / `jobs` / `health` / `dump` answer inline —
// bypassing load shedding and the queue — so the service can be inspected
// precisely when it is overloaded.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "svc/job_table.h"
#include "svc/result_cache.h"
#include "svc/scheduler.h"

namespace cipnet::svc {

struct ServiceOptions {
  SchedulerOptions scheduler;
  ResultCacheOptions cache;
  /// Deadline applied to requests that do not carry `deadline_ms`;
  /// 0 = unlimited.
  std::uint64_t default_deadline_ms = 0;
  /// Default state/node budget for explorations (requests may override via
  /// `max_states`).
  std::size_t max_states = 200000;
  /// Per-request approximate graph memory budget for `reach` (bytes,
  /// 0 = unlimited). Trips degrade gracefully: the response carries partial
  /// statistics with `"truncated": true`.
  std::size_t max_graph_bytes = 0;
  /// Load shedding: when the process RSS exceeds this many bytes, new
  /// requests are rejected with `overloaded` + a retry hint before they
  /// reach the queue (0 = disabled).
  std::size_t max_rss_bytes = 0;
  /// Maximum accepted NDJSON frame length; `serve` discards longer lines
  /// and answers `bad_request` instead of buffering without bound.
  std::size_t max_line_bytes = 4u << 20;
  /// Persistent ResultCache (svc/cache_persist.h): non-empty = load
  /// surviving entries from this directory at startup (checksum- and
  /// TTL-validated; corrupt files quarantined) and write entries through
  /// on insert, so a restarted server answers warm.
  std::string cache_dir;
  /// Directory the `checkpoint`/`resume` request members resolve in
  /// (created at startup if missing). Requests name bare files — no path
  /// separators, no ".." — and both members are rejected with
  /// `bad_request` while this is empty: the strings end up at rename()
  /// and the atomic-write protocol on the server's filesystem, and the
  /// TCP frontend must not let remote clients aim them at arbitrary
  /// paths (docs/SERVICE.md).
  std::string checkpoint_dir;
};

class CachePersister;

class AnalysisService {
 public:
  explicit AnalysisService(ServiceOptions options = {});
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Parse and execute one request synchronously on the calling thread.
  /// Always returns exactly one response document (no trailing newline);
  /// every failure mode — malformed JSON included — becomes a structured
  /// error response, never an exception.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Asynchronous path: parse `line`, start its deadline clock (queue wait
  /// counts against it), and enqueue execution. `done` is invoked exactly
  /// once with the response — on a worker thread normally, or inline on the
  /// calling thread when the request is malformed or the queue is full
  /// (`overloaded` response carrying the scheduler's retry hint).
  /// `default_client` tags the job (TraceContext, `jobs` table) when the
  /// request carries no `client` member — the TCP frontend passes the
  /// peer's "ip:port" so every job is attributable to its socket.
  SubmitStatus submit_line(const std::string& line,
                           std::function<void(const std::string&)> done,
                           const std::string& default_client = {});

  /// Build one schema-correct error response for `line` without executing
  /// it: `id`/`op` are echoed best-effort (unparseable lines get neither)
  /// and the response carries the mandatory `timings` object. This is how
  /// transport layers reject frames they never submit — the TCP frontend's
  /// per-connection quota uses it for `overloaded` turnaways.
  [[nodiscard]] std::string error_line(const std::string& line,
                                       std::string_view code,
                                       std::string_view message,
                                       std::uint64_t retry_after_ms = 0) const;

  /// Wait until every accepted request has produced its response.
  void drain() { scheduler_.drain(); }

  [[nodiscard]] JobScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] ResultCache& cache() { return cache_; }
  [[nodiscard]] JobTable& jobs() { return jobs_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  struct Request;

  [[nodiscard]] Request parse_request(const std::string& line) const;
  [[nodiscard]] std::string execute(const Request& request);
  [[nodiscard]] std::string run_health() const;

  ServiceOptions options_;
  /// Monotonic TraceContext ids; 0 is reserved for "no request".
  std::atomic<std::uint64_t> next_job_id_{1};
  /// Declared before cache_: the cache's write-through hooks point here,
  /// and members destroy in reverse order (workers are long gone by then —
  /// scheduler_ dies first — but the hooks must not dangle even so).
  std::unique_ptr<CachePersister> persister_;
  ResultCache cache_;
  JobTable jobs_;
  JobScheduler scheduler_;  // declared last: workers die before the cache
};

/// The `cipnet serve` loop: read NDJSON requests from `in` until EOF,
/// write one response line per request to `out` (completion order, which
/// under concurrency is not request order — match by `id`). Returns the
/// number of non-empty request lines read.
std::size_t serve(std::istream& in, std::ostream& out,
                  const ServiceOptions& options = {});

}  // namespace cipnet::svc
