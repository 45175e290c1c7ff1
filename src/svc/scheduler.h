#pragma once

// Fixed-size worker pool with a bounded, prioritized work queue and
// backpressure. The scheduler is the concurrency core of the `cipnet serve`
// service (svc/service.h): requests become jobs, jobs carry a priority, and
// a full queue *rejects* the submission with a retry hint instead of
// blocking the submitter — the NDJSON protocol surfaces that as an
// `overloaded` error so well-behaved clients back off.
//
// Instrumented with the obs stack: `svc.queue_wait_us` / `svc.job_us`
// histograms, `svc.jobs.*` counters, and `svc.queue_depth` /
// `svc.queue_peak` gauges (catalogue in docs/OBSERVABILITY.md). A job that
// throws is swallowed after counting `svc.jobs.failed` — one poisonous
// request must not take a worker down.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_context.h"
#include "util/cancel.h"

namespace cipnet::svc {

/// Job priority; higher runs first, FIFO within a level.
enum class Priority : std::uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };

struct SchedulerOptions {
  std::size_t workers = 4;
  /// Maximum queued (not yet running) jobs; submissions beyond are rejected.
  std::size_t max_queue = 256;
  /// Watchdog: a job still running after this many milliseconds has its
  /// `CancelToken` tripped (cooperative kill — the job unwinds through its
  /// next cancellation check and reports `cancelled`). 0 disables the
  /// watchdog; jobs submitted without a cancellable token cannot be killed.
  std::uint64_t stall_timeout_ms = 0;
  /// How often the watchdog scans the workers.
  std::uint64_t watchdog_interval_ms = 100;
};

/// Outcome of a `submit` call. When `accepted` is false the job was *not*
/// enqueued; `retry_after_ms` estimates when a slot should free up, based
/// on the queue depth and an exponential moving average of job duration.
struct SubmitStatus {
  bool accepted = false;
  std::size_t queue_depth = 0;
  std::uint64_t retry_after_ms = 0;
};

class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions options = {});

  /// Drains the queue (runs everything already accepted), then joins.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueue `job`. Never blocks: a full queue or a stopped scheduler
  /// rejects (accepted=false) and `job` is destroyed unrun. `cancel` is the
  /// job's cancellation token; the watchdog trips it when the job stalls
  /// past `stall_timeout_ms`. `label` names the worker span wrapping the
  /// job (`svc.job.<op>` from the service; empty = the generic
  /// `svc.job`), so per-op duration histograms stay separable. `ctx` is
  /// the request's TraceContext; the worker installs it around the span
  /// and the job body, so every span and flight event the job emits
  /// carries its job id.
  SubmitStatus submit(std::function<void()> job,
                      Priority priority = Priority::kNormal,
                      CancelToken cancel = {}, std::string label = {},
                      obs::TraceContext ctx = {});

  /// The current backoff estimate (same number a rejection would carry),
  /// for callers that shed load before reaching the queue.
  [[nodiscard]] std::uint64_t retry_hint_ms() const;

  /// Block until every accepted job has finished and the queue is empty.
  void drain();

  /// Stop accepting, finish everything accepted, join the workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }
  [[nodiscard]] std::size_t queue_depth() const;
  /// Jobs currently executing on a worker.
  [[nodiscard]] std::size_t active_count() const;
  [[nodiscard]] std::size_t max_queue() const { return options_.max_queue; }

  /// Point-in-time view of one worker for the `health` op.
  struct WorkerState {
    bool busy = false;
    bool stalled = false;          ///< flagged by the watchdog
    std::uint64_t job_id = 0;      ///< TraceContext id of the running job
    std::string label;             ///< span label of the running job
    std::uint64_t running_ms = 0;  ///< how long the current job has run
  };
  [[nodiscard]] std::vector<WorkerState> worker_states() const;

 private:
  struct Job {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    CancelToken cancel;
    std::string label;
    obs::TraceContext ctx;
  };

  /// Per-worker heartbeat slot the watchdog scans. Own mutex (not the
  /// queue mutex): the watchdog must never contend with submission.
  struct WorkerSlot {
    std::mutex mu;
    bool busy = false;
    bool stall_flagged = false;
    std::chrono::steady_clock::time_point started;
    CancelToken cancel;
    std::uint64_t job_id = 0;
    std::string label;
  };

  void worker_loop(WorkerSlot& slot);
  void watchdog_loop();
  [[nodiscard]] std::uint64_t retry_hint_locked() const;

  SchedulerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for jobs / shutdown
  std::condition_variable idle_cv_;   // drain()/shutdown() wait for quiesce
  std::deque<Job> queues_[3];         // one FIFO per priority level
  std::size_t queued_ = 0;
  std::size_t active_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;
  bool joined_ = false;
  /// EWMA of job wall time in microseconds (guarded by mutex_), feeding the
  /// retry hint.
  double avg_job_us_ = 0.0;

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> threads_;

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;  // wakes the watchdog for shutdown
  bool watchdog_stop_ = false;
  std::thread watchdog_;
};

}  // namespace cipnet::svc
