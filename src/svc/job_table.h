#pragma once

// Live job introspection for the analysis service: one row per request,
// from acceptance to a bounded ring of recently-completed jobs. The `jobs`
// op of the NDJSON protocol renders this table, which is what makes a
// stalled or shed request distinguishable from a healthy one *while it is
// happening* — phase, elapsed time, and time in the current phase per
// job, not just process-global counters.
//
// The table is updated only from the service's request path (submit /
// start / phase transitions / finish). All methods take one mutex; updates
// are per-job state transitions — a handful per request — never per
// explored state.

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace cipnet::svc {

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kDone,       ///< produced an ok response
  kErrored,    ///< produced an error response (outcome = error code)
  kShed,       ///< rejected at the door (RSS watermark)
  kRejected,   ///< rejected by queue backpressure
};

[[nodiscard]] std::string_view job_state_name(JobState state);

struct JobInfo {
  std::uint64_t job_id = 0;
  std::string id_json;  ///< client-provided id echo (pre-serialized)
  std::string op;
  std::string client;
  JobState state = JobState::kQueued;
  std::string phase;    ///< parse / cache_lookup / exec / serialize / done
  std::string outcome;  ///< "ok" or the error code, once finished
  bool cached = false;
  std::chrono::steady_clock::time_point submitted{};
  std::chrono::steady_clock::time_point started{};
  std::chrono::steady_clock::time_point finished{};
  std::chrono::steady_clock::time_point phase_changed{};

  /// Milliseconds from submission until now (in-flight) or until the job
  /// finished.
  [[nodiscard]] std::uint64_t elapsed_ms(
      std::chrono::steady_clock::time_point now) const;
  /// Milliseconds since the job last changed phase (start included): the
  /// `heartbeat_age_ms` column of the `jobs` op. 0 when it never started.
  [[nodiscard]] std::uint64_t phase_age_ms(
      std::chrono::steady_clock::time_point now) const;
};

class JobTable {
 public:
  /// How many completed jobs the `recent` ring keeps.
  explicit JobTable(std::size_t recent_capacity = 64)
      : recent_capacity_(recent_capacity) {}

  /// Register an accepted job (state kQueued).
  void on_submitted(std::uint64_t job_id, std::string id_json,
                    std::string op, std::string client);
  /// A worker picked the job up.
  void on_started(std::uint64_t job_id);
  /// The job entered a new execution phase.
  void on_phase(std::uint64_t job_id, std::string_view phase);
  /// Terminal transition; moves the row into the recent ring. For rows
  /// never registered (e.g. shed before submit), records a fresh row so
  /// rejections are visible in `recent` too.
  void on_finished(std::uint64_t job_id, JobState state,
                   std::string_view outcome, bool cached,
                   std::string id_json = {}, std::string op = {},
                   std::string client = {});

  [[nodiscard]] std::vector<JobInfo> in_flight() const;
  [[nodiscard]] std::vector<JobInfo> recent() const;
  [[nodiscard]] std::size_t in_flight_count() const;

 private:
  std::size_t recent_capacity_;
  mutable std::mutex mutex_;
  std::vector<JobInfo> live_;   // small: bounded by queue + workers
  std::deque<JobInfo> recent_;  // front = most recently finished
};

}  // namespace cipnet::svc
