#include "svc/job_table.h"

#include <algorithm>
#include <utility>

namespace cipnet::svc {

namespace {

std::uint64_t ms_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count());
}

}  // namespace

std::string_view job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kErrored: return "errored";
    case JobState::kShed: return "shed";
    case JobState::kRejected: return "rejected";
  }
  return "unknown";
}

std::uint64_t JobInfo::elapsed_ms(
    std::chrono::steady_clock::time_point now) const {
  const bool finished_set =
      finished != std::chrono::steady_clock::time_point{};
  return ms_between(submitted, finished_set ? finished : now);
}

std::uint64_t JobInfo::phase_age_ms(
    std::chrono::steady_clock::time_point now) const {
  if (phase_changed == std::chrono::steady_clock::time_point{}) return 0;
  return ms_between(phase_changed, now);
}

void JobTable::on_submitted(std::uint64_t job_id, std::string id_json,
                            std::string op, std::string client) {
  JobInfo info;
  info.job_id = job_id;
  info.id_json = std::move(id_json);
  info.op = std::move(op);
  info.client = std::move(client);
  info.state = JobState::kQueued;
  info.phase = "queued";
  info.submitted = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  live_.push_back(std::move(info));
}

void JobTable::on_started(std::uint64_t job_id) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  for (JobInfo& info : live_) {
    if (info.job_id != job_id) continue;
    info.state = JobState::kRunning;
    info.phase = "running";
    info.started = now;
    info.phase_changed = now;
    return;
  }
}

void JobTable::on_phase(std::uint64_t job_id, std::string_view phase) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  for (JobInfo& info : live_) {
    if (info.job_id != job_id) continue;
    info.phase.assign(phase);
    info.phase_changed = now;
    return;
  }
}

void JobTable::on_finished(std::uint64_t job_id, JobState state,
                           std::string_view outcome, bool cached,
                           std::string id_json, std::string op,
                           std::string client) {
  const auto now = std::chrono::steady_clock::now();
  JobInfo finished;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(
        live_.begin(), live_.end(),
        [job_id](const JobInfo& info) { return info.job_id == job_id; });
    if (it != live_.end()) {
      finished = std::move(*it);
      live_.erase(it);
      found = true;
    }
  }
  if (!found) {
    // Shed/rejected before ever reaching the table: synthesize the row so
    // the rejection is still visible in `recent`.
    finished.job_id = job_id;
    finished.id_json = std::move(id_json);
    finished.op = std::move(op);
    finished.client = std::move(client);
    finished.submitted = now;
  }
  finished.state = state;
  finished.phase = "done";
  finished.outcome.assign(outcome);
  finished.cached = cached;
  finished.finished = now;
  std::lock_guard<std::mutex> lock(mutex_);
  recent_.push_front(std::move(finished));
  while (recent_.size() > recent_capacity_) recent_.pop_back();
}

std::vector<JobInfo> JobTable::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobInfo> out = live_;
  std::sort(out.begin(), out.end(),
            [](const JobInfo& a, const JobInfo& b) {
              return a.job_id < b.job_id;
            });
  return out;
}

std::vector<JobInfo> JobTable::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {recent_.begin(), recent_.end()};
}

std::size_t JobTable::in_flight_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_.size();
}

}  // namespace cipnet::svc
