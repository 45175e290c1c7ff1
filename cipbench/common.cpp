#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/json_writer.h"

namespace cipbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + name + " is not finite");
  }
  for (Metric& m : entries_) {
    if (m.name == name) {
      m = {name, value, unit};
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

const Metric* Metrics::find(std::string_view name) const {
  for (const Metric& m : entries_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Outcome::fail(const std::string& why) {
  ++failed;
  // The first few reasons are enough to debug a wrong answer; a systematic
  // error would otherwise flood the log once per operation.
  if (failed <= 8) std::fprintf(stderr, "cipbench: FAILED: %s\n", why.c_str());
}

bool Outcome::expect(bool ok, const std::string& why) {
  if (!ok) fail(why);
  return ok;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double peak_rss_mb(pid_t pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void report_end_to_end(Outcome& out, double setup_s, const Window& window,
                       double rss_mb) {
  out.metrics.set("setup_s", setup_s, "s");
  out.metrics.set("throughput_per_s", window.rate(), "1/s");
  out.metrics.set("p50_ms", percentile(window.latencies_ms, 0.50), "ms");
  out.metrics.set("p90_ms", percentile(window.latencies_ms, 0.90), "ms");
  out.metrics.set("peak_rss_mb", rss_mb, "MiB");
  std::fprintf(stderr, "cipbench: %zu operations in %.3f s\n",
               window.latencies_ms.size(), window.seconds);
}

std::uint64_t SpanLog::ns_since_epoch(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
          .count());
}

void SpanLog::open(std::string_view name, std::uint64_t job) {
  if (!enabled_) return;
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.job = job != 0 || stack_.empty() ? job : records_[stack_.back()].job;
  r.start_ns = ns_since_epoch(Clock::now());
  stack_.push_back(static_cast<std::int64_t>(records_.size()));
  records_.push_back(r);
}

void SpanLog::close() {
  if (!enabled_ || stack_.empty()) return;
  records_[stack_.back()].end_ns = ns_since_epoch(Clock::now());
  stack_.pop_back();
}

void SpanLog::record(std::string_view name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t job) {
  if (!enabled_) return;
  records_.push_back(
      Record{name, ns_since_epoch(start), ns_since_epoch(end), -1, job});
}

std::vector<double> SpanLog::self_seconds() const {
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] += (records_[i].end_ns - records_[i].start_ns) * 1e-9;
    if (records_[i].parent >= 0) {
      self[records_[i].parent] -=
          (records_[i].end_ns - records_[i].start_ns) * 1e-9;
    }
  }
  return self;
}

std::map<std::string, SpanLog::Totals, std::less<>> SpanLog::totals() const {
  std::map<std::string, Totals, std::less<>> out;
  const std::vector<double> self = self_seconds();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].parent < 0) continue;  // roots only group the layers
    auto it = out.find(records_[i].name);
    if (it == out.end()) it = out.emplace(std::string(records_[i].name), Totals{}).first;
    ++it->second.calls;
    it->second.busy_s += self[i];
  }
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::string span_path(r.name);
    int depth = 0;
    for (std::int64_t p = r.parent; p >= 0; p = records_[p].parent) {
      span_path = std::string(records_[p].name) + "/" + span_path;
      ++depth;
    }
    cipnet::json::Writer w;
    w.begin_object();
    w.member("event", "span");
    w.member("name", r.name);
    w.member("path", span_path);
    w.member("depth", depth);
    w.member("start_ns", r.start_ns);
    w.member("dur_ns", r.end_ns - r.start_ns);
    if (r.job != 0) w.member("job", r.job);
    w.end_object();
    out << w.str() << '\n';
  }
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

void report_spans(Outcome& out, const SpanLog& log, double rounds,
                  double traced_wall_s) {
  double layer_busy_s = 0;
  for (const auto& [name, totals] : log.totals()) {
    out.metrics.set(name + ".calls", totals.calls / rounds, "count");
    out.metrics.set(name + ".busy_s", totals.busy_s / rounds, "s");
    layer_busy_s += totals.busy_s;
  }
  out.metrics.set("layer_coverage", 100.0 * layer_busy_s / traced_wall_s, "%");
}

void report_trace_overhead(Outcome& out, double untraced_rate,
                           double traced_rate) {
  out.metrics.set("trace_overhead",
                  100.0 * (untraced_rate - traced_rate) / untraced_rate, "%");
}

}  // namespace cipbench
