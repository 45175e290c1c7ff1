#pragma once

// Shared plumbing of the cipbench workloads: the run configuration, the
// metric table printed as the final JSON line, the in-memory span log
// behind `--trace 1`, and small timing and statistics helpers.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cipbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory holding the cipbench and cipnet binaries.
  std::string bin_dir;
  /// Per-run working directory (server cache dirs and logs), removed at
  /// exit.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics by name, each with its unit.
class Metrics {
 public:
  /// Sets (or replaces) a metric; throws on a value that is not finite.
  void set(const std::string& name, double value, const std::string& unit);
  /// The metric named `name`, or nullptr.
  [[nodiscard]] const Metric* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Metric>& entries() const { return entries_; }

 private:
  std::vector<Metric> entries_;
};

/// What a workload reports: operations attempted and failed (an error or
/// an answer that disagrees with its reference), plus its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;

  /// Counts one failed operation and logs why on stderr.
  void fail(const std::string& why);
  /// `fail(why)` unless `ok`; returns `ok`.
  bool expect(bool ok, const std::string& why);
};

/// Nearest-rank percentile, `q` in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// What a measured window did: the work it completed (designs, states,
/// requests), its wall time, the latency of each operation, and the whole
/// rounds over the workload's inputs it ran (flow and explore).
struct Window {
  double work = 0;
  double seconds = 0;
  std::vector<double> latencies_ms;
  std::size_t rounds = 0;

  [[nodiscard]] double rate() const { return work / seconds; }
};

/// The five end-to-end metrics every workload reports (BENCHMARK.json):
/// throughput is the window's work per second, p50 and p90 are over every
/// operation in it.
void report_end_to_end(Outcome& out, double setup_s, const Window& window,
                       double rss_mb);

/// Lets a set-up step exclude work that is not set-up from its time.
class SetupTimer {
 public:
  void pause() { paused_at_ = Clock::now(); }
  void resume() { excluded_ += Clock::now() - paused_at_; }
  [[nodiscard]] Clock::duration excluded() const { return excluded_; }

 private:
  Clock::time_point paused_at_;
  Clock::duration excluded_{};
};

/// Repeats a set-up until it has run `min_reps` times and for at least a
/// quarter second, and returns the median wall time of one repetition in
/// seconds. Repeating keeps one slow start (a cold cache, a CPU still
/// clocking up) from setting the figure. `setup(timer)` builds the
/// workload's inputs anew; the last repetition's result is the one
/// kept.
template <typename F>
double timed_setup(int min_reps, F&& setup) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps || seconds_since(start) < 0.25) {
    SetupTimer timer;
    const auto t0 = Clock::now();
    setup(timer);
    times.push_back(seconds_between(t0 + timer.excluded(), Clock::now()));
  }
  return median(std::move(times));
}

/// Spans recorded around the calls a workload makes into each layer. Kept
/// in memory and written at exit in the span-JSONL schema `cipnet report`
/// ingests. A disabled log records nothing and adds one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Times `fn()` as a span named `name` (a string literal: the log keeps
  /// the view) under the innermost open span.
  template <typename F>
  decltype(auto) span(std::string_view name, F&& fn) {
    if (!enabled_) return fn();
    Open open(*this, name, 0);
    return fn();
  }

  /// Opens a span that stays open until `close()`: the per-design or
  /// per-net root the layer spans nest under. `job` identifies the design,
  /// net or request.
  void open(std::string_view name, std::uint64_t job);
  void close();

  /// Adds a closed root span timed by the caller, for operations that
  /// overlap (requests in flight on several connections).
  void record(std::string_view name, Clock::time_point start,
              Clock::time_point end, std::uint64_t job);

  struct Totals {
    std::uint64_t calls = 0;
    double busy_s = 0;  // self time: duration minus child spans
  };
  /// Per-name totals over every closed layer span (roots excluded).
  [[nodiscard]] std::map<std::string, Totals, std::less<>> totals() const;

  void write_jsonl(const std::string& path) const;

 private:
  struct Record {
    std::string_view name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t job = 0;
  };
  struct Open {
    Open(SpanLog& log, std::string_view name, std::uint64_t job) : log(log) {
      log.open(name, job);
    }
    ~Open() { log.close(); }
    Open(const Open&) = delete;
    Open& operator=(const Open&) = delete;
    SpanLog& log;
  };

  [[nodiscard]] std::uint64_t ns_since_epoch(Clock::time_point t) const;
  [[nodiscard]] std::vector<double> self_seconds() const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<std::int64_t> stack_;
};

/// Runs `op(i)` for every input i in whole rounds until `seconds` have
/// passed (at least one round), each call under a root span `span` with job
/// i + 1. `op` returns the work it did; an exception it throws counts as a
/// failed operation on the input `name_of(i)`.
template <typename Op, typename Name>
Window run_rounds(std::size_t inputs, double seconds, std::string_view span,
                  SpanLog& log, Outcome& out, Op&& op, Name&& name_of) {
  Window window;
  const auto start = Clock::now();
  while (window.rounds == 0 || seconds_since(start) < seconds) {
    for (std::size_t i = 0; i < inputs; ++i) {
      const auto t0 = Clock::now();
      ++out.attempted;
      log.open(span, i + 1);
      try {
        window.work += op(i);
        log.close();
        window.latencies_ms.push_back(1e3 * seconds_since(t0));
      } catch (const std::exception& e) {
        log.close();
        out.fail(name_of(i) + ": " + e.what());
      }
    }
    ++window.rounds;
  }
  window.seconds = seconds_since(start);
  return window;
}

/// Per-layer metrics from a traced phase: `<span>.calls` and
/// `<span>.busy_s` per round for every layer span the log holds, plus
/// `layer_coverage`, the layer spans' self time as a share of the traced
/// phase's wall time.
void report_spans(Outcome& out, const SpanLog& log, double rounds,
                  double traced_wall_s);

/// Records `trace_overhead`: how much lower the traced phase's rate was
/// than the untraced phase's, in percent of the untraced rate.
void report_trace_overhead(Outcome& out, double untraced_rate,
                           double traced_rate);

}  // namespace cipbench
