#pragma once

// Post-mortem analysis of one run's observability artifacts — the engine
// behind `cipnet report`. A run can leave up to three kinds of evidence:
//
//   * a span trace (`--trace-out run.jsonl`, `{"event":"span",...}` lines
//     with a final `{"event":"counters",...}` snapshot),
//   * a flight-recorder dump (`--flight-dump`, watchdog/crash/exit dumps:
//     a `{"event":"flight_dump",...}` header followed by bare
//     `{"seq":...,"kind":...}` event lines),
//   * a sample stream (`--samples-out`, `{"event":"sample",...}` lines
//     from the time-series sampler).
//
// `PostMortemBuilder` ingests any mix of these (every line is JSON; each
// is recognized by its shape, unknown lines are counted and skipped, never
// fatal) and distills one `PostMortem`: phase breakdown, slowest spans,
// every span line, the states/s and RSS curve of the sample stream, the
// shard-imbalance gauges of the parallel explorer, fault-site and
// flight-event summaries. The renderers emit it as aligned text, markdown
// tables, a JSON document that round-trips through the strict parser, a
// Chrome trace-event document for Perfetto, or the indented span tree.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cipnet::obs {

struct PostMortem {
  /// Spans aggregated by name across every ingested trace.
  struct PhaseAgg {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };

  /// One ingested span line, kept whole for the chrome and tree formats.
  struct SpanLine {
    std::size_t stream = 0;  ///< index of the ingested file it came from
    std::string name;
    std::string path;  ///< root/.../name, or the name when the line has none
    std::uint64_t depth = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t tid = 0;
    std::uint64_t job = 0;
    /// Nonzero counter deltas accrued while the span was open.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
  };

  /// One sampler reading: the states/s and RSS curve.
  struct SamplePoint {
    std::size_t stream = 0;  ///< index of the ingested file it came from
    std::uint64_t seq = 0;
    std::uint64_t ns = 0;
    std::uint64_t rss_bytes = 0;
    std::uint64_t states = 0;  ///< reach.states counter, 0 when absent
    /// reach.states gained since the previous sample of the same stream,
    /// per second of the interval; 0 for a stream's first sample.
    double states_per_sec = 0.0;
    /// reach.par.shard_states_max / reach.par.imbalance_x1000 gauges.
    std::uint64_t shard_states_max = 0;
    std::uint64_t shard_imbalance_x1000 = 0;
  };

  struct FaultSite {
    std::string site;
    std::uint64_t fired = 0;
  };

  std::vector<PhaseAgg> phases;      ///< sorted by total_ns, descending
  std::vector<SpanLine> spans;       ///< every span line, in ingest order
  std::vector<SpanLine> top_spans;   ///< slowest spans, by dur_ns descending
  std::vector<SamplePoint> samples;  ///< by stream, then seq
  /// Final shard gauges of the parallel explorer: from the `counters`
  /// snapshot when it has them, else from the last sample that does.
  /// 0 when no parallel exploration ran.
  std::uint64_t shard_states_max = 0;
  std::uint64_t shard_imbalance_x1000 = 0;
  std::vector<FaultSite> fault_sites;  ///< from flight `fault_fired` events
  /// Flight events by kind name, sorted by count descending.
  std::vector<std::pair<std::string, std::uint64_t>> flight_kinds;
  std::uint64_t flight_recorded = 0;
  std::uint64_t flight_discarded = 0;
  /// Nonzero counters of the final `{"event":"counters"}` snapshot.
  std::vector<std::pair<std::string, std::uint64_t>> final_counters;

  std::vector<std::string> files;  ///< names of the ingested files, in order
  std::size_t lines = 0;           ///< JSONL lines read
  std::size_t skipped = 0;         ///< unrecognized/unparseable lines
  bool saw_spans = false;
  bool saw_samples = false;
  bool saw_flight = false;
};

/// Streaming accumulator: `ingest` each artifact, then `finish` once.
class PostMortemBuilder {
 public:
  /// Parse one artifact; `name` labels its stream (the Chrome process).
  /// Returns the number of lines read; malformed lines are counted in
  /// `skipped`, never fatal.
  std::size_t ingest(const std::string& name, const std::string& text);

  /// Sort, cap, and return the accumulated report. `top_limit` bounds the
  /// slowest-spans table.
  [[nodiscard]] PostMortem finish(std::size_t top_limit = 10);

 private:
  PostMortem pm_;
};

/// Render `pm` in the requested format: "text" (aligned console report),
/// "md"/"markdown" (tables), "json" (round-trips through json::parse),
/// "chrome" (trace-event JSON: one "X" event per span line, counter tracks
/// from the sample lines), or "tree" (the span lines indented by depth).
/// Throws `Error` on an unknown format.
[[nodiscard]] std::string render_postmortem(const PostMortem& pm,
                                            std::string_view format);

}  // namespace cipnet::obs
