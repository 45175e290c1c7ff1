#pragma once

// JSON-lines trace sink, the one on-disk trace: one JSON object per line,
// one line per span (pre-order, parents before children), machine-consumable
// with any line-oriented JSON reader. `cipnet report` renders it as a
// post-mortem, a Chrome trace or a span tree (obs/postmortem.h). See
// docs/OBSERVABILITY.md for the schema.

#include <mutex>
#include <ostream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cipnet::json {
class Writer;
}  // namespace cipnet::json

namespace cipnet::obs {

/// Writes every completed span tree to `out` as JSONL. The stream must
/// outlive the sink; writes are serialized with an internal mutex.
class JsonlSink : public Sink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}

  void on_span(const SpanRecord& root) override;

  /// Append one `{"event":"counters",...}` line with a full metric
  /// snapshot (counters, gauges, histogram percentiles) — the CLI writes
  /// this as the final line of a trace file.
  void write_counters(const Snapshot& snapshot);

 private:
  void write_span(const SpanRecord& span, const std::string& parent_path,
                  int depth);

  std::mutex mutex_;
  std::ostream& out_;
};

/// Write the `counters`, `gauges` and `histograms` members of `snapshot`
/// into the object open in `w`: the body shared by the `counters` line
/// above, every `{"event":"sample"}` line (obs/timeseries.h) and the
/// service's `metrics` op. Histograms with no recordings are skipped;
/// `nonzero_only` skips zero counters and gauges as well.
void write_snapshot_members(json::Writer& w, const Snapshot& snapshot,
                            bool nonzero_only);

}  // namespace cipnet::obs
