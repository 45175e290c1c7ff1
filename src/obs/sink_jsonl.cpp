#include "obs/sink_jsonl.h"

#include "util/json_writer.h"

namespace cipnet::obs {

namespace {

void write_pairs(
    json::Writer& w,
    const std::vector<std::pair<std::string, std::uint64_t>>& pairs,
    bool nonzero_only = false) {
  w.begin_object();
  for (const auto& [name, value] : pairs) {
    if (value != 0 || !nonzero_only) w.member(name, value);
  }
  w.end_object();
}

}  // namespace

void write_snapshot_members(json::Writer& w, const Snapshot& snapshot,
                            bool nonzero_only) {
  w.key("counters");
  write_pairs(w, snapshot.counters, nonzero_only);
  w.key("gauges");
  write_pairs(w, snapshot.gauges, nonzero_only);
  w.key("histograms").begin_object();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.count == 0) continue;
    w.key(h.name).begin_object();
    w.member("count", h.count);
    w.member("sum", h.sum);
    w.member("p50", h.percentile(50));
    w.member("p90", h.percentile(90));
    w.member("p99", h.percentile(99));
    w.member("max", h.max);
    w.end_object();
  }
  w.end_object();
}

void JsonlSink::write_span(const SpanRecord& span,
                           const std::string& parent_path, int depth) {
  const std::string path =
      parent_path.empty() ? span.name : parent_path + "/" + span.name;
  json::Writer w;
  w.begin_object();
  w.member("event", "span");
  w.member("name", span.name);
  w.member("path", path);
  w.member("depth", depth);
  w.member("start_ns", span.start_ns);
  w.member("dur_ns", span.duration_ns);
  w.member("tid", span.tid);
  if (span.job_id != 0) w.member("job", span.job_id);
  w.key("counters");
  write_pairs(w, span.counter_deltas);
  w.end_object();
  out_ << w.str() << '\n';
  for (const SpanRecord& child : span.children) {
    write_span(child, path, depth + 1);
  }
}

void JsonlSink::on_span(const SpanRecord& root) {
  std::lock_guard<std::mutex> lock(mutex_);
  write_span(root, "", 0);
  out_.flush();
}

void JsonlSink::write_counters(const Snapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Writer w;
  w.begin_object();
  w.member("event", "counters");
  write_snapshot_members(w, snapshot, /*nonzero_only=*/false);
  w.end_object();
  out_ << w.str() << '\n';
  out_.flush();
}

}  // namespace cipnet::obs
