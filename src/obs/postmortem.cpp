#include "obs/postmortem.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "util/error.h"
#include "util/json.h"
#include "util/json_writer.h"

namespace cipnet::obs {

namespace {

/// A JSON number as a count: 0 when it is not a number or out of range.
std::uint64_t to_u64(const json::Value& value) {
  if (value.type() != json::Value::Type::kNumber) return 0;
  const double v = value.as_number();
  return v > 0 && v < 1.8e19 ? static_cast<std::uint64_t>(v) : 0;
}

std::uint64_t u64(const json::Value& doc, std::string_view key) {
  const json::Value* value = doc.find(key);
  return value == nullptr ? 0 : to_u64(*value);
}

/// The nonzero members of a `counters` object; none when it is absent.
std::vector<std::pair<std::string, std::uint64_t>> nonzero_counters(
    const json::Value* counters) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  if (counters == nullptr || !counters->is_object()) return out;
  for (const auto& [name, value] : counters->members()) {
    if (const std::uint64_t v = to_u64(value); v != 0) {
      out.emplace_back(name, v);
    }
  }
  return out;
}

/// The parallel explorer's shard gauges from a `gauges` object; a missing
/// object leaves both untouched, a missing name reads as 0.
void read_shard_gauges(const json::Value* gauges, std::uint64_t& max,
                       std::uint64_t& imbalance_x1000) {
  if (gauges == nullptr || !gauges->is_object()) return;
  max = u64(*gauges, "reach.par.shard_states_max");
  imbalance_x1000 = u64(*gauges, "reach.par.imbalance_x1000");
}

std::string format_ms(double ms) {
  char buf[32];
  if (ms >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ms / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fms", ms);
  }
  return buf;
}

std::string format_mib(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fMiB", bytes / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

std::size_t PostMortemBuilder::ingest(const std::string& name,
                                      const std::string& text) {
  pm_.files.push_back(name);
  const std::size_t stream = pm_.files.size() - 1;
  const std::size_t before = pm_.lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++pm_.lines;
    json::Value doc;
    try {
      doc = json::parse(line);
    } catch (const ParseError&) {
      ++pm_.skipped;
      continue;
    }
    if (!doc.is_object()) {
      ++pm_.skipped;
      continue;
    }
    const std::string event = doc.get_string("event");
    if (event == "span") {
      pm_.saw_spans = true;
      PostMortem::SpanLine span;
      span.stream = stream;
      span.name = doc.get_string("name");
      span.path = doc.get_string("path", span.name);
      span.depth = u64(doc, "depth");
      span.start_ns = u64(doc, "start_ns");
      span.dur_ns = u64(doc, "dur_ns");
      span.tid = u64(doc, "tid");
      span.job = u64(doc, "job");
      span.counters = nonzero_counters(doc.find("counters"));
      pm_.spans.push_back(std::move(span));
    } else if (event == "sample") {
      pm_.saw_samples = true;
      PostMortem::SamplePoint point;
      point.stream = stream;
      point.seq = u64(doc, "seq");
      point.ns = u64(doc, "ns");
      point.rss_bytes = u64(doc, "rss_bytes");
      if (const json::Value* counters = doc.find("counters")) {
        point.states = u64(*counters, "reach.states");
      }
      read_shard_gauges(doc.find("gauges"), point.shard_states_max,
                        point.shard_imbalance_x1000);
      pm_.samples.push_back(point);
    } else if (event == "counters") {
      read_shard_gauges(doc.find("gauges"), pm_.shard_states_max,
                        pm_.shard_imbalance_x1000);
      pm_.final_counters = nonzero_counters(doc.find("counters"));
    } else if (event == "flight_dump") {
      pm_.saw_flight = true;
      pm_.flight_recorded =
          std::max(pm_.flight_recorded, u64(doc, "recorded"));
      pm_.flight_discarded =
          std::max(pm_.flight_discarded, u64(doc, "discarded"));
    } else if (event.empty() && doc.find("kind") != nullptr &&
               doc.find("seq") != nullptr) {
      // Bare flight-recorder event line (the body of a dump).
      pm_.saw_flight = true;
      const std::string kind = doc.get_string("kind");
      auto it = std::find_if(
          pm_.flight_kinds.begin(), pm_.flight_kinds.end(),
          [&](const auto& entry) { return entry.first == kind; });
      if (it == pm_.flight_kinds.end()) {
        pm_.flight_kinds.emplace_back(kind, 1);
      } else {
        ++it->second;
      }
      if (kind == "fault_fired") {
        const std::string site = doc.get_string("detail");
        auto site_it = std::find_if(
            pm_.fault_sites.begin(), pm_.fault_sites.end(),
            [&](const PostMortem::FaultSite& f) { return f.site == site; });
        if (site_it == pm_.fault_sites.end()) {
          pm_.fault_sites.push_back(PostMortem::FaultSite{site, 1});
        } else {
          ++site_it->fired;
        }
      }
    } else {
      ++pm_.skipped;
    }
  }
  return pm_.lines - before;
}

PostMortem PostMortemBuilder::finish(std::size_t top_limit) {
  for (const PostMortem::SpanLine& span : pm_.spans) {
    auto it = std::find_if(
        pm_.phases.begin(), pm_.phases.end(),
        [&](const PostMortem::PhaseAgg& agg) { return agg.name == span.name; });
    if (it == pm_.phases.end()) {
      pm_.phases.push_back(
          PostMortem::PhaseAgg{span.name, 1, span.dur_ns, span.dur_ns});
    } else {
      ++it->count;
      it->total_ns += span.dur_ns;
      it->max_ns = std::max(it->max_ns, span.dur_ns);
    }
  }
  std::sort(pm_.phases.begin(), pm_.phases.end(),
            [](const PostMortem::PhaseAgg& a, const PostMortem::PhaseAgg& b) {
              return a.total_ns > b.total_ns;
            });
  pm_.top_spans.resize(std::min(top_limit, pm_.spans.size()));
  std::partial_sort_copy(
      pm_.spans.begin(), pm_.spans.end(), pm_.top_spans.begin(),
      pm_.top_spans.end(),
      [](const PostMortem::SpanLine& a, const PostMortem::SpanLine& b) {
        return a.dur_ns > b.dur_ns;
      });
  // Each file is its own stream (its own process clock and counters), so
  // rates are taken only between neighbours of one stream.
  std::sort(pm_.samples.begin(), pm_.samples.end(),
            [](const PostMortem::SamplePoint& a,
               const PostMortem::SamplePoint& b) {
              return std::tie(a.stream, a.seq) < std::tie(b.stream, b.seq);
            });
  for (std::size_t i = 1; i < pm_.samples.size(); ++i) {
    const PostMortem::SamplePoint& prev = pm_.samples[i - 1];
    PostMortem::SamplePoint& cur = pm_.samples[i];
    if (cur.stream == prev.stream && cur.ns > prev.ns &&
        cur.states >= prev.states) {
      cur.states_per_sec = static_cast<double>(cur.states - prev.states) *
                           1e9 / static_cast<double>(cur.ns - prev.ns);
    }
  }
  if (pm_.shard_states_max == 0) {
    for (auto it = pm_.samples.rbegin(); it != pm_.samples.rend(); ++it) {
      if (it->shard_states_max == 0) continue;
      pm_.shard_states_max = it->shard_states_max;
      pm_.shard_imbalance_x1000 = it->shard_imbalance_x1000;
      break;
    }
  }
  std::sort(pm_.flight_kinds.begin(), pm_.flight_kinds.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::sort(pm_.fault_sites.begin(), pm_.fault_sites.end(),
            [](const PostMortem::FaultSite& a, const PostMortem::FaultSite& b) {
              return a.fired > b.fired;
            });
  return std::move(pm_);
}

namespace {

/// Down-sample a curve to at most `limit` evenly spaced points (first and
/// last always kept) so huge sample streams stay readable.
template <typename T>
std::vector<const T*> thin_curve(const std::vector<T>& points,
                                 std::size_t limit) {
  std::vector<const T*> out;
  if (points.empty()) return out;
  if (points.size() <= limit) {
    for (const T& p : points) out.push_back(&p);
    return out;
  }
  for (std::size_t i = 0; i < limit; ++i) {
    const std::size_t idx = i * (points.size() - 1) / (limit - 1);
    if (!out.empty() && out.back() == &points[idx]) continue;
    out.push_back(&points[idx]);
  }
  return out;
}

void render_human(const PostMortem& pm, bool markdown, std::string& out) {
  const char* h2 = markdown ? "## " : "== ";
  const char* h2e = markdown ? "" : " ==";
  auto section = [&](const char* title) {
    out += h2;
    out += title;
    out += h2e;
    out += '\n';
  };
  char buf[256];

  if (markdown) out += "# Post-mortem report\n\n";
  std::snprintf(buf, sizeof(buf),
                "%singested %zu file(s): %zu line(s), %zu skipped\n\n",
                markdown ? "" : "post-mortem: ", pm.files.size(),
                pm.lines, pm.skipped);
  out += buf;

  if (!pm.phases.empty()) {
    section("Phase breakdown");
    if (markdown) {
      out += "| phase | count | total | mean | max |\n";
      out += "|---|---:|---:|---:|---:|\n";
    }
    for (const PostMortem::PhaseAgg& agg : pm.phases) {
      const double total_ms = static_cast<double>(agg.total_ns) / 1e6;
      const double mean_ms =
          agg.count == 0 ? 0.0
                         : total_ms / static_cast<double>(agg.count);
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %llu | %s | %s | %s |\n",
                      agg.name.c_str(),
                      static_cast<unsigned long long>(agg.count),
                      format_ms(total_ms).c_str(), format_ms(mean_ms).c_str(),
                      format_ms(static_cast<double>(agg.max_ns) / 1e6)
                          .c_str());
      } else {
        std::snprintf(buf, sizeof(buf),
                      "  %-28s x%-6llu total %-10s mean %-10s max %s\n",
                      agg.name.c_str(),
                      static_cast<unsigned long long>(agg.count),
                      format_ms(total_ms).c_str(), format_ms(mean_ms).c_str(),
                      format_ms(static_cast<double>(agg.max_ns) / 1e6)
                          .c_str());
      }
      out += buf;
    }
    out += '\n';
  }

  if (!pm.top_spans.empty()) {
    section("Top spans");
    if (markdown) {
      out += "| span | duration | job |\n|---|---:|---:|\n";
    }
    for (const PostMortem::SpanLine& span : pm.top_spans) {
      const double ms = static_cast<double>(span.dur_ns) / 1e6;
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %s | %llu |\n",
                      span.path.c_str(), format_ms(ms).c_str(),
                      static_cast<unsigned long long>(span.job));
      } else {
        std::snprintf(buf, sizeof(buf), "  %-48s %-10s job %llu\n",
                      span.path.c_str(), format_ms(ms).c_str(),
                      static_cast<unsigned long long>(span.job));
      }
      out += buf;
    }
    out += '\n';
  }

  if (!pm.samples.empty()) {
    section("Throughput and RSS curve (sampler)");
    std::uint64_t peak = 0;
    for (const PostMortem::SamplePoint& p : pm.samples) {
      peak = std::max(peak, p.rss_bytes);
    }
    if (markdown) {
      out += "| seq | t | rss | states | states/s |\n";
      out += "|---:|---:|---:|---:|---:|\n";
    }
    // t counts from the first sample of the point's own stream.
    std::vector<std::uint64_t> t0(pm.files.size(), 0);
    for (auto it = pm.samples.rbegin(); it != pm.samples.rend(); ++it) {
      t0[it->stream] = it->ns;
    }
    for (const PostMortem::SamplePoint* p : thin_curve(pm.samples, 20)) {
      const double t_ms =
          static_cast<double>(p->ns - t0[p->stream]) / 1e6;
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %llu | %s | %s | %llu | %.0f |\n",
                      static_cast<unsigned long long>(p->seq),
                      format_ms(t_ms).c_str(),
                      format_mib(static_cast<double>(p->rss_bytes)).c_str(),
                      static_cast<unsigned long long>(p->states),
                      p->states_per_sec);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "  #%-6llu %-10s rss %-12s states %-12llu %9.0f/s\n",
                      static_cast<unsigned long long>(p->seq),
                      format_ms(t_ms).c_str(),
                      format_mib(static_cast<double>(p->rss_bytes)).c_str(),
                      static_cast<unsigned long long>(p->states),
                      p->states_per_sec);
      }
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s%zu sample(s), peak rss %s\n\n",
                  markdown ? "\n" : "  ", pm.samples.size(),
                  format_mib(static_cast<double>(peak)).c_str());
    out += buf;
  }

  if (pm.shard_states_max != 0) {
    section("Shard balance");
    std::snprintf(buf, sizeof(buf),
                  "%sfullest shard %llu states, imbalance %.2fx (max/mean)\n",
                  markdown ? "" : "  ",
                  static_cast<unsigned long long>(pm.shard_states_max),
                  static_cast<double>(pm.shard_imbalance_x1000) / 1000.0);
    out += buf;
    out += '\n';
  }

  if (pm.saw_flight) {
    section("Flight recorder");
    std::snprintf(buf, sizeof(buf),
                  "%srecorded %llu event(s), %llu discarded by ring wrap\n",
                  markdown ? "" : "  ",
                  static_cast<unsigned long long>(pm.flight_recorded),
                  static_cast<unsigned long long>(pm.flight_discarded));
    out += buf;
    if (markdown && !pm.flight_kinds.empty()) {
      out += "\n| kind | count |\n|---|---:|\n";
    }
    for (const auto& [kind, count] : pm.flight_kinds) {
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", kind.c_str(),
                      static_cast<unsigned long long>(count));
      } else {
        std::snprintf(buf, sizeof(buf), "  %-20s %llu\n", kind.c_str(),
                      static_cast<unsigned long long>(count));
      }
      out += buf;
    }
    out += '\n';
  }

  if (!pm.final_counters.empty()) {
    section("Final counters");
    // Highlight the health-of-the-run counters — engine selection
    // (`reach.packed.*`), durability (`store.*`), cache effectiveness
    // (`svc.cache.*`) — and fold the rest into one summary line.
    auto highlighted = [](const std::string& name) {
      return name.rfind("reach.packed.", 0) == 0 ||
             name.rfind("store.", 0) == 0 || name.rfind("svc.cache.", 0) == 0;
    };
    if (markdown) out += "| counter | value |\n|---|---:|\n";
    for (const auto& [name, value] : pm.final_counters) {
      if (!highlighted(name)) continue;
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", name.c_str(),
                      static_cast<unsigned long long>(value));
      } else {
        std::snprintf(buf, sizeof(buf), "  %-28s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
      }
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s%zu nonzero counter(s) total (full set in the json "
                  "format)\n",
                  markdown ? "\n" : "  ", pm.final_counters.size());
    out += buf;
    out += '\n';
  }

  if (!pm.fault_sites.empty()) {
    section("Fault sites");
    if (markdown) out += "| site | fired |\n|---|---:|\n";
    for (const PostMortem::FaultSite& site : pm.fault_sites) {
      if (markdown) {
        std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", site.site.c_str(),
                      static_cast<unsigned long long>(site.fired));
      } else {
        std::snprintf(buf, sizeof(buf), "  %-28s fired %llu\n",
                      site.site.c_str(),
                      static_cast<unsigned long long>(site.fired));
      }
      out += buf;
    }
    out += '\n';
  }
}

std::string render_json(const PostMortem& pm) {
  json::Writer w;
  w.begin_object();
  w.key("ingested").begin_object();
  w.member("files", static_cast<std::uint64_t>(pm.files.size()));
  w.member("lines", static_cast<std::uint64_t>(pm.lines));
  w.member("skipped", static_cast<std::uint64_t>(pm.skipped));
  w.member("spans", pm.saw_spans);
  w.member("samples", pm.saw_samples);
  w.member("flight", pm.saw_flight);
  w.end_object();
  w.key("phases").begin_array();
  for (const PostMortem::PhaseAgg& agg : pm.phases) {
    w.begin_object();
    w.member("name", agg.name);
    w.member("count", agg.count);
    w.member("total_ns", agg.total_ns);
    w.member("max_ns", agg.max_ns);
    w.end_object();
  }
  w.end_array();
  w.key("top_spans").begin_array();
  for (const PostMortem::SpanLine& span : pm.top_spans) {
    w.begin_object();
    w.member("path", span.path);
    w.member("start_ns", span.start_ns);
    w.member("dur_ns", span.dur_ns);
    if (span.job != 0) w.member("job", span.job);
    w.end_object();
  }
  w.end_array();
  w.key("samples").begin_array();
  for (const PostMortem::SamplePoint& p : pm.samples) {
    w.begin_object();
    w.member("seq", p.seq);
    w.member("ns", p.ns);
    w.member("rss_bytes", p.rss_bytes);
    if (p.states != 0) w.member("states", p.states);
    if (p.states_per_sec != 0.0) w.member("states_per_sec", p.states_per_sec);
    w.end_object();
  }
  w.end_array();
  w.key("shards");
  if (pm.shard_states_max == 0) {
    w.null();
  } else {
    w.begin_object();
    w.member("max", pm.shard_states_max);
    w.member("imbalance",
             static_cast<double>(pm.shard_imbalance_x1000) / 1000.0);
    w.end_object();
  }
  w.key("flight").begin_object();
  w.member("recorded", pm.flight_recorded);
  w.member("discarded", pm.flight_discarded);
  w.key("kinds").begin_object();
  for (const auto& [kind, count] : pm.flight_kinds) w.member(kind, count);
  w.end_object();
  w.end_object();
  w.key("fault_sites").begin_array();
  for (const PostMortem::FaultSite& site : pm.fault_sites) {
    w.begin_object();
    w.member("site", site.site);
    w.member("fired", site.fired);
    w.end_object();
  }
  w.end_array();
  w.key("final_counters").begin_object();
  for (const auto& [name, value] : pm.final_counters) w.member(name, value);
  w.end_object();
  w.end_object();
  return w.take();
}

/// Nanoseconds to the trace-event format's microsecond timestamps, keeping
/// sub-µs precision as a fractional part (spliced in as a raw JSON number).
std::string us_from_ns(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

/// Chrome trace-event JSON, loadable in Perfetto or chrome://tracing: one
/// process per ingested file, one "X" event per span line on its thread's
/// track with the counter deltas as args. Counter tracks plot the sample
/// lines' absolute values only: the deltas of nested spans overlap, so a
/// running sum of them would count the same work once per nesting level.
std::string render_chrome(const PostMortem& pm) {
  json::Writer w;
  w.begin_object();
  w.member("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < pm.files.size(); ++i) {
    w.begin_object();
    w.member("name", "process_name");
    w.member("ph", "M");
    w.member("pid", i + 1);
    w.key("args").begin_object().member("name", pm.files[i]).end_object();
    w.end_object();
  }
  for (const PostMortem::SpanLine& span : pm.spans) {
    w.begin_object();
    w.member("name", span.name);
    w.member("cat", "cipnet");
    w.member("ph", "X");
    w.key("ts").raw(us_from_ns(span.start_ns));
    w.key("dur").raw(us_from_ns(span.dur_ns));
    w.member("pid", span.stream + 1);
    w.member("tid", span.tid);
    w.key("args").begin_object();
    for (const auto& [name, delta] : span.counters) w.member(name, delta);
    w.end_object();
    w.end_object();
  }
  for (const PostMortem::SamplePoint& p : pm.samples) {
    for (const auto& [name, value] :
         {std::pair{"reach.states", p.states},
          std::pair{"rss_bytes", p.rss_bytes}}) {
      w.begin_object();
      w.member("name", name);
      w.member("ph", "C");
      w.key("ts").raw(us_from_ns(p.ns));
      w.member("pid", p.stream + 1);
      w.key("args").begin_object().member("value", value).end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.take();
}

/// The span lines as indented trees: two spaces per depth level, durations
/// in milliseconds, then the counter deltas; each root opens with `trace:`.
std::string render_tree(const PostMortem& pm) {
  std::string out;
  char dur[32];
  for (const PostMortem::SpanLine& span : pm.spans) {
    if (span.depth == 0) out += "trace:\n";
    // The depth comes from the file: cap it so a corrupt line cannot ask
    // for an arbitrarily long indent.
    const std::size_t indent =
        2 * (std::min<std::uint64_t>(span.depth, 64) + 1);
    out += std::string(indent, ' ') + span.name;
    const std::size_t used = indent + span.name.size();
    out += std::string(used < 40 ? 40 - used : 1, ' ');
    std::snprintf(dur, sizeof(dur), "%.3fms",
                  static_cast<double>(span.dur_ns) / 1e6);
    out += dur;
    for (const auto& [name, delta] : span.counters) {
      out += "  " + name + "=" + std::to_string(delta);
    }
    out += '\n';
  }
  return out;
}

}  // namespace

std::string render_postmortem(const PostMortem& pm, std::string_view format) {
  if (format == "json") return render_json(pm);
  if (format == "chrome") return render_chrome(pm);
  if (format == "tree") return render_tree(pm);
  std::string out;
  if (format == "text") {
    render_human(pm, /*markdown=*/false, out);
  } else if (format == "md" || format == "markdown") {
    render_human(pm, /*markdown=*/true, out);
  } else {
    throw Error("unknown report format: " + std::string(format) +
                " (expected text, md, json, chrome, or tree)");
  }
  return out;
}

}  // namespace cipnet::obs
