// The post-mortem analyzer behind `cipnet report`: line recognition across
// the three artifact kinds (span JSONL, flight dumps, sample streams),
// aggregation, and the five renderers.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/sink_jsonl.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/json.h"

namespace cipnet {
namespace {

const char* kSpanTrace =
    R"({"event":"span","name":"reach.explore","path":"profile/reach.explore","depth":1,"start_ns":1000,"dur_ns":500000,"job":3})"
    "\n"
    R"({"event":"span","name":"structure.scc","path":"profile/structure.scc","depth":1,"start_ns":600000,"dur_ns":20000,"job":3})"
    "\n"
    R"({"event":"span","name":"reach.explore","path":"profile/reach.explore","depth":1,"start_ns":700000,"dur_ns":300000,"job":4})"
    "\n"
    R"({"event":"counters","counters":{"reach.states":320,"reach.edges":976,"idle.zero":0,"reach.packed.selected":1,"reach.packed.fallbacks":0,"store.ckpt.writes":3,"store.corrupt.skipped":1,"svc.cache.hit":2}})"
    "\n";

// Out of seq order on purpose: the report sorts before taking rates.
const char* kSamples =
    R"({"event":"sample","seq":3,"ns":6000000,"rss_bytes":2097152,"counters":{"reach.states":320},"gauges":{"reach.par.shard_states_max":200,"reach.par.imbalance_x1000":2500},"histograms":{}})"
    "\n"
    R"({"event":"sample","seq":1,"ns":1000000,"rss_bytes":1048576,"counters":{"reach.states":100},"gauges":{},"histograms":{}})"
    "\n"
    R"({"event":"sample","seq":2,"ns":2000000,"rss_bytes":1048576,"counters":{"reach.states":300},"gauges":{"reach.par.shard_states_max":190,"reach.par.imbalance_x1000":2400},"histograms":{}})"
    "\n";

const char* kFlightDump =
    R"({"event":"flight_dump","reason":"serve-exit","recorded":5,"discarded":2,"events":5})"
    "\n"
    R"({"seq":0,"ns":10,"job":1,"kind":"job_submitted","detail":"reach"})"
    "\n"
    R"({"seq":1,"ns":20,"job":1,"kind":"job_started","detail":"reach"})"
    "\n"
    R"({"seq":2,"ns":30,"job":1,"kind":"fault_fired","detail":"reach.cancel"})"
    "\n"
    R"({"seq":3,"ns":40,"job":2,"kind":"fault_fired","detail":"reach.cancel"})"
    "\n"
    R"({"seq":4,"ns":50,"job":3,"kind":"fault_fired","detail":"svc.parse"})"
    "\n";

// Two threads of one process: thread 1 runs a request with a nested
// exploration, thread 2 a request that overlaps it in time.
const char* kTwoThreadTrace =
    R"({"event":"span","name":"svc.request","path":"svc.request","depth":0,"start_ns":1000,"dur_ns":9000,"tid":1,"job":7,"counters":{"reach.states":12}})"
    "\n"
    R"({"event":"span","name":"reach.explore","path":"svc.request/reach.explore","depth":1,"start_ns":2500,"dur_ns":6000,"tid":1,"job":7,"counters":{"reach.states":12}})"
    "\n"
    R"({"event":"span","name":"svc.request","path":"svc.request","depth":0,"start_ns":1500,"dur_ns":4000,"tid":2,"job":8,"counters":{}})"
    "\n";

/// The trace events of a rendered chrome document.
std::vector<json::Value> chrome_events(const obs::PostMortem& pm) {
  const json::Value doc = json::parse(obs::render_postmortem(pm, "chrome"));
  const json::Value* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr || !events->is_array()) return {};
  return events->items();
}

/// A chrome timestamp (µs with three decimals) back in nanoseconds.
std::int64_t chrome_ns(const json::Value& event, const char* key) {
  return std::llround(event.get_number(key, -1) * 1000.0);
}

TEST(Report, SpanJsonlAggregatesPhasesAndTopSpans) {
  obs::PostMortemBuilder builder;
  EXPECT_EQ(builder.ingest("trace.jsonl", kSpanTrace), 4u);
  const obs::PostMortem pm = builder.finish();
  EXPECT_TRUE(pm.saw_spans);
  EXPECT_EQ(pm.lines, 4u);
  EXPECT_EQ(pm.skipped, 0u);

  ASSERT_EQ(pm.phases.size(), 2u);
  // Sorted by total time descending: explore (800µs) before scc (20µs).
  EXPECT_EQ(pm.phases[0].name, "reach.explore");
  EXPECT_EQ(pm.phases[0].count, 2u);
  EXPECT_EQ(pm.phases[0].total_ns, 800000u);
  EXPECT_EQ(pm.phases[0].max_ns, 500000u);
  EXPECT_EQ(pm.phases[1].name, "structure.scc");

  ASSERT_EQ(pm.top_spans.size(), 3u);
  EXPECT_EQ(pm.top_spans[0].dur_ns, 500000u);
  EXPECT_EQ(pm.top_spans[0].path, "profile/reach.explore");
  EXPECT_EQ(pm.top_spans[0].job, 3u);

  // Zero-valued counters are elided from the final snapshot.
  ASSERT_EQ(pm.final_counters.size(), 6u);
  for (const auto& [name, value] : pm.final_counters) {
    EXPECT_NE(name, "idle.zero");
    EXPECT_NE(name, "reach.packed.fallbacks");
  }
}

TEST(Report, SampleStreamBuildsRateCurveAndShardTable) {
  obs::PostMortemBuilder builder;
  builder.ingest("samples.jsonl", kSamples);
  const obs::PostMortem pm = builder.finish();
  EXPECT_TRUE(pm.saw_samples);

  ASSERT_EQ(pm.samples.size(), 3u);
  EXPECT_EQ(pm.samples[0].seq, 1u);
  EXPECT_EQ(pm.samples[0].states, 100u);
  EXPECT_EQ(pm.samples[2].rss_bytes, 2097152u);
  // states/s from consecutive samples: none for the first, then
  // 200 states in 1 ms and 20 states in 4 ms.
  EXPECT_DOUBLE_EQ(pm.samples[0].states_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(pm.samples[1].states_per_sec, 200000.0);
  EXPECT_DOUBLE_EQ(pm.samples[2].states_per_sec, 5000.0);

  // The shard table reads the gauges of the last sample that has them.
  EXPECT_EQ(pm.shard_states_max, 200u);
  EXPECT_EQ(pm.shard_imbalance_x1000, 2500u);

  // Another file is another stream (its own clock and counters): its
  // samples sort after this one's and never pair with them for a rate.
  obs::PostMortemBuilder two_files;
  two_files.ingest("a.jsonl", kSamples);
  two_files.ingest(
      "b.jsonl",
      R"({"event":"sample","seq":2,"ns":500,"rss_bytes":1,"counters":{"reach.states":900},"gauges":{},"histograms":{}})");
  const obs::PostMortem two = two_files.finish();
  ASSERT_EQ(two.samples.size(), 4u);
  EXPECT_EQ(two.samples[2].states, 320u);
  EXPECT_DOUBLE_EQ(two.samples[2].states_per_sec, 5000.0);
  EXPECT_EQ(two.samples[3].stream, 1u);
  EXPECT_DOUBLE_EQ(two.samples[3].states_per_sec, 0.0);

  const std::string text = obs::render_postmortem(pm, "text");
  EXPECT_NE(text.find("200000/s"), std::string::npos) << text;
  EXPECT_NE(text.find("fullest shard 200 states, imbalance 2.50x"),
            std::string::npos)
      << text;

  // A trace's closing counters snapshot is the run's final word on the
  // gauges, whatever the samples said.
  obs::PostMortemBuilder with_counters;
  with_counters.ingest("samples.jsonl", kSamples);
  with_counters.ingest(
      "trace.jsonl",
      R"({"event":"counters","counters":{},"gauges":{"reach.par.shard_states_max":210,"reach.par.imbalance_x1000":1050}})");
  const obs::PostMortem final_pm = with_counters.finish();
  EXPECT_EQ(final_pm.shard_states_max, 210u);
  EXPECT_EQ(final_pm.shard_imbalance_x1000, 1050u);
}

TEST(Report, FlightDumpYieldsKindAndFaultSiteBreakdown) {
  obs::PostMortemBuilder builder;
  EXPECT_EQ(builder.ingest("flight.jsonl", kFlightDump), 6u);
  const obs::PostMortem pm = builder.finish();
  EXPECT_TRUE(pm.saw_flight);
  EXPECT_EQ(pm.flight_recorded, 5u);
  EXPECT_EQ(pm.flight_discarded, 2u);

  ASSERT_FALSE(pm.flight_kinds.empty());
  EXPECT_EQ(pm.flight_kinds[0].first, "fault_fired");  // most frequent first
  EXPECT_EQ(pm.flight_kinds[0].second, 3u);

  ASSERT_EQ(pm.fault_sites.size(), 2u);
  EXPECT_EQ(pm.fault_sites[0].site, "reach.cancel");
  EXPECT_EQ(pm.fault_sites[0].fired, 2u);
  EXPECT_EQ(pm.fault_sites[1].site, "svc.parse");
}

TEST(Report, ChromeFormatRoundTripsWithOneCompleteEventPerSpanLine) {
  obs::PostMortemBuilder builder;
  builder.ingest("trace.jsonl", kTwoThreadTrace);
  builder.ingest("samples.jsonl", kSamples);
  const obs::PostMortem pm = builder.finish();
  ASSERT_EQ(pm.spans.size(), 3u);

  std::size_t complete = 0;
  std::set<double> tids;
  for (const json::Value& ev : chrome_events(pm)) {
    if (ev.get_string("ph") != "X") continue;
    ++complete;
    // The span file is the first process; its lines keep their threads.
    EXPECT_EQ(ev.get_number("pid", 0), 1.0);
    ASSERT_NE(ev.find("tid"), nullptr);
    tids.insert(ev.get_number("tid"));
    EXPECT_GE(chrome_ns(ev, "ts"), 1000);
    EXPECT_GT(chrome_ns(ev, "dur"), 0);
  }
  EXPECT_EQ(complete, pm.spans.size());
  EXPECT_EQ(tids, (std::set<double>{1.0, 2.0}));
}

TEST(Report, ChromeFormatNestsEachChildInItsParent) {
  // A real trace from two threads: on each thread's track the complete
  // events must nest or be disjoint, so each child lies within its parent.
  std::ostringstream trace;
  {
    obs::ScopedEnable enable;
    auto sink = std::make_shared<obs::JsonlSink>(trace);
    obs::Tracer::instance().add_sink(sink);
    auto work = [] {
      obs::Span root("nest.root");
      {
        obs::Span a("nest.a");
        { obs::Span b("nest.b"); }
      }
      { obs::Span c("nest.c"); }
    };
    std::thread other(work);
    work();
    other.join();
    obs::Tracer::instance().remove_sink(sink);
  }
  obs::PostMortemBuilder builder;
  builder.ingest("trace.jsonl", trace.str());
  const obs::PostMortem pm = builder.finish();
  ASSERT_EQ(pm.spans.size(), 8u);

  std::vector<std::tuple<double, std::int64_t, std::int64_t>> events;
  for (const json::Value& ev : chrome_events(pm)) {
    if (ev.get_string("ph") != "X") continue;
    const std::int64_t ts = chrome_ns(ev, "ts");
    events.emplace_back(ev.get_number("tid"), ts, ts + chrome_ns(ev, "dur"));
  }
  ASSERT_EQ(events.size(), 8u);
  std::set<double> tids;
  for (const auto& [tid, start, end] : events) {
    tids.insert(tid);
    for (const auto& [other_tid, other_start, other_end] : events) {
      if (other_tid != tid) continue;
      const bool disjoint = end <= other_start || other_end <= start;
      const bool nested = (start <= other_start && other_end <= end) ||
                          (other_start <= start && end <= other_end);
      EXPECT_TRUE(disjoint || nested)
          << "tid " << tid << ": [" << start << ", " << end << ") vs ["
          << other_start << ", " << other_end << ")";
    }
  }
  EXPECT_EQ(tids.size(), 2u);
}

TEST(Report, ChromeCounterTracksComeOnlyFromSamples) {
  obs::PostMortemBuilder builder;
  builder.ingest("trace.jsonl", kTwoThreadTrace);
  builder.ingest("samples.jsonl", kSamples);
  const obs::PostMortem pm = builder.finish();

  // Every "C" event is one sample's absolute reach.states or RSS, in the
  // samples' process, so the span deltas (12 states) never appear and the
  // states track never steps down.
  std::vector<std::tuple<std::string, std::int64_t, double>> counters;
  for (const json::Value& ev : chrome_events(pm)) {
    if (ev.get_string("ph") != "C") continue;
    EXPECT_EQ(ev.get_number("pid", 0), 2.0);
    const json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    counters.emplace_back(ev.get_string("name"), chrome_ns(ev, "ts"),
                          args->get_number("value", -1));
  }
  ASSERT_EQ(counters.size(), 2 * pm.samples.size());
  for (const auto& [name, ns, value] : counters) {
    bool matched = false;
    for (const obs::PostMortem::SamplePoint& p : pm.samples) {
      if (static_cast<std::uint64_t>(ns) != p.ns) continue;
      const std::uint64_t expected =
          name == "reach.states" ? p.states : p.rss_bytes;
      matched = name == "reach.states" || name == "rss_bytes";
      EXPECT_EQ(value, static_cast<double>(expected)) << name << " @" << ns;
    }
    EXPECT_TRUE(matched) << name << " @" << ns;
  }
  for (const char* track : {"reach.states", "rss_bytes"}) {
    double last = -1;
    std::int64_t last_ns = -1;
    for (const auto& [name, ns, value] : counters) {
      if (name != track) continue;
      EXPECT_GT(ns, last_ns) << track;
      // RSS is the current resident set and may fall; states only rise.
      if (name == "reach.states") {
        EXPECT_GE(value, last);
      }
      last = value;
      last_ns = ns;
    }
  }
}

TEST(Report, TreeFormatIndentsChildrenUnderTheirRoot) {
  obs::PostMortemBuilder builder;
  builder.ingest("trace.jsonl", kTwoThreadTrace);
  const std::string tree = obs::render_postmortem(builder.finish(), "tree");
  EXPECT_EQ(tree.rfind("trace:\n  svc.request ", 0), 0u) << tree;
  EXPECT_NE(tree.find("\n    reach.explore "), std::string::npos) << tree;
  EXPECT_NE(tree.find("0.006ms  reach.states=12\n"), std::string::npos)
      << tree;
  // The second thread's request is a root of its own.
  EXPECT_NE(tree.find("\ntrace:\n  svc.request "), std::string::npos) << tree;
}

TEST(Report, MalformedLinesAreSkippedNotFatal) {
  obs::PostMortemBuilder builder;
  const std::string text =
      "not json at all\n"
      "{\"event\":\"span\",\"name\":\"ok\",\"start_ns\":1,\"dur_ns\":2}\n"
      "[1,2,3]\n"
      "{\"event\":\"mystery\"}\n";
  builder.ingest("mixed.jsonl", text);
  const obs::PostMortem pm = builder.finish();
  EXPECT_EQ(pm.lines, 4u);
  EXPECT_EQ(pm.skipped, 3u);
  ASSERT_EQ(pm.phases.size(), 1u);
  EXPECT_EQ(pm.phases[0].name, "ok");
}

TEST(Report, OutOfRangeNumbersReadAsZeroAndNonNumericCountersAreDropped) {
  obs::PostMortemBuilder builder;
  builder.ingest(
      "odd.jsonl",
      R"({"event":"span","name":"deep","depth":1e15,"start_ns":-5,"dur_ns":1e300})"
      "\n"
      R"({"event":"counters","counters":{"bad":"x","ok":2}})"
      "\n");
  const obs::PostMortem pm = builder.finish();
  EXPECT_EQ(pm.skipped, 0u);
  ASSERT_EQ(pm.spans.size(), 1u);
  EXPECT_EQ(pm.spans[0].start_ns, 0u);
  EXPECT_EQ(pm.spans[0].dur_ns, 0u);
  ASSERT_EQ(pm.final_counters.size(), 1u);
  EXPECT_EQ(pm.final_counters[0].first, "ok");
  // The tree caps the indent a corrupt depth asks for.
  EXPECT_LT(obs::render_postmortem(pm, "tree").size(), 400u);
}

TEST(Report, TopSpansAreCappedByLimit) {
  obs::PostMortemBuilder builder;
  std::string text;
  for (int i = 0; i < 30; ++i) {
    text += "{\"event\":\"span\",\"name\":\"s\",\"start_ns\":0,\"dur_ns\":" +
            std::to_string(100 + i) + "}\n";
  }
  builder.ingest("many.jsonl", text);
  const obs::PostMortem pm = builder.finish(/*top_limit=*/5);
  ASSERT_EQ(pm.top_spans.size(), 5u);
  EXPECT_EQ(pm.top_spans[0].dur_ns, 129u);  // slowest kept
  EXPECT_EQ(pm.phases[0].count, 30u);       // aggregation sees everything
}

obs::PostMortem full_postmortem() {
  obs::PostMortemBuilder builder;
  builder.ingest("trace.jsonl", kSpanTrace);
  builder.ingest("samples.jsonl", kSamples);
  builder.ingest("flight.jsonl", kFlightDump);
  return builder.finish();
}

TEST(Report, TextRenderingCoversEverySection) {
  const std::string out = obs::render_postmortem(full_postmortem(), "text");
  for (const char* section :
       {"Phase breakdown", "Top spans", "Throughput", "RSS curve",
        "Shard balance", "Flight recorder", "Fault sites",
        "Final counters"}) {
    EXPECT_NE(out.find(section), std::string::npos) << section;
  }
  EXPECT_NE(out.find("reach.explore"), std::string::npos);
  EXPECT_NE(out.find("reach.cancel"), std::string::npos);
}

TEST(Report, FinalCountersSectionHighlightsEngineAndDurability) {
  const std::string out = obs::render_postmortem(full_postmortem(), "text");
  // Engine-selection, durability, and cache counters are surfaced...
  EXPECT_NE(out.find("reach.packed.selected"), std::string::npos);
  EXPECT_NE(out.find("store.ckpt.writes"), std::string::npos);
  EXPECT_NE(out.find("store.corrupt.skipped"), std::string::npos);
  EXPECT_NE(out.find("svc.cache.hit"), std::string::npos);
  // ...the bulk statistics are not (json carries the full set)...
  EXPECT_EQ(out.find("reach.edges"), std::string::npos);
  // ...and the summary line reports the full count.
  EXPECT_NE(out.find("6 nonzero counter(s) total"), std::string::npos);
}

TEST(Report, MarkdownRenderingEmitsTables) {
  const std::string out = obs::render_postmortem(full_postmortem(), "md");
  EXPECT_NE(out.find("# Post-mortem report"), std::string::npos);
  EXPECT_NE(out.find("| phase | count | total | mean | max |"),
            std::string::npos);
  EXPECT_NE(out.find("|---|"), std::string::npos);
  // "markdown" is an accepted alias.
  EXPECT_EQ(out, obs::render_postmortem(full_postmortem(), "markdown"));
}

TEST(Report, JsonRenderingRoundTripsThroughTheStrictParser) {
  const obs::PostMortem pm = full_postmortem();
  const json::Value doc = json::parse(obs::render_postmortem(pm, "json"));
  const json::Value* ingested = doc.find("ingested");
  ASSERT_NE(ingested, nullptr);
  EXPECT_EQ(ingested->get_number("files", 0), 3.0);
  EXPECT_TRUE(ingested->find("spans")->as_bool());
  EXPECT_TRUE(ingested->find("flight")->as_bool());

  ASSERT_TRUE(doc.find("phases")->is_array());
  EXPECT_EQ(doc.find("phases")->items().size(), pm.phases.size());

  const json::Value* shards = doc.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_object());
  EXPECT_EQ(shards->get_number("max", 0), 200.0);
  EXPECT_EQ(shards->get_number("imbalance", 0), 2.5);

  const json::Value* flight = doc.find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->get_number("recorded", 0), 5.0);
  EXPECT_EQ(flight->find("kinds")->get_number("fault_fired", 0), 3.0);
}

TEST(Report, UnknownFormatThrows) {
  EXPECT_THROW((void)obs::render_postmortem(full_postmortem(), "xml"),
               Error);
}

TEST(Report, EmptyInputRendersWithoutSections) {
  obs::PostMortemBuilder builder;
  builder.ingest("empty.jsonl", "");
  const std::string out = obs::render_postmortem(builder.finish(), "text");
  EXPECT_NE(out.find("ingested 1 file(s): 0 line(s)"), std::string::npos);
  EXPECT_EQ(out.find("Phase breakdown"), std::string::npos);
}

}  // namespace
}  // namespace cipnet
