#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <thread>

#include "obs/histogram.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/sink_jsonl.h"
#include "obs/trace.h"
#include "reach/reachability.h"
#include "util/error.h"
#include "util/json.h"

namespace cipnet {
namespace {

PetriNet two_independent_cycles() {
  PetriNet net;
  PlaceId p0 = net.add_place("p0", 1);
  PlaceId p1 = net.add_place("p1", 0);
  net.add_transition({p0}, "a", {p1});
  net.add_transition({p1}, "b", {p0});
  PlaceId q0 = net.add_place("q0", 1);
  PlaceId q1 = net.add_place("q1", 0);
  net.add_transition({q0}, "c", {q1});
  net.add_transition({q1}, "d", {q0});
  return net;
}

/// Records every completed root span for inspection.
class RecordingSink : public obs::Sink {
 public:
  void on_span(const obs::SpanRecord& root) override {
    roots.push_back(root);
  }
  std::vector<obs::SpanRecord> roots;
};

TEST(Metrics, CounterAddsWhenEnabled) {
  obs::ScopedEnable enable;
  obs::Counter c("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(obs::Registry::instance().snapshot().counter("test.counter"),
            42u);
}

TEST(Metrics, CounterIgnoredWhenDisabled) {
  {
    obs::ScopedEnable enable;  // reset, then enable...
  }                            // ...and restore (disabled again)
  obs::Counter c("test.counter");
  c.add(7);
  EXPECT_EQ(obs::Registry::instance().snapshot().counter("test.counter"), 0u);
}

TEST(Metrics, GaugeTracksPeak) {
  obs::ScopedEnable enable;
  obs::Gauge g("test.gauge");
  g.set_max(5);
  g.set_max(3);  // lower: ignored
  g.set_max(9);
  EXPECT_EQ(obs::Registry::instance().snapshot().gauge("test.gauge"), 9u);
  g.set(2);  // plain set overwrites
  EXPECT_EQ(obs::Registry::instance().snapshot().gauge("test.gauge"), 2u);
}

TEST(Metrics, ResetZeroesButKeepsRegistration) {
  obs::ScopedEnable enable;
  obs::Counter c("test.counter");
  c.add(3);
  obs::Registry::instance().reset();
  auto snapshot = obs::Registry::instance().snapshot();
  EXPECT_EQ(snapshot.counter("test.counter"), 0u);
  bool found = false;
  for (const auto& [name, value] : snapshot.counters) {
    found = found || name == "test.counter";
  }
  EXPECT_TRUE(found);
}

TEST(Metrics, ScopedEnableRestoresPreviousState) {
  EXPECT_FALSE(obs::enabled());
  {
    obs::ScopedEnable outer;
    EXPECT_TRUE(obs::enabled());
    {
      obs::ScopedEnable inner(/*reset=*/false);
      EXPECT_TRUE(obs::enabled());
    }
    EXPECT_TRUE(obs::enabled());
  }
  EXPECT_FALSE(obs::enabled());
}

TEST(Metrics, ConcurrentIncrementsDontLose) {
  obs::ScopedEnable enable;
  obs::Counter c("test.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kPerThread; ++j) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(obs::Registry::instance().snapshot().counter("test.concurrent"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ExploreFillsReachCounters) {
  obs::ScopedEnable enable;
  auto rg = explore(two_independent_cycles());
  auto snapshot = obs::Registry::instance().snapshot();
  EXPECT_EQ(snapshot.counter("reach.states"), rg.state_count());
  EXPECT_EQ(snapshot.counter("reach.edges"), rg.edge_count());
  EXPECT_GE(snapshot.gauge("reach.frontier_peak"), 1u);
}

TEST(Metrics, DisabledExploreLeavesSnapshotUnchanged) {
  obs::Registry::instance().reset();
  ASSERT_FALSE(obs::enabled());
  auto before = obs::Registry::instance().snapshot();
  (void)explore(two_independent_cycles());
  auto after = obs::Registry::instance().snapshot();
  EXPECT_EQ(before.counters, after.counters);
  EXPECT_EQ(before.gauges, after.gauges);
}

TEST(Trace, SpansNestIntoATree) {
  obs::ScopedEnable enable;
  auto sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().add_sink(sink);
  {
    obs::Span root("outer");
    { obs::Span a("first"); }
    {
      obs::Span b("second");
      { obs::Span c("second.child"); }
    }
  }
  obs::Tracer::instance().remove_sink(sink);

  ASSERT_EQ(sink->roots.size(), 1u);
  const obs::SpanRecord& root = sink->roots[0];
  EXPECT_EQ(root.name, "outer");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "first");
  EXPECT_EQ(root.children[1].name, "second");
  ASSERT_EQ(root.children[1].children.size(), 1u);
  EXPECT_EQ(root.children[1].children[0].name, "second.child");
  // Ordering and containment of the clocks.
  EXPECT_LE(root.start_ns, root.children[0].start_ns);
  EXPECT_LE(root.children[0].start_ns, root.children[1].start_ns);
  EXPECT_LE(root.children[1].duration_ns, root.duration_ns);
}

TEST(Trace, SpanCapturesCounterDeltas) {
  obs::ScopedEnable enable;
  obs::Counter c("test.delta");
  c.add(100);  // before the span: must not show up as a delta
  auto sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().add_sink(sink);
  {
    obs::Span span("delta.test");
    c.add(5);
  }
  obs::Tracer::instance().remove_sink(sink);

  ASSERT_EQ(sink->roots.size(), 1u);
  std::uint64_t delta = 0;
  for (const auto& [name, value] : sink->roots[0].counter_deltas) {
    if (name == "test.delta") delta = value;
  }
  EXPECT_EQ(delta, 5u);
}

TEST(Trace, DisabledSpanEmitsNothing) {
  auto sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().add_sink(sink);
  ASSERT_FALSE(obs::enabled());
  { obs::Span span("invisible"); }
  obs::Tracer::instance().remove_sink(sink);
  EXPECT_TRUE(sink->roots.empty());
}

/// Minimal structural JSON check: balanced braces/brackets outside strings,
/// no trailing garbage. Good enough to catch malformed sink output.
bool looks_like_json_object(const std::string& line) {
  if (line.empty() || line.front() != '{') return false;
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char ch : line) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (ch == '\\') escaped = true;
      if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    if (depth == 0 && ch != line.back()) return false;
  }
  return depth == 0 && !in_string && line.back() == '}';
}

TEST(Sinks, JsonlIsParseableLineByLine) {
  obs::ScopedEnable enable;
  std::ostringstream out;
  auto sink = std::make_shared<obs::JsonlSink>(out);
  obs::Tracer::instance().add_sink(sink);
  {
    obs::Span root("jsonl.root");
    obs::Counter("test.jsonl").add(3);
    { obs::Span child("jsonl.child"); }
  }
  obs::Tracer::instance().remove_sink(sink);
  sink->write_counters(obs::Registry::instance().snapshot());

  std::istringstream lines(out.str());
  std::string line;
  std::size_t spans = 0, counters = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(looks_like_json_object(line)) << "bad line: " << line;
    if (line.find("\"event\":\"span\"") != std::string::npos) ++spans;
    if (line.find("\"event\":\"counters\"") != std::string::npos) ++counters;
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(counters, 1u);
  // Parent path prefixes the child's.
  EXPECT_NE(out.str().find("\"path\":\"jsonl.root\""), std::string::npos);
  EXPECT_NE(out.str().find("\"path\":\"jsonl.root/jsonl.child\""),
            std::string::npos);
}

TEST(Sinks, JsonlSpansCarryTheirThreadsTid) {
  obs::ScopedEnable enable;
  std::ostringstream out;
  auto sink = std::make_shared<obs::JsonlSink>(out);
  obs::Tracer::instance().add_sink(sink);
  {
    obs::Span root("tid.root");
    { obs::Span child("tid.child"); }
  }
  std::thread([] { obs::Span other("tid.other"); }).join();
  obs::Tracer::instance().remove_sink(sink);

  std::map<std::string, double> tids;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const json::Value doc = json::parse(line);
    ASSERT_NE(doc.find("tid"), nullptr) << line;
    tids[doc.get_string("name")] = doc.get_number("tid");
  }
  ASSERT_EQ(tids.size(), 3u);
  EXPECT_GT(tids["tid.root"], 0.0);
  EXPECT_EQ(tids["tid.child"], tids["tid.root"]);
  EXPECT_GT(tids["tid.other"], 0.0);
  EXPECT_NE(tids["tid.other"], tids["tid.root"]);
}

TEST(Histogram, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(obs::histogram_bucket_index(v), v);
    EXPECT_EQ(obs::histogram_bucket_value(v), v);
  }
}

TEST(Histogram, BucketsAreMonotoneWithBoundedError) {
  std::size_t prev_index = 0;
  for (std::uint64_t v :
       {std::uint64_t{16}, std::uint64_t{17}, std::uint64_t{31},
        std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{100},
        std::uint64_t{1000}, std::uint64_t{65535}, std::uint64_t{1} << 20,
        std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    const std::size_t index = obs::histogram_bucket_index(v);
    EXPECT_LT(index, obs::kHistogramBuckets);
    EXPECT_GE(index, prev_index);
    prev_index = index;
    // The midpoint representative stays within one sub-bucket of the value.
    const std::uint64_t rep = obs::histogram_bucket_value(index);
    const std::uint64_t error = rep > v ? rep - v : v - rep;
    EXPECT_LE(error, v / 16 + 1) << "value " << v << " rep " << rep;
  }
}

TEST(Histogram, PercentilesMatchSortedVectorOracle) {
  obs::ScopedEnable enable;
  obs::Histogram h("test.hist.oracle");
  std::vector<std::uint64_t> values;
  std::uint64_t state = 12345;  // deterministic LCG
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t v = (state >> 33) % 100000;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const auto snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* hist = snapshot.histogram("test.hist.oracle");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 5000u);
  for (double p : {50.0, 90.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const std::uint64_t oracle = values[rank - 1];
    const std::uint64_t got = hist->percentile(p);
    const std::uint64_t error = got > oracle ? got - oracle : oracle - got;
    // Bucket quantization bounds the error to ~1/16 relative.
    EXPECT_LE(error, oracle / 8 + 2) << "p" << p << ": " << got << " vs "
                                     << oracle;
  }
  EXPECT_EQ(hist->percentile(100.0), values.back());
  EXPECT_EQ(hist->max, values.back());
  EXPECT_EQ(hist->percentile(0.0), hist->percentile(1e-9));
}

TEST(Histogram, PercentilesNeverExceedTheMax) {
  // 4423 lands in the bucket [4352, 4608), whose midpoint is 4480.
  obs::ScopedEnable enable;
  obs::Histogram h("test.hist.clamp");
  h.record(4423);
  const auto snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* hist = snapshot.histogram("test.hist.clamp");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->max, 4423u);
  for (double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_LE(hist->percentile(p), hist->max) << "p" << p;
  }
}

TEST(Histogram, ConcurrentRecordingKeepsTotals) {
  obs::ScopedEnable enable;
  obs::Histogram h("test.hist.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      for (int j = 0; j < kPerThread; ++j) {
        h.record(static_cast<std::uint64_t>(j % 1000) + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* hist =
      snapshot.histogram("test.hist.concurrent");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Per thread: 10 full passes over 1..1000, summing to 10 * 500500.
  EXPECT_EQ(hist->sum, static_cast<std::uint64_t>(kThreads) * 10 * 500500);
  EXPECT_EQ(hist->max, 1000u);
}

TEST(Histogram, TextReportListsPercentiles) {
  obs::ScopedEnable enable;
  obs::Histogram h("test.hist.report");
  for (std::uint64_t i = 1; i <= 100; ++i) h.record(i);
  const std::string report =
      obs::render_text_report(obs::Registry::instance().snapshot());
  EXPECT_NE(report.find("test.hist.report"), std::string::npos);
  EXPECT_NE(report.find("p50="), std::string::npos);
  EXPECT_NE(report.find("p99="), std::string::npos);
}

TEST(Histogram, SpanDurationsFeedHistograms) {
  obs::ScopedEnable enable;
  { obs::Span span("hist.span"); }
  { obs::Span span("hist.span"); }
  const auto snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* hist = snapshot.histogram("span.hist.span");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);
}

TEST(Histogram, ExploreRecordsDistributions) {
  obs::ScopedEnable enable;
  (void)explore(two_independent_cycles());
  const auto snapshot = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* frontier =
      snapshot.histogram("reach.frontier_size");
  ASSERT_NE(frontier, nullptr);
  EXPECT_EQ(frontier->count, 4u);  // one sample per popped state
  const obs::HistogramSnapshot* enabled =
      snapshot.histogram("reach.enabled_per_state");
  ASSERT_NE(enabled, nullptr);
  EXPECT_EQ(enabled->count, 4u);
  EXPECT_EQ(enabled->max, 2u);  // two independent cycles
  EXPECT_GT(snapshot.gauge("reach.graph_bytes"), 0u);
  EXPECT_GT(snapshot.gauge("reach.index_bytes"), 0u);
}

TEST(Sinks, JsonlCountersIncludeHistograms) {
  obs::ScopedEnable enable;
  obs::Histogram h("test.hist.jsonl");
  for (std::uint64_t i = 1; i <= 10; ++i) h.record(i);
  std::ostringstream out;
  obs::JsonlSink sink(out);
  sink.write_counters(obs::Registry::instance().snapshot());
  const json::Value doc = json::parse(out.str());
  const json::Value* histograms = doc.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* hist = histograms->find("test.hist.jsonl");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get_number("count"), 10.0);
  EXPECT_EQ(hist->get_number("max"), 10.0);
}

TEST(Memory, RssReadingsArePlausible) {
  // Current before peak: the peak read later bounds any earlier RSS sample
  // (the other order races against allocation between the two reads).
  const std::uint64_t current = obs::current_rss_bytes();
  const std::uint64_t peak = obs::peak_rss_bytes();
#if defined(__linux__) || defined(__APPLE__)
  ASSERT_GT(peak, 0u);
  ASSERT_GT(current, 0u);
  // A test binary occupies at least a megabyte and peak bounds current.
  EXPECT_GT(peak, 1u << 20);
  EXPECT_GE(peak, current);
#else
  (void)peak;
  (void)current;
#endif
}

TEST(LimitErrors, ExploreAttachesContext) {
  ReachOptions options;
  options.max_states = 2;
  try {
    (void)explore(two_independent_cycles(), options);
    FAIL() << "expected LimitError";
  } catch (const LimitError& e) {
    ASSERT_TRUE(e.context().has_value());
    EXPECT_EQ(e.context()->reached, 2u);
    EXPECT_EQ(e.context()->limit, 2u);
    EXPECT_NE(std::string(e.what()).find("limit=2"), std::string::npos);
  }
}

TEST(LimitErrors, ExploreStillFlushesSpanAndGraphBytes) {
  obs::ScopedEnable enable;
  auto sink = std::make_shared<RecordingSink>();
  obs::Tracer::instance().add_sink(sink);
  ReachOptions options;
  options.max_states = 2;
  EXPECT_THROW((void)explore(two_independent_cycles(), options), LimitError);
  obs::Tracer::instance().remove_sink(sink);
  // The reach.explore span completed during unwind (engine auto-selection
  // emits a petri.safety_check root span first, so search, don't index)...
  EXPECT_TRUE(std::any_of(
      sink->roots.begin(), sink->roots.end(),
      [](const auto& span) { return span.name == "reach.explore"; }));
  // ...and the byte-estimate gauges were stamped before the throw.
  EXPECT_GT(
      obs::Registry::instance().snapshot().gauge("reach.graph_bytes"), 0u);
}

}  // namespace
}  // namespace cipnet
