// The metric time-series sampler behind `--sample-ms`, `--progress` and
// the serve `history` op: ring bounds, since-cursor paging, JSONL export
// and its failure count, the per-sample callback, and the env-driven
// start used by the bench harness.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/json.h"

namespace cipnet {
namespace {

obs::TimeSeriesSampler& sampler() {
  return obs::TimeSeriesSampler::instance();
}

/// The sampler is a process-wide singleton: every test starts from a
/// stopped, empty ring and leaves it that way.
class TimeSeries : public ::testing::Test {
 protected:
  void SetUp() override {
    sampler().stop();
    sampler().clear();
  }
  void TearDown() override {
    sampler().stop();
    sampler().clear();
  }
};

TEST_F(TimeSeries, SampleOnceRecordsRegistryAndRss) {
  obs::ScopedEnable enable(/*reset=*/true);
  obs::Counter c("test.timeseries.ticks");
  c.add(7);
  sampler().sample_once();
  const auto samples = sampler().since(0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].seq, 1u);
  EXPECT_GT(samples[0].rss_bytes, 0u);
  bool found = false;
  for (const auto& [name, value] : samples[0].metrics.counters) {
    if (name == "test.timeseries.ticks") {
      found = true;
      EXPECT_EQ(value, 7u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TimeSeries, SinceCursorPagesWithoutOverlapOrGaps) {
  for (int i = 0; i < 5; ++i) sampler().sample_once();
  EXPECT_EQ(sampler().next_cursor(), 5u);

  auto page1 = sampler().since(0, 2);
  ASSERT_EQ(page1.size(), 2u);
  EXPECT_EQ(page1[0].seq, 1u);
  EXPECT_EQ(page1[1].seq, 2u);

  auto page2 = sampler().since(page1.back().seq, 2);
  ASSERT_EQ(page2.size(), 2u);
  EXPECT_EQ(page2[0].seq, 3u);
  EXPECT_EQ(page2[1].seq, 4u);

  auto page3 = sampler().since(page2.back().seq);
  ASSERT_EQ(page3.size(), 1u);
  EXPECT_EQ(page3[0].seq, 5u);

  EXPECT_TRUE(sampler().since(page3.back().seq).empty());
}

TEST_F(TimeSeries, RingWrapsOldestFirstAndCountsDrops) {
  obs::SamplerOptions options;
  options.interval_ms = 100000;  // background thread stays asleep
  options.capacity = 4;
  ASSERT_TRUE(sampler().start(options));
  for (int i = 0; i < 10; ++i) sampler().sample_once();
  const auto kept = sampler().since(0);
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().seq, 7u);  // 1..6 evicted oldest-first
  EXPECT_EQ(kept.back().seq, 10u);
  EXPECT_EQ(sampler().dropped(), 6u);
  // A cursor pointing into the evicted range just resumes at the ring head.
  EXPECT_EQ(sampler().since(3).front().seq, 7u);
}

TEST_F(TimeSeries, StartWhileRunningFailsAndStopJoins) {
  obs::SamplerOptions options;
  options.interval_ms = 100000;
  ASSERT_TRUE(sampler().start(options));
  EXPECT_TRUE(sampler().running());
  EXPECT_EQ(sampler().interval_ms(), 100000u);
  EXPECT_FALSE(sampler().start(options));
  sampler().stop();
  EXPECT_FALSE(sampler().running());
  // stop() takes one close-out sample so short runs are never empty.
  EXPECT_GE(sampler().next_cursor(), 1u);
  sampler().stop();  // idempotent
}

TEST_F(TimeSeries, ExportStreamsOneParseableLinePerSample) {
  const std::string path =
      testing::TempDir() + "/cipnet_timeseries_export.jsonl";
  obs::SamplerOptions options;
  options.interval_ms = 100000;
  options.jsonl_path = path;
  ASSERT_TRUE(sampler().start(options));
  for (int i = 0; i < 3; ++i) sampler().sample_once();
  sampler().stop();  // appends the close-out sample, closes the file

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::uint64_t last_seq = 0;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const json::Value doc = json::parse(line);
    EXPECT_EQ(doc.get_string("event"), "sample");
    const auto seq = static_cast<std::uint64_t>(doc.get_number("seq", 0));
    EXPECT_GT(seq, last_seq) << "seq not strictly ascending";
    last_seq = seq;
    EXPECT_NE(doc.find("rss_bytes"), nullptr);
    EXPECT_NE(doc.find("counters"), nullptr);
    EXPECT_NE(doc.find("gauges"), nullptr);
    EXPECT_NE(doc.find("histograms"), nullptr);
    ++lines;
  }
  EXPECT_EQ(lines, 4u);  // 3 manual + 1 close-out
  std::remove(path.c_str());
}

TEST_F(TimeSeries, ExportFailuresAreCountedPerLine) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  obs::ScopedEnable enable(/*reset=*/true);
  obs::SamplerOptions options;
  options.interval_ms = 100000;
  options.jsonl_path = "/dev/full";  // opens fine, every write fails
  ASSERT_TRUE(sampler().start(options));
  for (int i = 0; i < 3; ++i) sampler().sample_once();
  sampler().stop();  // the close-out line fails too
  EXPECT_EQ(obs::Registry::instance().snapshot().counter(
                "obs.sampler.export_errors"),
            4u);
  // A full disk costs the export, not the samples.
  EXPECT_EQ(sampler().since(0).size(), 4u);
}

TEST_F(TimeSeries, OnSampleSeesEverySampleWithTheCloseOutLast) {
  std::vector<std::uint64_t> seqs;
  obs::SamplerOptions options;
  options.interval_ms = 100000;
  options.on_sample = [&seqs](const obs::TimeSample& sample) {
    seqs.push_back(sample.seq);
  };
  ASSERT_TRUE(sampler().start(options));
  for (int i = 0; i < 2; ++i) sampler().sample_once();
  sampler().stop();
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs.back(), sampler().next_cursor());
  // stop() detaches the callback.
  sampler().sample_once();
  EXPECT_EQ(seqs.size(), 3u);
}

TEST_F(TimeSeries, BadExportPathFailsStartWithoutSideEffects) {
  obs::SamplerOptions options;
  options.jsonl_path = "/nonexistent-dir/cipnet-samples.jsonl";
  EXPECT_FALSE(sampler().start(options));
  EXPECT_FALSE(sampler().running());
}

TEST_F(TimeSeries, EnvStartHonorsSampleMsAndRejectsGarbage) {
  ::unsetenv("CIPNET_SAMPLES_OUT");
  ::unsetenv("CIPNET_SAMPLE_MS");
  EXPECT_FALSE(obs::start_sampler_from_env());

  ::setenv("CIPNET_SAMPLE_MS", "0", 1);
  EXPECT_FALSE(obs::start_sampler_from_env());

  ::setenv("CIPNET_SAMPLE_MS", "50", 1);
  EXPECT_TRUE(obs::start_sampler_from_env());
  EXPECT_TRUE(sampler().running());
  EXPECT_EQ(sampler().interval_ms(), 50u);
  sampler().stop();
  ::unsetenv("CIPNET_SAMPLE_MS");
}

TEST_F(TimeSeries, BackgroundThreadActuallySamples) {
  obs::SamplerOptions options;
  options.interval_ms = 1;
  ASSERT_TRUE(sampler().start(options));
  // Wait for the loop to prove it is alive; generous bound for sanitizers.
  for (int spins = 0; spins < 2000 && sampler().next_cursor() < 3; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampler().stop();
  EXPECT_GE(sampler().next_cursor(), 3u);
}

}  // namespace
}  // namespace cipnet
