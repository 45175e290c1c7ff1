#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>

#include "io/net_format.h"
#include "obs/metrics.h"
#include "reach/coverability.h"
#include "reach/reachability.h"
#include "svc/scheduler.h"
#include "svc/service.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/json_writer.h"

namespace cipnet {
namespace {

using namespace std::chrono_literals;

PetriNet toggle_net(std::size_t k) {
  PetriNet net;
  for (std::size_t i = 0; i < k; ++i) {
    PlaceId a = net.add_place("a" + std::to_string(i), 1);
    PlaceId b = net.add_place("b" + std::to_string(i), 0);
    net.add_transition({a}, "t" + std::to_string(i), {b});
    net.add_transition({b}, "u" + std::to_string(i), {a});
  }
  return net;
}

std::string reach_request(int id, const std::string& net_text,
                          std::uint64_t deadline_ms = 0) {
  json::Writer w;
  w.begin_object();
  w.member("id", id);
  w.member("op", "reach");
  w.member("net", net_text);
  if (deadline_ms != 0) w.member("deadline_ms", deadline_ms);
  w.end_object();
  return w.take();
}

/// Block until `done` has delivered, collecting the response.
std::string submit_and_wait(svc::AnalysisService& service,
                            const std::string& line) {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::string response;
  service.submit_line(line, [&](const std::string& r) {
    std::lock_guard<std::mutex> lock(mu);
    response = r;
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ready; });
  return response;
}

class Resilience : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

// ---------------------------------------------------------------------------
// Graceful degradation: truncation instead of LimitError

TEST_F(Resilience, SequentialExploreTruncatesAtStateBudget) {
  ReachOptions options;
  options.max_states = 10;
  options.truncate_on_limit = true;
  const ReachabilityGraph rg = explore(toggle_net(8), options);  // 256 states
  EXPECT_TRUE(rg.truncated());
  EXPECT_GE(rg.state_count(), 1u);
  EXPECT_LE(rg.state_count(), 10u);
  // Internal consistency: every edge targets a stored state.
  for (StateId s : rg.all_states()) {
    for (const auto& e : rg.successors(s)) {
      EXPECT_LT(e.to.index(), rg.state_count());
    }
  }
}

TEST_F(Resilience, SequentialExploreTruncatesAtMemoryBudget) {
  ReachOptions options;
  options.max_graph_bytes = 1;  // trivially exceeded
  options.truncate_on_limit = true;
  const ReachabilityGraph rg = explore(toggle_net(8), options);
  EXPECT_TRUE(rg.truncated());
  EXPECT_GE(rg.state_count(), 1u);

  ReachOptions strict;
  strict.max_graph_bytes = 1;
  EXPECT_THROW(static_cast<void>(explore(toggle_net(8), strict)), LimitError);
}

TEST_F(Resilience, ParallelExploreTruncatesWithoutThrowing) {
  ReachOptions options;
  options.threads = 4;
  options.max_states = 10;
  options.truncate_on_limit = true;
  const ReachabilityGraph rg = explore(toggle_net(8), options);
  EXPECT_TRUE(rg.truncated());
  EXPECT_GE(rg.state_count(), 1u);
  for (StateId s : rg.all_states()) {
    for (const auto& e : rg.successors(s)) {
      EXPECT_LT(e.to.index(), rg.state_count());
    }
  }
}

TEST_F(Resilience, UntruncatedRunsAreNotMarked) {
  ReachOptions options;
  options.truncate_on_limit = true;  // mode on, limit never trips
  const ReachabilityGraph rg = explore(toggle_net(4), options);
  EXPECT_FALSE(rg.truncated());
  EXPECT_EQ(rg.state_count(), 16u);
}

TEST_F(Resilience, CoverabilityTruncatesAtNodeBudget) {
  CoverabilityOptions options;
  options.max_nodes = 10;
  options.truncate_on_limit = true;
  const CoverabilityResult result = coverability(toggle_net(8), options);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.tree_nodes, 10u);

  CoverabilityOptions strict;
  strict.max_nodes = 10;
  EXPECT_THROW(static_cast<void>(coverability(toggle_net(8), strict)),
               LimitError);
}

TEST_F(Resilience, ServiceReturnsPartialStatsWithTruncatedFlag) {
  svc::ServiceOptions options;
  options.max_states = 10;
  svc::AnalysisService service(options);
  const std::string net = write_net(toggle_net(8), "t");

  const json::Value reach = json::parse(
      service.handle_line(reach_request(1, net)));
  ASSERT_TRUE(reach.find("ok")->as_bool());
  EXPECT_TRUE(reach.find("result")->find("truncated")->as_bool());

  json::Writer w;
  w.begin_object();
  w.member("id", 2);
  w.member("op", "cover");
  w.member("net", net);
  w.end_object();
  const json::Value cover = json::parse(service.handle_line(w.take()));
  ASSERT_TRUE(cover.find("ok")->as_bool());
  EXPECT_TRUE(cover.find("result")->find("truncated")->as_bool());

  // Truncated answers are never memoized.
  EXPECT_EQ(service.cache().entries(), 0u);
}

// ---------------------------------------------------------------------------
// Watchdog

TEST_F(Resilience, WatchdogTripsAStalledJobCooperatively) {
  obs::ScopedEnable metrics;
  svc::SchedulerOptions options;
  options.workers = 1;
  options.stall_timeout_ms = 50;
  options.watchdog_interval_ms = 25;
  svc::JobScheduler scheduler(options);

  CancelToken token = CancelToken::manual();
  std::atomic<bool> tripped{false};
  const auto status = scheduler.submit(
      [&] {
        // A stalled job: spins until the watchdog cancels its token.
        const auto hard_stop = std::chrono::steady_clock::now() + 10s;
        while (!token.expired() &&
               std::chrono::steady_clock::now() < hard_stop) {
          std::this_thread::sleep_for(1ms);
        }
        tripped = token.expired();
      },
      svc::Priority::kNormal, token);
  ASSERT_TRUE(status.accepted);
  scheduler.drain();
  EXPECT_TRUE(tripped.load());
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.counter("svc.watchdog.stalls"), 1u);
}

TEST_F(Resilience, ServiceWatchdogFailsStalledRequestInsteadOfHanging) {
  svc::ServiceOptions options;
  options.max_states = 100'000'000;     // the state budget will not save us
  options.scheduler.workers = 1;
  options.scheduler.stall_timeout_ms = 50;
  options.scheduler.watchdog_interval_ms = 25;
  svc::AnalysisService service(options);

  // No deadline on the request: only the watchdog can end it.
  const std::string response = submit_and_wait(
      service, reach_request(1, write_net(toggle_net(24), "big")));
  const json::Value doc = json::parse(response);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->get_string("code"), "cancelled");

  // The worker survived and keeps answering.
  const json::Value pong =
      json::parse(submit_and_wait(service, "{\"id\":2,\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.find("ok")->as_bool());
}

// ---------------------------------------------------------------------------
// Load shedding

TEST_F(Resilience, RssHighWatermarkShedsBeforeQueuing) {
  obs::ScopedEnable metrics;
  svc::ServiceOptions options;
  options.max_rss_bytes = 1;  // any real process is over this
  svc::AnalysisService service(options);
  const std::string response =
      submit_and_wait(service, "{\"id\":1,\"op\":\"ping\"}");
  const json::Value doc = json::parse(response);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  const json::Value* error = doc.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->get_string("code"), "overloaded");
  EXPECT_NE(std::string(response).find("shedding"), std::string::npos);
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.counter("svc.shed.rss"), 1u);
}

// ---------------------------------------------------------------------------
// Cache quarantine

TEST_F(Resilience, FaultedJobLeavesNothingCached) {
  fault::configure("svc.cache.insert=n1");
  svc::AnalysisService service;
  const std::string request = reach_request(1, write_net(toggle_net(4), "t"));

  const json::Value failed = json::parse(service.handle_line(request));
  EXPECT_FALSE(failed.find("ok")->as_bool());
  EXPECT_EQ(failed.find("error")->get_string("code"), "fault");
  EXPECT_EQ(service.cache().entries(), 0u);

  // With the fault gone the same request computes, caches, and serves.
  fault::clear();
  EXPECT_TRUE(json::parse(service.handle_line(request))
                  .find("ok")->as_bool());
  EXPECT_EQ(service.cache().entries(), 1u);
  EXPECT_TRUE(json::parse(service.handle_line(request))
                  .find("cached")->as_bool());
}

TEST_F(Resilience, CancelledJobLeavesNothingCached) {
  svc::ServiceOptions options;
  options.max_states = 100'000'000;
  svc::AnalysisService service(options);
  const json::Value doc = json::parse(service.handle_line(
      reach_request(1, write_net(toggle_net(24), "big"), 20)));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->get_string("code"), "cancelled");
  EXPECT_EQ(service.cache().entries(), 0u);
}

TEST_F(Resilience, FailedUncachedRunKeepsTheCachedAnswer) {
  // A failed run never inserts, so it has nothing to take back: a
  // cancelled `no_cache` rerun of a cached key (a checkpointed `reach`,
  // say) must leave the earlier good answer in place.
  svc::AnalysisService service;
  const std::string net_text = write_net(toggle_net(4), "t");
  const std::string request = reach_request(1, net_text);
  ASSERT_TRUE(json::parse(service.handle_line(request)).find("ok")->as_bool());
  ASSERT_EQ(service.cache().entries(), 1u);

  fault::configure("reach.cancel=n1");
  const json::Value cancelled = json::parse(service.handle_line(
      "{\"id\":2,\"op\":\"reach\",\"no_cache\":true,\"net\":\"" +
      json::escape(net_text) + "\"}"));
  fault::clear();
  ASSERT_FALSE(cancelled.find("ok")->as_bool());
  EXPECT_EQ(cancelled.find("error")->get_string("code"), "cancelled");

  const json::Value again = json::parse(service.handle_line(request));
  ASSERT_TRUE(again.find("ok")->as_bool());
  EXPECT_TRUE(again.find("cached")->as_bool());
}

// ---------------------------------------------------------------------------
// Injected faults through the service surface

TEST_F(Resilience, ParseFaultYieldsStructuredError) {
  fault::configure("svc.parse=n1");
  svc::AnalysisService service;
  const json::Value doc =
      json::parse(service.handle_line("{\"id\":1,\"op\":\"ping\"}"));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_NE(std::string(service.handle_line("{\"id\":2,\"op\":\"ping\"}"))
                .find("\"ok\":true"),
            std::string::npos)
      << "n1 fires once; the service must recover";
}

TEST_F(Resilience, WorkerFaultStillProducesAResponse) {
  obs::ScopedEnable metrics;
  fault::configure("svc.scheduler.worker=n1");
  svc::AnalysisService service;
  const std::string response =
      submit_and_wait(service, "{\"id\":1,\"op\":\"ping\"}");
  const json::Value doc = json::parse(response);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->get_string("code"), "internal");
  EXPECT_NE(response.find("dropped"), std::string::npos);
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.counter("svc.responses.dropped"), 1u);
}

TEST_F(Resilience, StoreGrowFaultSurfacesAsInternalError) {
  fault::configure("reach.store.grow=n1");
  svc::AnalysisService service;
  const json::Value doc = json::parse(
      service.handle_line(reach_request(1, write_net(toggle_net(4), "t"))));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->get_string("code"), "internal");
  EXPECT_EQ(service.cache().entries(), 0u);
}

// ---------------------------------------------------------------------------
// Oversized / malformed NDJSON frames

TEST_F(Resilience, ServeBoundsFrameSizeAndKeepsGoing) {
  svc::ServiceOptions options;
  options.max_line_bytes = 128;
  std::istringstream in("{\"id\":1,\"op\":\"ping\"}\n" +
                        std::string(4096, 'x') + "\n" +
                        "{\"id\":3,\"op\":\"ping\"}\n");
  std::ostringstream out;
  const std::size_t accepted = serve(in, out, options);
  EXPECT_EQ(accepted, 3u);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t ok = 0, bad = 0;
  while (std::getline(lines, line)) {
    const json::Value doc = json::parse(line);  // every line is valid JSON
    if (doc.find("ok")->as_bool()) {
      ++ok;
    } else {
      ++bad;
      EXPECT_EQ(doc.find("error")->get_string("code"), "bad_request");
      EXPECT_NE(line.find("exceeds"), std::string::npos);
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(bad, 1u);
}

TEST_F(Resilience, OversizedSubmitLineRejectedUpFront) {
  svc::ServiceOptions options;
  options.max_line_bytes = 64;
  svc::AnalysisService service(options);
  const std::string response =
      submit_and_wait(service, std::string(1024, 'y'));
  const json::Value doc = json::parse(response);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->get_string("code"), "bad_request");
}

}  // namespace
}  // namespace cipnet
