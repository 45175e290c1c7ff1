#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algebra/hide.h"
#include "helpers.h"
#include "io/astg.h"
#include "io/net_format.h"
#include "obs/metrics.h"
#include "petri/canonical.h"
#include "reach/coverability.h"
#include "reach/reachability.h"
#include "stg/state_graph.h"
#include "svc/result_cache.h"
#include "svc/scheduler.h"
#include "svc/service.h"
#include "synth/synthesize.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/json.h"
#include "util/json_writer.h"

namespace cipnet {
namespace {

using namespace std::chrono_literals;
using svc::JobScheduler;
using svc::SchedulerOptions;
using svc::SubmitStatus;

/// k independent toggles: 2^k reachable markings, cheap to build, never
/// finishes under a tight deadline.
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

const char* kHandshakeStg =
    ".model hs\n"
    ".inputs req\n"
    ".outputs ack\n"
    ".graph\n"
    "req+ ack+\n"
    "ack+ req-\n"
    "req- ack-\n"
    "ack- req+\n"
    ".marking { <ack-,req+> }\n"
    ".end\n";

// ---------------------------------------------------------------------------
// CancelToken

TEST(CancelToken, DefaultTokenIsInert) {
  CancelToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.expired());
  EXPECT_NO_THROW(token.check("op"));
  EXPECT_EQ(token.elapsed_ms(), 0u);
  token.request_cancel();  // no-op, must not crash
  EXPECT_FALSE(token.expired());
}

TEST(CancelToken, ManualTokenTripsEveryCopy) {
  CancelToken token = CancelToken::manual();
  CancelToken copy = token;
  EXPECT_TRUE(token.cancellable());
  EXPECT_FALSE(copy.expired());
  token.request_cancel();
  EXPECT_TRUE(copy.expired());
  try {
    copy.check("algebra.hide");
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_EQ(e.operation(), "algebra.hide");
    EXPECT_FALSE(e.deadline_exceeded());
  }
}

TEST(CancelToken, ZeroDeadlineExpiresImmediately) {
  CancelToken token = CancelToken::with_deadline(0ms);
  EXPECT_TRUE(token.expired());
  try {
    token.check("reach.explore");
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_TRUE(e.deadline_exceeded());
    EXPECT_NE(std::string(e.what()).find("deadline exceeded"),
              std::string::npos);
  }
}

TEST(CancelToken, GenerousDeadlineDoesNotTrip) {
  CancelToken token = CancelToken::with_deadline(10min);
  EXPECT_TRUE(token.cancellable());
  EXPECT_FALSE(token.expired());
  EXPECT_NO_THROW(token.check("op"));
}

TEST(CancelToken, DeadlineRacesManualCancelAcrossWorkers) {
  // A token whose deadline expires while another thread is calling
  // request_cancel() and scheduler workers are polling check(): whichever
  // path wins, every poller must observe a single coherent trip (tsan
  // coverage — this test is in the tsan-obs preset filter).
  SchedulerOptions options;
  options.workers = 4;
  JobScheduler scheduler(options);
  for (int round = 0; round < 8; ++round) {
    CancelToken token = CancelToken::with_deadline(2ms);
    std::atomic<int> tripped{0};
    for (int j = 0; j < 8; ++j) {
      ASSERT_TRUE(scheduler
                      .submit([token, &tripped]() mutable {
                        const auto stop =
                            std::chrono::steady_clock::now() + 5s;
                        while (std::chrono::steady_clock::now() < stop) {
                          try {
                            token.check("race");
                          } catch (const Cancelled&) {
                            tripped.fetch_add(1);
                            return;
                          }
                        }
                      })
                      .accepted);
    }
    std::this_thread::sleep_for(1ms);
    token.request_cancel();  // races the deadline from the submitting thread
    scheduler.drain();
    EXPECT_EQ(tripped.load(), 8);
  }
}

TEST(CancelToken, WatchdogCancelRacesJobCompletion) {
  // Jobs that finish right as the watchdog scans: the cancel request may
  // land on a slot whose job just ended. Nothing must crash or deadlock,
  // and quick jobs must not be misflagged as stalled failures.
  SchedulerOptions options;
  options.workers = 2;
  options.stall_timeout_ms = 1;    // everything looks stalled immediately
  options.watchdog_interval_ms = 1;
  JobScheduler scheduler(options);
  std::atomic<int> completed{0};
  for (int i = 0; i < 64; ++i) {
    CancelToken token = CancelToken::manual();
    scheduler.submit(
        [&completed] {
          std::this_thread::sleep_for(100us);
          completed.fetch_add(1);
        },
        svc::Priority::kNormal, token);
  }
  scheduler.drain();
  EXPECT_GT(completed.load(), 0);
}

// ---------------------------------------------------------------------------
// Cancellation threaded through the analyses

TEST(Cancellation, ExploreHonorsDeadlineWithinBoundedTime) {
  PetriNet net = toggle_net(24);  // 2^24 markings: cannot finish in 30ms
  ReachOptions options;
  options.max_states = 2'000'000;  // backstop so a broken token still ends
  options.cancel = CancelToken::with_deadline(30ms);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(static_cast<void>(explore(net, options)), Cancelled);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Token polled every expanded state; generous bound for sanitizer builds.
  EXPECT_LT(elapsed, 5s);
}

TEST(Cancellation, TrippedTokenStopsEveryAnalysis) {
  CancelToken tripped = CancelToken::manual();
  tripped.request_cancel();

  PetriNet net = toggle_net(3);
  ReachOptions reach;
  reach.cancel = tripped;
  EXPECT_THROW(static_cast<void>(explore(net, reach)), Cancelled);

  CoverabilityOptions cover;
  cover.cancel = tripped;
  EXPECT_THROW(static_cast<void>(coverability(net, cover)), Cancelled);

  HideOptions hide;
  hide.cancel = tripped;
  EXPECT_THROW(static_cast<void>(hide_actions(net, {"t0"}, hide)), Cancelled);

  Stg stg = read_astg(kHandshakeStg);
  const auto initial = infer_initial_encoding(stg, StateGraphOptions{});
  ASSERT_TRUE(initial.has_value());
  StateGraphOptions sgopts;
  sgopts.cancel = tripped;
  EXPECT_THROW(static_cast<void>(build_state_graph(stg, *initial, sgopts)),
               Cancelled);

  StateGraph sg = build_state_graph(stg, *initial, StateGraphOptions{});
  SynthesizeOptions synth;
  synth.cancel = tripped;
  EXPECT_THROW(static_cast<void>(synthesize(sg, {"ack"}, synth)), Cancelled);
}

// ---------------------------------------------------------------------------
// Canonical hash

TEST(CanonicalHash, StableAcrossIdenticalBuilds) {
  EXPECT_EQ(canonical_hash(toggle_net(4)), canonical_hash(toggle_net(4)));
  EXPECT_EQ(canonical_hash(read_net(write_net(toggle_net(4), "x"))),
            canonical_hash(toggle_net(4)));
}

TEST(CanonicalHash, SensitiveToStructure) {
  const std::uint64_t base = canonical_hash(toggle_net(4));
  EXPECT_NE(base, canonical_hash(toggle_net(5)));

  PetriNet relabeled = toggle_net(4);
  PetriNet renamed;
  for (std::size_t i = 0; i < 4; ++i) {
    PlaceId a = renamed.add_place("a" + std::to_string(i), 1);
    PlaceId b = renamed.add_place("b" + std::to_string(i), 0);
    renamed.add_transition({a}, "T" + std::to_string(i), {b});
    renamed.add_transition({b}, "u" + std::to_string(i), {a});
  }
  EXPECT_NE(base, canonical_hash(renamed));

  PetriNet remarked = toggle_net(4);
  // Same structure, different initial marking.
  PetriNet other;
  for (std::size_t i = 0; i < 4; ++i) {
    PlaceId a = other.add_place("a" + std::to_string(i), i == 0 ? 0 : 1);
    PlaceId b = other.add_place("b" + std::to_string(i), i == 0 ? 1 : 0);
    other.add_transition({a}, "t" + std::to_string(i), {b});
    other.add_transition({b}, "u" + std::to_string(i), {a});
  }
  EXPECT_NE(canonical_hash(remarked), canonical_hash(other));
}

TEST(CanonicalHash, IgnoresLabelInterningOrder) {
  // Same net, alphabet discovered in a different order.
  PetriNet first;
  {
    PlaceId p = first.add_place("p", 1);
    PlaceId q = first.add_place("q", 0);
    first.add_transition({p}, "x", {q});
    first.add_transition({q}, "y", {p});
  }
  PetriNet second;
  {
    PlaceId p = second.add_place("p", 1);
    PlaceId q = second.add_place("q", 0);
    // Intern "y" before "x" by adding its transition first, then swap the
    // structural roles back via a second pair of transitions? Simpler: the
    // .cpn round-trip re-interns labels in declaration order; equality with
    // `first` shows the hash keys on sorted labels, not ActionId values.
    second.add_transition({q}, "y", {p});
    second.add_transition({p}, "x", {q});
  }
  // Transition order differs, so the hashes legitimately differ…
  EXPECT_NE(canonical_hash(first), canonical_hash(second));
  // …but a round-trip through the text format is hash-stable even though
  // parsing re-interns every label.
  EXPECT_EQ(canonical_hash(first),
            canonical_hash(read_net(write_net(first, "n"))));
  EXPECT_EQ(canonical_hash(second),
            canonical_hash(read_net(write_net(second, "n"))));
}

// ---------------------------------------------------------------------------
// JobScheduler

TEST(Scheduler, RunsEverySubmittedJob) {
  SchedulerOptions options;
  options.workers = 8;
  options.max_queue = 256;
  JobScheduler scheduler(options);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    const SubmitStatus s = scheduler.submit([&] { ++done; });
    EXPECT_TRUE(s.accepted);
  }
  scheduler.drain();
  EXPECT_EQ(done.load(), 100);
}

TEST(Scheduler, HigherPriorityRunsFirst) {
  SchedulerOptions options;
  options.workers = 1;
  JobScheduler scheduler(options);

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;

  // Occupy the single worker so subsequent submissions queue up.
  scheduler.submit([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  });
  auto record = [&](int tag) {
    return [&order, &m, tag] {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(tag);
    };
  };
  scheduler.submit(record(0), svc::Priority::kLow);
  scheduler.submit(record(1), svc::Priority::kNormal);
  scheduler.submit(record(2), svc::Priority::kHigh);
  scheduler.submit(record(3), svc::Priority::kHigh);
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  scheduler.drain();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1, 0}));
}

TEST(Scheduler, FullQueueRejectsWithRetryHint) {
  SchedulerOptions options;
  options.workers = 1;
  options.max_queue = 2;
  JobScheduler scheduler(options);

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> running{false};
  scheduler.submit([&] {
    running = true;
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  });
  // Wait for the worker to pick the blocker up so it no longer occupies a
  // queue slot.
  while (!running) std::this_thread::yield();
  EXPECT_TRUE(scheduler.submit([] {}).accepted);
  EXPECT_TRUE(scheduler.submit([] {}).accepted);
  const SubmitStatus rejected = scheduler.submit([] {});
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.queue_depth, 2u);
  EXPECT_GE(rejected.retry_after_ms, 1u);
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  scheduler.drain();
}

TEST(Scheduler, ShutdownRejectsNewWork) {
  JobScheduler scheduler({.workers = 2, .max_queue = 8});
  std::atomic<int> done{0};
  scheduler.submit([&] { ++done; });
  scheduler.shutdown();
  EXPECT_EQ(done.load(), 1);
  EXPECT_FALSE(scheduler.submit([&] { ++done; }).accepted);
  scheduler.shutdown();  // idempotent
  EXPECT_EQ(done.load(), 1);
}

TEST(Scheduler, ThrowingJobDoesNotKillWorker) {
  JobScheduler scheduler({.workers = 1, .max_queue = 8});
  std::atomic<int> done{0};
  scheduler.submit([] { throw std::runtime_error("poison"); });
  scheduler.submit([&] { ++done; });
  scheduler.drain();
  EXPECT_EQ(done.load(), 1);
}

// ---------------------------------------------------------------------------
// ResultCache

TEST(ResultCache, HitAfterInsertMissOtherwise) {
  svc::ResultCache cache;
  const svc::CacheKey key{42, "reach", "max_states=100"};
  EXPECT_EQ(cache.lookup(key), std::nullopt);
  cache.insert(key, "{\"states\":4}");
  EXPECT_EQ(cache.lookup(key), "{\"states\":4}");
  EXPECT_EQ(cache.lookup({42, "reach", "max_states=200"}), std::nullopt);
  EXPECT_EQ(cache.lookup({43, "reach", "max_states=100"}), std::nullopt);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(ResultCache, OverwriteReplacesPayload) {
  svc::ResultCache cache;
  const svc::CacheKey key{1, "op", ""};
  cache.insert(key, "old");
  cache.insert(key, "new");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.lookup(key), "new");
}

TEST(ResultCache, EvictsLeastRecentlyUsedWhenOverBudget) {
  svc::ResultCacheOptions options;
  options.max_bytes = 2048;
  svc::ResultCache cache(options);
  const std::string payload(400, 'x');
  cache.insert({1, "op", ""}, payload);
  cache.insert({2, "op", ""}, payload);
  cache.insert({3, "op", ""}, payload);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.lookup({1, "op", ""}), std::nullopt);
  cache.insert({4, "op", ""}, payload);
  EXPECT_LE(cache.bytes(), 2048u);
  EXPECT_NE(cache.lookup({1, "op", ""}), std::nullopt);
  EXPECT_EQ(cache.lookup({2, "op", ""}), std::nullopt);
  EXPECT_NE(cache.lookup({4, "op", ""}), std::nullopt);
}

TEST(ResultCache, OversizedPayloadIsNotCached) {
  svc::ResultCacheOptions options;
  options.max_bytes = 256;
  svc::ResultCache cache(options);
  cache.insert({1, "op", ""}, std::string(1024, 'x'));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.lookup({1, "op", ""}), std::nullopt);
}

TEST(ResultCache, TtlExpiresEntries) {
  svc::ResultCacheOptions options;
  options.ttl = std::chrono::milliseconds(100);
  svc::ResultCache cache(options);
  const svc::CacheKey key{7, "op", ""};
  const auto t0 = svc::ResultCache::Clock::now();
  cache.insert(key, "payload", t0);
  EXPECT_EQ(cache.lookup(key, t0 + 50ms), "payload");
  EXPECT_EQ(cache.lookup(key, t0 + 250ms), std::nullopt);
  EXPECT_EQ(cache.entries(), 0u);  // expiry erases
}

// ---------------------------------------------------------------------------
// AnalysisService

std::string toggle_net_text(std::size_t k) {
  return write_net(toggle_net(k), "toggles");
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

TEST(Service, PingAndVersion) {
  svc::AnalysisService service;
  const json::Value pong =
      json::parse(service.handle_line("{\"id\":1,\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_EQ(pong.get_number("id"), 1.0);
  const json::Value ver =
      json::parse(service.handle_line("{\"id\":2,\"op\":\"version\"}"));
  EXPECT_TRUE(ver.find("ok")->as_bool());
  EXPECT_FALSE(ver.find("result")->get_string("git_sha").empty());
}

TEST(Service, MalformedLineYieldsParseError) {
  svc::AnalysisService service;
  const json::Value rsp = json::parse(service.handle_line("not json"));
  EXPECT_FALSE(rsp.find("ok")->as_bool());
  EXPECT_EQ(rsp.find("error")->get_string("code"), "parse");
}

TEST(Service, UnknownOpYieldsBadRequest) {
  svc::AnalysisService service;
  const json::Value rsp =
      json::parse(service.handle_line("{\"id\":9,\"op\":\"frobnicate\"}"));
  EXPECT_FALSE(rsp.find("ok")->as_bool());
  EXPECT_EQ(rsp.find("error")->get_string("code"), "bad_request");
  EXPECT_EQ(rsp.get_number("id"), 9.0);
}

TEST(Service, RepeatedRequestHitsCacheAndCountsIt) {
  obs::ScopedEnable metrics;
  svc::AnalysisService service;
  const std::string request = reach_request(1, toggle_net_text(4));
  const json::Value first = json::parse(service.handle_line(request));
  ASSERT_TRUE(first.find("ok")->as_bool());
  EXPECT_FALSE(first.find("cached")->as_bool());
  EXPECT_EQ(first.find("result")->get_number("states"), 16.0);

  const json::Value second = json::parse(service.handle_line(request));
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_TRUE(second.find("cached")->as_bool());
  EXPECT_EQ(second.find("result")->get_number("states"), 16.0);

  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  EXPECT_GE(snap.counter("svc.cache.hit"), 1u);
  EXPECT_GE(snap.counter("svc.cache.miss"), 1u);
}

TEST(Service, NoCacheFlagBypassesTheCache) {
  svc::AnalysisService service;
  const std::string net = toggle_net_text(3);
  json::Writer w;
  w.begin_object();
  w.member("id", 1);
  w.member("op", "reach");
  w.member("net", net);
  w.member("no_cache", true);
  w.end_object();
  const std::string request = w.take();
  EXPECT_FALSE(json::parse(service.handle_line(request))
                   .find("cached")->as_bool());
  EXPECT_FALSE(json::parse(service.handle_line(request))
                   .find("cached")->as_bool());
  EXPECT_EQ(service.cache().entries(), 0u);
}

TEST(Service, DeadlineExceededReturnsCancelledAndServiceSurvives) {
  svc::ServiceOptions options;
  options.max_states = 100'000'000;  // let the deadline trip first
  svc::AnalysisService service(options);
  const json::Value rsp = json::parse(
      service.handle_line(reach_request(5, toggle_net_text(24), 25)));
  EXPECT_FALSE(rsp.find("ok")->as_bool());
  const json::Value* error = rsp.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->get_string("code"), "cancelled");
  EXPECT_GE(error->get_number("elapsed_ms"), 0.0);

  // The same service keeps answering.
  const json::Value pong =
      json::parse(service.handle_line("{\"id\":6,\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.find("ok")->as_bool());
}

TEST(Service, StateBudgetDegradesToTruncatedPartialResult) {
  svc::ServiceOptions options;
  options.max_states = 10;
  svc::AnalysisService service(options);
  const json::Value rsp =
      json::parse(service.handle_line(reach_request(1, toggle_net_text(8))));
  EXPECT_TRUE(rsp.find("ok")->as_bool());
  const json::Value* result = rsp.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->find("truncated")->as_bool());
  EXPECT_GE(result->get_number("states"), 1.0);
  EXPECT_LE(result->get_number("states"), 10.0);
  // A truncated answer describes this run, not the net: never memoized.
  EXPECT_EQ(service.cache().entries(), 0u);
}

std::string reach_request_engine(int id, const std::string& net_text,
                                 const std::string& engine) {
  json::Writer w;
  w.begin_object();
  w.member("id", id);
  w.member("op", "reach");
  w.member("net", net_text);
  w.member("engine", engine);
  w.end_object();
  return w.take();
}

TEST(Service, ReachEngineMemberSelectsEngineAndReportsIt) {
  svc::AnalysisService service;
  const std::string net = toggle_net_text(4);
  const json::Value dense =
      json::parse(service.handle_line(reach_request_engine(1, net, "dense")));
  ASSERT_TRUE(dense.find("ok")->as_bool());
  EXPECT_EQ(dense.find("result")->get_string("engine"), "dense");
  EXPECT_TRUE(dense.find("result")->find("structurally_safe")->as_bool());

  const json::Value packed =
      json::parse(service.handle_line(reach_request_engine(2, net, "packed")));
  ASSERT_TRUE(packed.find("ok")->as_bool());
  EXPECT_EQ(packed.find("result")->get_string("engine"), "packed");
  EXPECT_EQ(packed.find("result")->get_number("states"),
            dense.find("result")->get_number("states"));

  // toggle nets are semiflow-covered, so the default (auto) goes packed.
  const json::Value deflt =
      json::parse(service.handle_line(reach_request(3, net)));
  ASSERT_TRUE(deflt.find("ok")->as_bool());
  EXPECT_EQ(deflt.find("result")->get_string("engine"), "packed");
}

TEST(Service, ReachUnknownEngineIsBadRequest) {
  svc::AnalysisService service;
  const json::Value rsp = json::parse(
      service.handle_line(reach_request_engine(7, toggle_net_text(2), "qbit")));
  EXPECT_FALSE(rsp.find("ok")->as_bool());
  EXPECT_EQ(rsp.find("error")->get_string("code"), "bad_request");
}

TEST(Service, ReachEngineIsPartOfTheCacheKey) {
  svc::AnalysisService service;
  const std::string net = toggle_net_text(3);
  EXPECT_FALSE(json::parse(service.handle_line(
                   reach_request_engine(1, net, "dense")))
                   .find("cached")->as_bool());
  // Same net, different engine: must not be served from the dense entry
  // (the response's "engine" member differs between the two).
  const json::Value packed =
      json::parse(service.handle_line(reach_request_engine(2, net, "packed")));
  EXPECT_FALSE(packed.find("cached")->as_bool());
  EXPECT_EQ(packed.find("result")->get_string("engine"), "packed");
  EXPECT_EQ(service.cache().entries(), 2u);
}

TEST(Service, SixtyFourConcurrentRequestsComplete) {
  svc::ServiceOptions options;
  options.scheduler.workers = 8;
  options.scheduler.max_queue = 128;
  svc::AnalysisService service(options);

  const std::string net = toggle_net_text(6);  // 64 states each
  std::mutex m;
  std::vector<std::string> responses;
  std::size_t accepted = 0;
  for (int i = 0; i < 64; ++i) {
    const svc::SubmitStatus s =
        service.submit_line(reach_request(i, net), [&](const std::string& r) {
          std::lock_guard<std::mutex> lock(m);
          responses.push_back(r);
        });
    accepted += s.accepted ? 1 : 0;
  }
  service.drain();
  EXPECT_EQ(accepted, 64u);
  ASSERT_EQ(responses.size(), 64u);
  std::vector<bool> seen(64, false);
  for (const std::string& r : responses) {
    const json::Value doc = json::parse(r);
    EXPECT_TRUE(doc.find("ok")->as_bool()) << r;
    EXPECT_EQ(doc.find("result")->get_number("states"), 64.0);
    seen[static_cast<std::size_t>(doc.get_number("id"))] = true;
  }
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(seen[i]) << "missing id " << i;
}

TEST(Service, OverloadedSubmitAnswersInlineWithRetryHint) {
  svc::ServiceOptions options;
  options.scheduler.workers = 1;
  options.scheduler.max_queue = 1;
  svc::AnalysisService service(options);

  // A slow request to occupy the worker plus one queued slot.
  const std::string net = toggle_net_text(14);
  const std::string slow = reach_request(1, net);
  std::atomic<int> done{0};
  auto count = [&](const std::string&) { ++done; };
  service.submit_line(slow, count);
  service.submit_line(slow, count);

  // The queue may already have drained on a fast machine; keep submitting
  // until one bounces. Everything is bounded by max_queue+1 in flight.
  std::string overloaded;
  for (int i = 0; i < 200 && overloaded.empty(); ++i) {
    const svc::SubmitStatus s = service.submit_line(
        reach_request(100 + i, net), [&](const std::string& r) {
          if (r.find("\"overloaded\"") != std::string::npos) overloaded = r;
          ++done;
        });
    if (!s.accepted) break;
  }
  service.drain();
  if (!overloaded.empty()) {
    const json::Value doc = json::parse(overloaded);
    EXPECT_FALSE(doc.find("ok")->as_bool());
    EXPECT_EQ(doc.find("error")->get_string("code"), "overloaded");
    EXPECT_GE(doc.find("error")->get_number("retry_after_ms"), 1.0);
  }
}

TEST(Service, ServeLoopAnswersEveryLine) {
  std::istringstream in(
      "{\"id\":1,\"op\":\"ping\"}\n"
      "\n"  // blank lines are skipped
      "{\"id\":2,\"op\":\"version\"}\n"
      "garbage\n");
  std::ostringstream out;
  svc::ServiceOptions options;
  options.scheduler.workers = 2;
  EXPECT_EQ(svc::serve(in, out, options), 3u);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NO_THROW(static_cast<void>(json::parse(line))) << line;
  }
  EXPECT_EQ(count, 3u);
}

}  // namespace
}  // namespace cipnet
