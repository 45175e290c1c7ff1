// The `explore` workload: the reachability verdict set on three large
// nets, one per marking engine the auto-selector can pick. The expanded
// 10-stage CIP pipeline is safe but not provably so (dense), the cycle
// family is provably 1-safe (packed), and the token ring is not safe
// (dense).

#include <algorithm>

#include "generators.h"
#include "petri/structure.h"
#include "reach/properties.h"
#include "reach/reachability.h"
#include "workloads.h"

namespace cipbench {

using namespace cipnet;

namespace {

constexpr std::size_t kCycles = 18;
constexpr std::size_t kPipelineStages = 10;
constexpr std::size_t kRingPlaces = 16;
constexpr std::size_t kRingTokens = 8;

/// A net with the answers the verdict set must give on it.
struct ExploreNet {
  std::string name;
  PetriNet net;
  std::uint64_t states = 0;
  std::uint64_t edges = 0;
  Token max_tokens = 1;
};

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

std::vector<ExploreNet> explore_nets(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ExploreNet> nets;
  // No closed form: the counts were taken once and agree across the dense
  // and packed engines and every thread count (the traced run rechecks).
  nets.push_back({"cip_pipeline/10",
                  cip_pipeline(kPipelineStages, rng.tag() + "_"), 507627,
                  2505978, 1});
  const std::uint64_t cycle_states = std::uint64_t{1} << kCycles;
  nets.push_back({"independent_cycles/18", independent_cycles(kCycles, rng),
                  cycle_states, kCycles * cycle_states, 1});
  nets.push_back(
      {"token_ring/16x8",
       token_ring(kRingPlaces, kRingTokens, rng.below(kRingPlaces),
                  rng.tag() + "_"),
       binomial(kRingPlaces + kRingTokens - 1, kRingTokens),
       kRingPlaces * binomial(kRingPlaces + kRingTokens - 2, kRingTokens - 1),
       kRingTokens});
  rng.shuffle(nets);
  return nets;
}

ReachOptions verdict_options() {
  ReachOptions options;
  options.max_states = std::size_t{1} << 22;
  return options;
}

/// The verdict set on one net, checked against its reference. Returns the
/// state count.
std::uint64_t verdicts(const ExploreNet& n, SpanLog& log, Outcome& out) {
  log.span("petri.structurally_safe",
           [&] { return is_structurally_safe(n.net); });
  const ReachabilityGraph rg = log.span(
      "reach.explore", [&] { return explore(n.net, verdict_options()); });
  const std::size_t deadlocks =
      log.span("reach.deadlock", [&] { return deadlock_states(rg).size(); });
  const auto [safe, max_tokens] = log.span("reach.safe", [&] {
    return std::pair{is_safe(rg), max_tokens_in_any_place(rg)};
  });
  const std::size_t dead = log.span(
      "reach.dead_transitions", [&] { return dead_transitions(n.net, rg).size(); });
  const bool live = log.span("reach.live", [&] { return is_live(n.net, rg); });

  out.expect(rg.state_count() == n.states && rg.edge_count() == n.edges &&
                 deadlocks == 0 && safe == (n.max_tokens == 1) &&
                 max_tokens == n.max_tokens && dead == 0 && live,
             n.name + ": " + std::to_string(rg.state_count()) + " states, " +
                 std::to_string(rg.edge_count()) + " edges, " +
                 std::to_string(deadlocks) + " deadlocks, max tokens " +
                 std::to_string(max_tokens) + ", " + std::to_string(dead) +
                 " dead transitions, live " + std::to_string(live));
  return rg.state_count();
}

/// Whole rounds over `nets` until `seconds` have passed; the window's work
/// is the states explored.
Window run_nets(const std::vector<ExploreNet>& nets, double seconds,
                SpanLog& log, Outcome& out) {
  return run_rounds(
      nets.size(), seconds, "explore.net", log, out,
      [&](std::size_t i) { return static_cast<double>(verdicts(nets[i], log, out)); },
      [&](std::size_t i) { return nets[i].name; });
}

/// States per second of each engine at 1 and 4 threads on the cycle family
/// and the pipeline; every configuration must build the same graph.
void engine_matrix(const std::vector<ExploreNet>& nets, Outcome& out) {
  for (ReachEngine engine : {ReachEngine::kDense, ReachEngine::kPacked}) {
    for (std::size_t threads : {1, 4}) {
      std::uint64_t states = 0;
      double seconds = 0;
      for (const ExploreNet& n : nets) {
        if (n.max_tokens != 1) continue;  // packed needs a 1-safe net
        ReachOptions options = verdict_options();
        options.engine = engine;
        options.threads = threads;
        const auto t0 = Clock::now();
        const ReachabilityGraph rg = explore(n.net, options);
        seconds += seconds_since(t0);
        states += rg.state_count();
        ++out.attempted;
        out.expect(rg.state_count() == n.states && rg.edge_count() == n.edges,
                   n.name + ": " + to_string(engine) + " engine at " +
                       std::to_string(threads) + " threads built " +
                       std::to_string(rg.state_count()) + " states, " +
                       std::to_string(rg.edge_count()) + " edges");
      }
      out.metrics.set(std::string("reach.") + to_string(engine) + "_t" +
                          std::to_string(threads) + "_states_per_s",
                      states / seconds, "1/s");
    }
  }
}

}  // namespace

Outcome run_explore(const RunConfig& config) {
  Outcome out;
  std::vector<ExploreNet> nets;
  const double setup_s =
      timed_setup(3, [&](SetupTimer&) { nets = explore_nets(config.seed); });

  if (!config.trace) {
    SpanLog off(false);
    const Window window = run_nets(nets, config.seconds, off, out);
    report_end_to_end(out, setup_s, window, peak_rss_mb());
    return out;
  }
  const auto start = Clock::now();
  engine_matrix(nets, out);
  // The rest of the time: whole rounds untraced, then traced.
  const double remaining = std::max(0.0, config.seconds - seconds_since(start));
  SpanLog off(false);
  const double untraced_rate = run_nets(nets, remaining / 2, off, out).rate();
  SpanLog log(true);
  const Window traced = run_nets(nets, remaining / 2, log, out);
  report_trace_overhead(out, untraced_rate, traced.rate());
  report_spans(out, log, traced.rounds, traced.seconds);
  out.metrics.set("reach.states", traced.work / traced.rounds, "count");
  log.write_jsonl(config.bin_dir + "/trace-explore.jsonl");
  return out;
}

}  // namespace cipbench
