#include "reach/coverability.h"

#include <limits>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reach/marking_store.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/sorted_set.h"

namespace cipnet {

namespace {

CIPNET_FAULT_SITE(f_cancel, "reach.cancel");
const obs::Counter c_nodes("cover.nodes");
const obs::Counter c_accelerations("cover.accelerations");
const obs::Counter c_subsumed("cover.subsumed");
const obs::Histogram h_frontier("cover.frontier_size");

/// ω is represented as the maximum token value; real nets never get there
/// (acceleration jumps straight to it).
constexpr Token kOmega = std::numeric_limits<Token>::max();

bool leq(const Token* a, const Token* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

bool rows_equal(const Token* a, const Token* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

CoverabilityResult coverability(const PetriNet& net,
                                const CoverabilityOptions& options) {
  obs::Span span("reach.coverability");
  const std::size_t places = net.place_count();

  // Tree markings live contiguously in one arena (the subsumption scan
  // below is a linear pass over memory); `parents` carries the ancestor
  // chain for the acceleration test.
  MarkingStore tree(places);
  tree.reserve(std::min<std::size_t>(options.max_nodes, 1u << 14));
  std::vector<int> parents;
  std::vector<std::size_t> frontier;

  // Per-transition net effect, computed once: places that lose / gain a
  // token (self-loops excluded — they only test).
  struct Effect {
    std::vector<PlaceId> dec;
    std::vector<PlaceId> inc;
  };
  std::vector<Effect> effects(net.transition_count());
  for (TransitionId t : net.all_transitions()) {
    const auto& tr = net.transition(t);
    Effect& e = effects[t.index()];
    for (PlaceId p : tr.preset) {
      if (!sorted_set::contains(tr.postset, p)) e.dec.push_back(p);
    }
    for (PlaceId p : tr.postset) {
      if (!sorted_set::contains(tr.preset, p)) e.inc.push_back(p);
    }
  }

  // `m` arrives in the caller's scratch buffer; it is accelerated in place
  // and only copied into the arena when no existing node subsumes it.
  bool truncated = false;
  auto push = [&](std::vector<Token>& m, int parent) {
    if (tree.size() >= options.max_nodes) {
      if (options.truncate_on_limit) {
        if (!truncated) {
          obs::FlightRecorder::instance().record(
              obs::FlightKind::kTruncated, 0, "cover.tree.nodes",
              tree.size(), options.max_nodes);
        }
        truncated = true;
        return;
      }
      throw LimitError("coverability tree exceeded max_nodes",
                       LimitContext{tree.size(), 0, options.max_nodes});
    }
    // Acceleration: if m strictly dominates an ancestor, the gap can be
    // pumped — set the strictly larger places to ω.
    for (int a = parent; a >= 0; a = parents[a]) {
      const Token* anc = tree.row(static_cast<std::size_t>(a));
      if (leq(anc, m.data(), places) && !rows_equal(anc, m.data(), places)) {
        bool pumped = false;
        for (std::size_t i = 0; i < places; ++i) {
          if (m[i] > anc[i]) {
            pumped = pumped || m[i] != kOmega;
            m[i] = kOmega;
          }
        }
        if (pumped) c_accelerations.add();
      }
    }
    // Subsumption: drop if some existing node covers m.
    for (std::size_t n = 0; n < tree.size(); ++n) {
      if (leq(m.data(), tree.row(n), places)) {
        c_subsumed.add();
        return;
      }
    }
    tree.push_back(m.data());
    parents.push_back(parent);
    frontier.push_back(tree.size() - 1);
    c_nodes.add();
  };

  std::vector<Token> scratch = net.initial_marking().tokens();
  push(scratch, -1);
  std::vector<Token> current;
  while (!frontier.empty() && !truncated) {
    h_frontier.record(frontier.size());
    options.cancel.check("reach.coverability");
    if (CIPNET_FAULT_FIRES(f_cancel)) {
      throw Cancelled("reach.coverability", options.cancel.elapsed_ms(),
                      false);
    }
    std::size_t index = frontier.back();
    frontier.pop_back();
    if (index >= tree.size()) continue;
    // Copy: `push` grows the arena while `current` is being read.
    const Token* row = tree.row(index);
    current.assign(row, row + places);
    for (TransitionId t : net.all_transitions()) {
      const auto& tr = net.transition(t);
      bool enabled = true;
      for (PlaceId p : tr.preset) {
        if (current[p.index()] == 0) enabled = false;
      }
      if (!enabled) continue;
      scratch = current;
      for (PlaceId p : effects[t.index()].dec) {
        if (scratch[p.index()] != kOmega) scratch[p.index()] -= 1;
      }
      for (PlaceId p : effects[t.index()].inc) {
        if (scratch[p.index()] != kOmega) scratch[p.index()] += 1;
      }
      push(scratch, static_cast<int>(index));
    }
  }

  CoverabilityResult result;
  result.truncated = truncated;
  result.tree_nodes = tree.size();
  result.bounds.assign(places, Token{0});
  for (std::size_t n = 0; n < tree.size(); ++n) {
    const Token* row = tree.row(n);
    for (std::size_t i = 0; i < places; ++i) {
      if (row[i] == kOmega) {
        result.bounds[i] = std::nullopt;
      } else if (result.bounds[i] && row[i] > *result.bounds[i]) {
        result.bounds[i] = row[i];
      }
    }
  }
  return result;
}

}  // namespace cipnet
