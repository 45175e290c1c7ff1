#include "stg/state_graph.h"

#include <algorithm>
#include <deque>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "reach/marking_store.h"
#include "util/error.h"

namespace cipnet {

namespace {
const obs::Counter c_sg_states("stg.states");
const obs::Counter c_sg_edges("stg.edges");
const obs::Counter c_sg_violations("stg.violations");
}  // namespace

char level_char(Level level) {
  switch (level) {
    case Level::kLow:
      return '0';
    case Level::kHigh:
      return '1';
    case Level::kUnknown:
      return '?';
  }
  return '?';
}

std::size_t StateGraph::signal_index(const std::string& signal) const {
  for (std::size_t i = 0; i < signals_.size(); ++i) {
    if (signals_[i] == signal) return i;
  }
  throw SemanticError("signal not in state graph: " + signal);
}

std::vector<StateId> StateGraph::all_states() const {
  std::vector<StateId> out;
  out.reserve(markings_.size());
  for (std::size_t i = 0; i < markings_.size(); ++i) {
    out.push_back(StateId(static_cast<std::uint32_t>(i)));
  }
  return out;
}

std::string StateGraph::encoding_string(StateId s) const {
  std::string out;
  for (Level level : encodings_[s.index()]) out += level_char(level);
  return out;
}

class StateGraphBuilder {
 public:
  StateGraphBuilder(const Stg& stg, const StateGraphOptions& options)
      : stg_(stg),
        options_(options),
        key_store_(stg.net().place_count() + stg.signal_names().size()) {
    sg_.signals_ = stg.signal_names();
    for (TransitionId t : stg.net().all_transitions()) {
      sg_.transition_edges_.push_back(stg.edge_of(t));
    }
  }

  StateGraph build(const Encoding& initial) {
    obs::Span span("stg.state_graph");
    intern(stg_.net().initial_marking(), initial);
    std::deque<StateId> frontier{StateId(0)};
    while (!frontier.empty()) {
      StateId s = frontier.front();
      frontier.pop_front();
      options_.cancel.check("stg.state_graph");
      expand(s, frontier);
    }
    return std::move(sg_);
  }

 private:
  /// Dedup key: one flat row of `place_count + signal_count` tokens
  /// (marking ++ encoding levels), interned through the same arena +
  /// open-addressing interner the reachability explorer uses — a single
  /// probe instead of hashing a pair of heap vectors per successor.
  struct InternResult {
    StateId id;
    bool fresh;
  };

  InternResult intern(const Marking& m, const Encoding& e) {
    key_scratch_.assign(m.tokens().begin(), m.tokens().end());
    for (Level level : e) {
      key_scratch_.push_back(static_cast<Token>(level));
    }
    auto r = index_.intern(key_scratch_.data(), key_store_,
                           options_.max_states);
    if (r.id == MarkingInterner::kNoId) {
      throw LimitError("state graph exceeded max_states",
                       LimitContext{sg_.markings_.size(), edges_added_,
                                    options_.max_states});
    }
    if (r.fresh) {
      sg_.markings_.push_back(m);
      sg_.encodings_.push_back(e);
      sg_.edges_.emplace_back();
      c_sg_states.add();
    }
    return InternResult{StateId(r.id), r.fresh};
  }

  bool guard_holds(const Guard& guard, const Encoding& e) const {
    for (const auto& [signal, level] : guard.literals()) {
      std::size_t i = sg_.signal_index(signal);
      Level required = level ? Level::kHigh : Level::kLow;
      if (e[i] != required) return false;
    }
    return true;
  }

  void expand(StateId s, std::deque<StateId>& frontier) {
    // Copy: interning reallocates the state vectors.
    const Marking marking = sg_.markings_[s.index()];
    const Encoding encoding = sg_.encodings_[s.index()];
    for (TransitionId t : stg_.net().enabled_transitions(marking)) {
      const auto& tr = stg_.net().transition(t);
      if (options_.respect_guards && !guard_holds(tr.guard, encoding)) {
        continue;
      }
      Marking next_marking = stg_.net().fire(marking, t);
      auto edge = stg_.edge_of(t);
      if (!edge) {  // dummy transition: encoding unchanged
        emit(s, t, next_marking, encoding, frontier);
        continue;
      }
      std::size_t i = sg_.signal_index(edge->signal);
      Level current = encoding[i];
      switch (edge->type) {
        case EdgeType::kRise:
          if (current == Level::kHigh) {
            violate(s, t, edge->signal + "+ fired while already high");
          } else {
            emit(s, t, next_marking, with(encoding, i, Level::kHigh),
                 frontier);
          }
          break;
        case EdgeType::kFall:
          if (current == Level::kLow) {
            violate(s, t, edge->signal + "- fired while already low");
          } else {
            emit(s, t, next_marking, with(encoding, i, Level::kLow), frontier);
          }
          break;
        case EdgeType::kToggle:
          if (current == Level::kUnknown) {
            emit(s, t, next_marking, encoding, frontier);
          } else {
            Level flipped =
                current == Level::kLow ? Level::kHigh : Level::kLow;
            emit(s, t, next_marking, with(encoding, i, flipped), frontier);
          }
          break;
        case EdgeType::kStable:
          if (current == Level::kUnknown) {
            // The line settles at either value: branch (Section 6's "expected
            // to stabilize at either a 1 or a 0").
            emit(s, t, next_marking, with(encoding, i, Level::kLow), frontier);
            emit(s, t, next_marking, with(encoding, i, Level::kHigh),
                 frontier);
          } else {
            emit(s, t, next_marking, encoding, frontier);
          }
          break;
        case EdgeType::kUnstable:
          emit(s, t, next_marking, with(encoding, i, Level::kUnknown),
               frontier);
          break;
        case EdgeType::kDontCare:
          emit(s, t, next_marking, encoding, frontier);
          break;
      }
    }
  }

  static Encoding with(Encoding e, std::size_t i, Level level) {
    e[i] = level;
    return e;
  }

  void emit(StateId from, TransitionId t, const Marking& m, const Encoding& e,
            std::deque<StateId>& frontier) {
    InternResult r = intern(m, e);
    sg_.edges_[from.index()].push_back(StateGraph::Edge{t, r.id});
    ++edges_added_;
    c_sg_edges.add();
    if (r.fresh) frontier.push_back(r.id);
  }

  void violate(StateId s, TransitionId t, std::string reason) {
    c_sg_violations.add();
    sg_.violations_.push_back(ConsistencyViolation{s, t, std::move(reason)});
  }

  const Stg& stg_;
  StateGraphOptions options_;
  StateGraph sg_;
  std::uint64_t edges_added_ = 0;
  MarkingStore key_store_;
  MarkingInterner index_;
  std::vector<Token> key_scratch_;
};

StateGraph build_state_graph(
    const Stg& stg,
    const std::vector<std::pair<std::string, Level>>& initial_levels,
    const StateGraphOptions& options) {
  StateGraphBuilder builder(stg, options);
  Encoding initial(stg.signal_names().size(), Level::kUnknown);
  auto names = stg.signal_names();
  for (const auto& [signal, level] : initial_levels) {
    bool found = false;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == signal) {
        initial[i] = level;
        found = true;
      }
    }
    if (!found) throw SemanticError("unknown signal in encoding: " + signal);
  }
  return builder.build(initial);
}

std::vector<std::size_t> StateGraph::excited_signals(StateId s) const {
  // Edges in the graph are exactly the consistent enabled firings, so a
  // signal is excited iff a rise/fall/toggle edge of it leaves `s`.
  std::vector<std::size_t> out;
  for (const Edge& e : successors(s)) {
    const auto& edge = transition_edges_[e.transition.index()];
    if (!edge) continue;
    if (edge->type == EdgeType::kRise || edge->type == EdgeType::kFall ||
        edge->type == EdgeType::kToggle) {
      std::size_t i = signal_index(edge->signal);
      bool seen = false;
      for (std::size_t x : out) seen = seen || (x == i);
      if (!seen) out.push_back(i);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::vector<std::pair<std::string, Level>>>
infer_initial_encoding(const Stg& stg, const StateGraphOptions& options) {
  std::vector<std::pair<std::string, Level>> result;
  for (const std::string& signal : stg.signal_names()) {
    bool solved = false;
    for (Level candidate : {Level::kLow, Level::kHigh}) {
      try {
        StateGraph sg = build_state_graph(stg, {{signal, candidate}}, options);
        bool ok = true;
        for (const auto& v : sg.violations()) {
          auto edge = parse_edge(stg.net().transition_label(v.transition));
          if (edge && edge->signal == signal) ok = false;
        }
        if (ok) {
          result.emplace_back(signal, candidate);
          solved = true;
          break;
        }
      } catch (const LimitError&) {
        return std::nullopt;
      }
    }
    if (!solved) return std::nullopt;
  }
  return result;
}

}  // namespace cipnet
