#include "algebra/hide.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "algebra/basic.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/rebuild.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/sorted_set.h"

namespace cipnet {

namespace {

CIPNET_FAULT_SITE(f_cancel, "algebra.hide.cancel");
const obs::Counter c_contractions("hide.contractions");
const obs::Counter c_epsilon_fallbacks("hide.epsilon_fallbacks");

/// Simple-case applicability: single conflict-free input place, single
/// choice-free output place, an unguarded transition, and no transition
/// adjacent to both places (which a two-place collapse would turn into a
/// semantically different self-loop).
bool simple_collapse_applies(const PetriNet& net, TransitionId t) {
  const auto& tr = net.transition(t);
  if (!tr.guard.is_true()) return false;
  if (tr.preset.size() != 1 || tr.postset.size() != 1) return false;
  PlaceId p = tr.preset[0];
  PlaceId q = tr.postset[0];
  if (p == q) return false;
  if (net.consumers_of(p).size() != 1) return false;  // conflict-free input
  if (net.producers_of(q).size() != 1) return false;  // choice-free output
  for (TransitionId u : net.all_transitions()) {
    if (u == t) continue;
    const auto& ur = net.transition(u);
    const bool touches_p = sorted_set::contains(ur.preset, p) ||
                           sorted_set::contains(ur.postset, p);
    const bool touches_q = sorted_set::contains(ur.preset, q) ||
                           sorted_set::contains(ur.postset, q);
    if (touches_p && touches_q) return false;
  }
  return true;
}

PetriNet hide_transition_simple(const PetriNet& net, TransitionId t) {
  const auto& tr = net.transition(t);
  PlaceId p = tr.preset[0];
  PlaceId q = tr.postset[0];

  PetriNet out;
  std::vector<PlaceId> place_map(net.place_count(), PlaceId(0));
  for (PlaceId x : net.all_places()) {
    if (x == q) continue;  // merged into p's slot
    Token tokens = net.initial_marking()[x];
    if (x == p) tokens += net.initial_marking()[q];
    std::string name = net.place(x).name;
    if (x == p) name = "(" + name + "." + net.place(q).name + ")";
    place_map[x.index()] = out.add_place(fresh_place_name(out, name), tokens);
  }
  place_map[q.index()] = place_map[p.index()];

  for (std::size_t a = 0; a < net.action_count(); ++a) {
    out.add_action(net.label(ActionId(static_cast<std::uint32_t>(a))));
  }
  for (TransitionId u : net.all_transitions()) {
    if (u == t) continue;
    const auto& ur = net.transition(u);
    std::vector<PlaceId> preset, postset;
    for (PlaceId x : ur.preset) preset.push_back(place_map[x.index()]);
    for (PlaceId x : ur.postset) postset.push_back(place_map[x.index()]);
    out.add_transition(std::move(preset),
                       out.add_action(net.label(ur.action)),
                       std::move(postset), ur.guard);
  }
  return out;
}

PetriNet hide_transition_general(const PetriNet& net, TransitionId t) {
  const auto& tr = net.transition(t);
  const std::vector<PlaceId>& p = tr.preset;
  const std::vector<PlaceId>& q = tr.postset;

  if (sorted_set::intersects(p, q)) {
    throw SemanticError(
        "hide: transition has a self-loop (unobservable divergence)");
  }
  if (q.empty()) {
    throw SemanticError(
        "hide: transition with empty postset cannot be contracted (token "
        "deletion is not expressible)");
  }

  PetriNet out;
  // Places: (P \ p) kept, plus product places p × q. product[i][j] pairs
  // p[i] with q[j]; the product place inherits p[i]'s tokens (a token in
  // p_i is represented as one token in each (p_i, q_j)).
  std::vector<PlaceId> keep_map(net.place_count(), PlaceId(0));
  for (PlaceId x : net.all_places()) {
    if (sorted_set::contains(p, x)) continue;
    keep_map[x.index()] = out.add_place(
        fresh_place_name(out, net.place(x).name), net.initial_marking()[x]);
  }
  std::vector<std::vector<PlaceId>> product(p.size());
  std::vector<PlaceId> all_product;
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = 0; j < q.size(); ++j) {
      PlaceId pp = out.add_place(
          fresh_place_name(out, "(" + net.place(p[i]).name + "," +
                                    net.place(q[j]).name + ")"),
          net.initial_marking()[p[i]]);
      product[i].push_back(pp);
      all_product.push_back(pp);
    }
  }
  sorted_set::normalize(all_product);

  auto row_of = [&](PlaceId x) -> const std::vector<PlaceId>& {
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i] == x) return product[i];
    }
    throw SemanticError("internal: place not in hidden preset");
  };

  // H: places outside p map to themselves, places in p map to their product
  // row.
  auto map_H = [&](const std::vector<PlaceId>& places) {
    std::vector<PlaceId> mapped;
    for (PlaceId x : places) {
      if (sorted_set::contains(p, x)) {
        const auto& row = row_of(x);
        mapped.insert(mapped.end(), row.begin(), row.end());
      } else {
        mapped.push_back(keep_map[x.index()]);
      }
    }
    sorted_set::normalize(mapped);
    return mapped;
  };

  for (std::size_t a = 0; a < net.action_count(); ++a) {
    out.add_action(net.label(ActionId(static_cast<std::uint32_t>(a))));
  }

  for (TransitionId u : net.all_transitions()) {
    if (u == t) continue;
    const auto& ur = net.transition(u);
    const bool successor = sorted_set::intersects(ur.preset, q);
    const bool conflictive = sorted_set::intersects(ur.preset, p);
    if (successor && conflictive) {
      throw SemanticError(
          "hide: a transition consumes from both the preset and the postset "
          "of the hidden transition; the contraction would need arc weights "
          "> 1 (not an ordinary net)");
    }
    // Base copy: rules 1/4(a) with occurrences of p re-wired through H.
    out.add_transition(map_H(ur.preset),
                       out.add_action(net.label(ur.action)),
                       map_H(ur.postset), ur.guard);
    if (successor) {
      // Combined duplicate (rules 2/3/5): fires the hidden transition and
      // this successor in one step. Consumes all product places plus the
      // successor's non-q inputs; produces the successor's outputs plus the
      // outputs of the hidden transition it did not consume.
      std::vector<PlaceId> preset =
          map_H(sorted_set::set_difference(ur.preset, q));
      preset = sorted_set::set_union(preset, all_product);
      std::vector<PlaceId> leftovers;
      for (PlaceId x : sorted_set::set_difference(q, ur.preset)) {
        leftovers.push_back(keep_map[x.index()]);
      }
      std::vector<PlaceId> postset =
          sorted_set::set_union(map_H(ur.postset), sorted_set::make(leftovers));
      out.add_transition(std::move(preset),
                         out.add_action(net.label(ur.action)),
                         std::move(postset), ur.guard.conjoin(tr.guard));
    }
  }
  return out;
}

}  // namespace

PetriNet hide_transition(const PetriNet& net, TransitionId t,
                         const HideOptions& options) {
  PetriNet out =
      options.allow_simple_collapse && simple_collapse_applies(net, t)
          ? hide_transition_simple(net, t)
          : hide_transition_general(net, t);
  c_contractions.add();
  return out;
}

PetriNet hide_action(const PetriNet& net, const std::string& label,
                     const HideOptions& options) {
  obs::Span span("algebra.hide");
  PetriNet current = net;
  std::size_t contractions = 0;
  while (true) {
    options.cancel.check("algebra.hide");
    if (CIPNET_FAULT_FIRES(f_cancel)) {
      throw Cancelled("algebra.hide", options.cancel.elapsed_ms(), false);
    }
    auto action = current.find_action(label);
    if (!action) break;
    // Copy: `current` is replaced inside the loop.
    const std::vector<TransitionId> with_label =
        current.transitions_with_action(*action);
    if (with_label.empty()) break;
    if (current.transition_count() > options.max_intermediate_transitions ||
        current.place_count() > options.max_intermediate_places) {
      if (options.epsilon_fallback) {
        c_epsilon_fallbacks.add();
        obs::FlightRecorder::instance().record(
            obs::FlightKind::kTruncated, 0, "hide.eps.size",
            current.transition_count(), current.place_count());
        current = rename(current, {{label, std::string(kEpsilonLabel)}});
        break;
      }
      throw LimitError("hide_action intermediate net exceeded size limit");
    }
    if (++contractions > options.max_contractions) {
      // Contraction can cascade (a hidden transition's successors carrying
      // the same label are duplicated). When the budget runs out, either
      // keep the remainder as dummies or report the blow-up.
      if (options.epsilon_fallback) {
        c_epsilon_fallbacks.add();
        obs::FlightRecorder::instance().record(
            obs::FlightKind::kTruncated, 0, "hide.eps.contractions",
            contractions - 1, options.max_contractions);
        current = rename(current, {{label, std::string(kEpsilonLabel)}});
        break;
      }
      throw LimitError(
          "hide_action exceeded max_contractions",
          LimitContext{contractions - 1, 0, options.max_contractions});
    }
    // Proposition 4.6: the order of contraction does not matter for the
    // result, but expressibility corners differ — try every candidate
    // before giving up on this pass.
    bool progressed = false;
    std::optional<SemanticError> last_error;
    for (TransitionId t : with_label) {
      try {
        current = hide_transition(current, t, options);
        if (options.simplify_places_between_contractions) {
          current = simplify_places(current);
        }
        progressed = true;
        break;
      } catch (const SemanticError& e) {
        last_error = e;
      }
    }
    if (!progressed) {
      if (!options.epsilon_fallback) throw *last_error;
      // Keep the remaining transitions as dummies: language preserved
      // modulo eps.
      c_epsilon_fallbacks.add();
      obs::FlightRecorder::instance().record(
          obs::FlightKind::kTruncated, 0, "hide.eps.inexpressible",
          contractions, 0);
      current = rename(current, {{label, std::string(kEpsilonLabel)}});
      break;
    }
  }
  // Remove the label from the alphabet (Definition 4.10's last step).
  PetriNet out;
  for (PlaceId x : current.all_places()) {
    out.add_place(current.place(x).name, current.initial_marking()[x]);
  }
  for (std::size_t a = 0; a < current.action_count(); ++a) {
    const std::string& l = current.label(ActionId(static_cast<std::uint32_t>(a)));
    if (l != label) out.add_action(l);
  }
  for (TransitionId u : current.all_transitions()) {
    const auto& ur = current.transition(u);
    out.add_transition(ur.preset, out.add_action(current.label(ur.action)),
                       ur.postset, ur.guard);
  }
  return out;
}

PetriNet hide_actions(const PetriNet& net,
                      const std::vector<std::string>& labels,
                      const HideOptions& options) {
  PetriNet current = net;
  for (const std::string& label : labels) {
    current = hide_action(current, label, options);
  }
  return current;
}

PetriNet project(const PetriNet& net, const std::vector<std::string>& kept,
                 const HideOptions& options) {
  auto kept_set = sorted_set::make(kept);
  std::vector<std::string> hidden;
  for (const std::string& label : net.alphabet()) {
    if (!sorted_set::contains(kept_set, label)) hidden.push_back(label);
  }
  return hide_actions(net, hidden, options);
}

PetriNet hide_keep_epsilon(const PetriNet& net,
                           const std::vector<std::string>& labels,
                           const HideOptions& options) {
  // Step 1: relabel the hidden transitions to eps.
  std::map<std::string, std::string> renames;
  for (const std::string& label : labels) {
    if (label != kEpsilonLabel) renames.emplace(label, std::string(kEpsilonLabel));
  }
  PetriNet current = rename(net, renames);

  // Step 2: contract eps transitions whose successors are all eps — so the
  // *last* dummy before any visible transition survives, preserving the
  // "reached via internal transitions" information (Section 5.3).
  std::size_t contractions = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    options.cancel.check("algebra.hide_keep_epsilon");
    auto eps = current.find_action(kEpsilonLabel);
    if (!eps) break;
    for (TransitionId t : current.transitions_with_action(*eps)) {
      const auto& tr = current.transition(t);
      if (sorted_set::intersects(tr.preset, tr.postset)) continue;
      if (tr.postset.empty()) continue;
      bool all_eps_successors = true;
      for (PlaceId qj : tr.postset) {
        for (TransitionId u : current.consumers_of(qj)) {
          if (current.transition_label(u) != kEpsilonLabel) {
            all_eps_successors = false;
          }
        }
      }
      if (!all_eps_successors) continue;
      bool inexpressible = false;
      for (TransitionId u : current.all_transitions()) {
        if (u == t) continue;
        const auto& ur = current.transition(u);
        if (sorted_set::intersects(ur.preset, tr.preset) &&
            sorted_set::intersects(ur.preset, tr.postset)) {
          inexpressible = true;
          break;
        }
      }
      if (inexpressible) continue;
      if (++contractions > options.max_contractions) {
        throw LimitError("hide_keep_epsilon exceeded max_contractions");
      }
      current = hide_transition(current, t, options);
      changed = true;
      break;  // ids are stale after the rebuild
    }
  }
  return current;
}

}  // namespace cipnet
