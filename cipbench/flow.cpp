// The `flow` workload: the paper's pipeline (§3-§5) on many small designs.
// Per design: validate, expand every module, compose; per channel:
// compose the two expanded modules, check receptiveness (and the
// structural Theorem 5.7 check when the pair is a live marked graph),
// simplify the receiver against the sender; per module: state graph,
// coding, and synthesis when the module is CSC-free.

#include <optional>

#include "algebra/parallel.h"
#include "circuit/receptive.h"
#include "circuit/simplify.h"
#include "generators.h"
#include "lang/ops.h"
#include "models/translator.h"
#include "petri/marked_graph.h"
#include "petri/structure.h"
#include "stg/coding.h"
#include "stg/state_graph.h"
#include "synth/synthesize.h"
#include "util/error.h"
#include "workloads.h"

namespace cipbench {

using namespace cipnet;

namespace {

/// The paper's blocks, built once per setup.
struct PaperBlocks {
  Circuit sender = models::sender();
  Circuit translator = models::translator();
  Circuit receiver = models::receiver();
  Circuit inconsistent = models::sender_inconsistent();
  Circuit restricted = models::sender_restricted();
  Stg sender_stg = sender.to_stg();
  Stg translator_stg = translator.to_stg();
  Stg receiver_stg = receiver.to_stg();
  Stg restricted_stg = restricted.to_stg();
};

/// Every verdict and count one design produced, in a fixed order; a
/// design must produce the same output every time it runs.
struct DesignOutput {
  std::vector<std::int64_t> values;
  std::uint64_t sync_checked = 0;
  std::uint64_t failures = 0;
  std::uint64_t literals = 0;
  std::uint64_t dead_removed = 0;
  /// Links whose composition is a live marked graph, with the
  /// reachability-based verdict.
  std::vector<std::pair<std::size_t, bool>> marked_graph_links;
  /// Answers that contradict a reference computed in the same run.
  std::vector<std::string> problems;
  /// Fig 9(b) only: the simplified translator, for the language checks.
  std::optional<Circuit> simplified;

  void add(std::int64_t v) { values.push_back(v); }
  void expect(bool ok, const std::string& why) {
    if (!ok) problems.push_back(why);
  }
};

class FlowRunner {
 public:
  FlowRunner(const PaperBlocks& paper, SpanLog& log) : paper_(paper), log_(log) {}

  DesignOutput run(const FlowDesign& design) {
    DesignOutput out;
    switch (design.kind) {
      case FlowDesign::Kind::kGenerated:
        generated(design.generated, out);
        break;
      case FlowDesign::Kind::kCElement:
        stg_flow(design.c_element, out);
        out.expect(out.literals == 3 * design.inputs,
                   design.name + ": expected " +
                       std::to_string(3 * design.inputs) + " literals, got " +
                       std::to_string(out.literals));
        break;
      case FlowDesign::Kind::kPaper:
        paper(design.paper, out);
        break;
    }
    return out;
  }

 private:
  void generated(const GeneratedDesign& g, DesignOutput& out) {
    log_.span("cip.validate", [&] { g.cip.validate(); });
    std::vector<Stg> stgs;
    std::vector<Circuit> circuits;
    for (ModuleId m : g.cip.all_modules()) {
      log_.span("cip.expand", [&] {
        stgs.push_back(g.cip.expand_module(m));
        circuits.push_back(Circuit::from_stg(g.cip.module(m).name, stgs.back()));
      });
    }
    const Stg composed =
        log_.span("cip.expanded_composition",
                  [&] { return g.cip.expanded_composition(); });
    out.add(static_cast<std::int64_t>(composed.net().place_count()));
    out.add(static_cast<std::int64_t>(composed.net().transition_count()));

    for (std::size_t l = 0; l < g.links.size(); ++l) {
      const Circuit& sender = circuits[g.links[l].sender.index()];
      const Circuit& receiver = circuits[g.links[l].receiver.index()];
      // The structural check needs a live marked-graph composition.
      const bool marked_graph = log_.span("circuit.compose", [&] {
        const ComposeResult pair = compose(sender, receiver);
        return is_marked_graph(pair.circuit.net()) &&
               mg_is_live(pair.circuit.net());
      });
      const ReceptivenessReport report = log_.span(
          "circuit.receptive",
          [&] { return check_receptiveness(sender, receiver); });
      receptiveness(report, out);
      if (marked_graph) {
        const ReceptivenessReport structural =
            log_.span("circuit.receptive_structural", [&] {
              return check_receptiveness_structural(sender, receiver);
            });
        out.expect(structural.receptive() == report.receptive(),
                   "channel " + g.links[l].channel +
                       ": structural and reachability receptiveness disagree");
        out.marked_graph_links.push_back({l, report.receptive()});
      }
      const SimplifyResult simplified = log_.span(
          "circuit.simplify", [&] { return simplify_against(receiver, sender); });
      simplify_stats(simplified.stats, out);
    }
    for (const Stg& stg : stgs) stg_flow(stg, out);
  }

  void paper(PaperDesign design, DesignOutput& out) {
    switch (design) {
      case PaperDesign::kStack: {
        log_.span("circuit.compose", [&] {
          const ComposeResult st = compose(paper_.sender, paper_.translator);
          return compose(st.circuit, paper_.receiver);
        });
        for (const auto& [left, right] :
             {std::pair{&paper_.sender, &paper_.translator},
              std::pair{&paper_.translator, &paper_.receiver}}) {
          const ReceptivenessReport report = log_.span(
              "circuit.receptive", [&] { return check_receptiveness(*left, *right); });
          receptiveness(report, out);
          out.expect(report.receptive(), "Figs 4-7: " + left->name() + " -> " +
                                             right->name() + " not receptive");
        }
        break;
      }
      case PaperDesign::kFig8: {
        const ReceptivenessReport report = log_.span("circuit.receptive", [&] {
          return check_receptiveness(paper_.inconsistent, paper_.translator);
        });
        receptiveness(report, out);
        out.expect(!report.receptive(), "Fig 8: inconsistent sender passed");
        break;
      }
      case PaperDesign::kFig9Translator: {
        SimplifyResult result = log_.span("circuit.simplify", [&] {
          return simplify_against(paper_.translator, paper_.restricted);
        });
        simplify_stats(result.stats, out);
        out.simplified = std::move(result.simplified);
        break;
      }
      case PaperDesign::kFig9Receiver: {
        const ComposeResult env = log_.span("circuit.compose", [&] {
          return compose(paper_.restricted, paper_.translator);
        });
        const SimplifyResult result = log_.span("circuit.simplify", [&] {
          return simplify_against(paper_.receiver, env.circuit);
        });
        simplify_stats(result.stats, out);
        break;
      }
      case PaperDesign::kSenderStg:
        stg_flow(paper_.sender_stg, out);
        break;
      case PaperDesign::kTranslatorStg:
        stg_flow(paper_.translator_stg, out);
        break;
      case PaperDesign::kReceiverStg:
        stg_flow(paper_.receiver_stg, out);
        break;
      case PaperDesign::kRestrictedStg:
        stg_flow(paper_.restricted_stg, out);
        break;
    }
  }

  void stg_flow(const Stg& stg, DesignOutput& out) {
    const auto initial = log_.span("stg.initial_encoding",
                                   [&] { return infer_initial_encoding(stg); });
    out.add(initial.has_value());
    if (!initial) return;
    const StateGraph sg = log_.span(
        "stg.state_graph", [&] { return build_state_graph(stg, *initial); });
    std::vector<std::string> outputs = stg.signal_names(SignalKind::kOutput);
    for (const std::string& s : stg.signal_names(SignalKind::kInternal)) {
      outputs.push_back(s);
    }
    const CodingReport coding =
        log_.span("stg.coding", [&] { return check_coding(sg, outputs); });
    out.add(static_cast<std::int64_t>(sg.state_count()));
    out.add(sg.is_consistent());
    out.add(static_cast<std::int64_t>(coding.conflicts.size()));
    out.add(static_cast<std::int64_t>(coding.csc_count()));
    if (coding.has_csc_violation()) return;
    try {
      const SynthesisResult result =
          log_.span("synth.qm", [&] { return synthesize(sg, outputs); });
      out.literals += result.total_literals();
      out.add(static_cast<std::int64_t>(result.total_literals()));
    } catch (const SemanticError&) {
      out.add(-1);  // a conflict the coding check does not see: a verdict
    }
  }

  static void receptiveness(const ReceptivenessReport& report,
                            DesignOutput& out) {
    out.sync_checked += report.checked_transitions;
    out.failures += report.failures.size();
    out.add(static_cast<std::int64_t>(report.checked_transitions));
    out.add(static_cast<std::int64_t>(report.failures.size()));
  }

  static void simplify_stats(const SimplifyStats& stats, DesignOutput& out) {
    out.dead_removed += stats.dead_transitions_removed;
    out.add(static_cast<std::int64_t>(stats.places_after));
    out.add(static_cast<std::int64_t>(stats.transitions_after));
    out.add(static_cast<std::int64_t>(stats.dead_transitions_removed));
  }

  const PaperBlocks& paper_;
  SpanLog& log_;
};

/// Runs designs round-robin; every output is compared with the design's
/// first output, whose own reference checks are applied once.
class FlowLoop {
 public:
  FlowLoop(const std::vector<FlowDesign>& designs, const PaperBlocks& paper,
           Outcome& out)
      : designs_(designs), paper_(paper), out_(out), first_(designs.size()) {}

  /// Runs whole rounds over every design until `seconds` have passed (at
  /// least one round).
  Window run(double seconds, SpanLog& log) {
    FlowRunner runner(paper_, log);
    return run_rounds(
        designs_.size(), seconds, "flow.design", log, out_,
        [&](std::size_t i) {
          check(i, runner.run(designs_[i]));
          return 1.0;
        },
        [&](std::size_t i) { return designs_[i].name; });
  }

  /// First outputs, by design index (unset for designs never run).
  [[nodiscard]] const std::vector<std::optional<DesignOutput>>& first() const {
    return first_;
  }

 private:
  void check(std::size_t i, DesignOutput output) {
    if (!first_[i]) {
      for (const std::string& problem : output.problems) out_.fail(problem);
      first_[i] = std::move(output);
      return;
    }
    out_.expect(output.values == first_[i]->values,
                designs_[i].name + ": answer changed between rounds");
  }

  const std::vector<FlowDesign>& designs_;
  const PaperBlocks& paper_;
  Outcome& out_;
  std::vector<std::optional<DesignOutput>> first_;
};

/// The composition of the expanded modules with each module's dummies
/// renamed apart, so that they interleave instead of synchronizing.
PetriNet composition_with_private_dummies(const CipNetwork& cip) {
  PetriNet composed;
  for (ModuleId m : cip.all_modules()) {
    const PetriNet net = cip.expand_module(m).net();
    const std::string dummy = std::string(kEpsilonLabel) + "." +
                              std::to_string(m.index());
    PetriNet renamed;
    for (PlaceId p : net.all_places()) {
      renamed.add_place(net.place(p).name, net.initial_marking()[p]);
    }
    for (TransitionId t : net.all_transitions()) {
      const auto& tr = net.transition(t);
      const std::string& label = net.transition_label(t);
      renamed.add_transition(tr.preset,
                             is_epsilon_label(label) ? dummy : label,
                             tr.postset, tr.guard);
    }
    for (const std::string& label : net.alphabet()) {
      if (!is_epsilon_label(label)) renamed.add_action(label);
    }
    composed = m.index() == 0 ? renamed : parallel_net(composed, renamed);
  }
  return composed;
}

Dfa local_language(const PetriNet& net, const std::vector<std::string>& kept) {
  return minimize(determinize(project_labels(nfa_of_net(net), kept)));
}

/// Reference checks too costly for the timed loop, run once per design
/// after it. With `count_defects` it also counts two known disagreements
/// of library routines with their references (README.md, "Known
/// defects"), which are observations, not failures.
void check_references(const std::vector<FlowDesign>& designs,
                      const std::vector<std::optional<DesignOutput>>& first,
                      bool count_defects, Outcome& out) {
  double lang_mismatches = 0, reduced_mismatches = 0;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const FlowDesign& design = designs[i];
    if (!first[i]) continue;
    ++out.attempted;
    try {
      if (design.kind == FlowDesign::Kind::kGenerated) {
        const GeneratedDesign& g = design.generated;
        // §3: the expansion keeps the abstract behaviour on the local
        // signals.
        const Dfa abstract =
            local_language(g.cip.abstract_composition(), g.local_labels);
        out.expect(equivalent(local_language(
                                  composition_with_private_dummies(g.cip),
                                  g.local_labels),
                              abstract),
                   design.name + ": expanded and abstract languages differ");
        if (!count_defects) continue;
        if (!equivalent(local_language(g.cip.expanded_composition().net(),
                                       g.local_labels),
                        abstract)) {
          ++lang_mismatches;
        }
        for (const auto& [l, receptive] : first[i]->marked_graph_links) {
          const Link& link = g.links[l];
          const Circuit sender =
              Circuit::from_stg("s", g.cip.expand_module(link.sender));
          const Circuit receiver =
              Circuit::from_stg("r", g.cip.expand_module(link.receiver));
          if (check_receptiveness_reduced(sender, receiver).receptive() !=
              receptive) {
            ++reduced_mismatches;
          }
        }
      } else if (design.kind == FlowDesign::Kind::kPaper &&
                 design.paper == PaperDesign::kFig9Translator) {
        const Dfa simplified = canonical_language(
            first[i]->simplified->net(), {std::string(kEpsilonLabel)});
        const Dfa original = canonical_language(
            models::translator().net(), {std::string(kEpsilonLabel)});
        out.expect(!simplified.accepts({"d="}),
                   "Fig 9(b): simplified translator samples DATA");
        out.expect(!simplified.accepts({"p0+", "q1+"}) &&
                       !simplified.accepts({"q1+", "p0+"}),
                   "Fig 9(b): simplified translator can send mute");
        out.expect(!subset_witness(simplified, original),
                   "Fig 9(b): L(simplified) is not within L(original)");
      }
    } catch (const std::exception& e) {
      out.fail(design.name + " reference: " + e.what());
    }
  }
  if (count_defects) {
    out.metrics.set("cip.lang_mismatches", lang_mismatches, "count");
    out.metrics.set("circuit.reduced_mismatches", reduced_mismatches, "count");
  }
}

}  // namespace

Outcome run_flow(const RunConfig& config) {
  Outcome out;
  std::vector<FlowDesign> designs;
  std::optional<PaperBlocks> paper;
  const double setup_s = timed_setup(5, [&](SetupTimer&) {
    Rng rng(config.seed);
    designs = flow_designs(rng);
    paper.emplace();
  });
  FlowLoop loop(designs, *paper, out);

  if (!config.trace) {
    SpanLog off(false);
    const Window window = loop.run(config.seconds, off);
    report_end_to_end(out, setup_s, window, peak_rss_mb());
  } else {
    // Half the time untraced, then traced: the two rates give the tracing
    // overhead, the traced rounds the per-layer split.
    SpanLog off(false);
    const double untraced_rate = loop.run(config.seconds / 2, off).rate();
    SpanLog log(true);
    const Window traced = loop.run(config.seconds / 2, log);
    report_trace_overhead(out, untraced_rate, traced.rate());
    report_spans(out, log, traced.rounds, traced.seconds);
    // Counts over one round of the 64 designs; they repeat exactly.
    double sync_checked = 0, failures = 0, literals = 0, dead_removed = 0;
    for (const auto& first : loop.first()) {
      if (!first) continue;  // the design threw: already counted as failed
      sync_checked += first->sync_checked;
      failures += first->failures;
      literals += first->literals;
      dead_removed += first->dead_removed;
    }
    out.metrics.set("circuit.sync_checked", sync_checked, "count");
    out.metrics.set("circuit.failures", failures, "count");
    out.metrics.set("circuit.dead_removed", dead_removed, "count");
    out.metrics.set("synth.literals", literals, "count");
    log.write_jsonl(config.bin_dir + "/trace-flow.jsonl");
  }
  check_references(designs, loop.first(), config.trace, out);
  return out;
}

}  // namespace cipbench
