#include "generators.h"

#include <optional>

#include "algebra/parallel.h"
#include "io/astg.h"
#include "io/net_format.h"
#include "util/json_writer.h"

namespace cipbench {

using namespace cipnet;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t Rng::below(std::size_t n) { return next() % n; }

std::string Rng::tag() {
  std::string out;
  for (int i = 0; i < 3; ++i) out += static_cast<char>('a' + below(26));
  return out;
}

namespace {

/// Stands in for each serve request's unique place prefix in a template.
constexpr std::string_view kPlaceholder = "QZQ";

enum class Wires { kControl, kDualRail, kOneHot, kTwoOfFour };

std::optional<DataEncoding> encoding(Wires wires, const std::string& prefix) {
  switch (wires) {
    case Wires::kControl:
      return std::nullopt;
    case Wires::kDualRail:
      return DataEncoding::dual_rail(2, prefix);  // 4 values, 2 of 4 wires
    case Wires::kOneHot:
      return DataEncoding::one_hot(3, prefix);  // 3 values on 3 wires
    case Wires::kTwoOfFour:
      return DataEncoding::m_of_n(2, 4, prefix);  // 6 values on 4 wires
  }
  return std::nullopt;
}

GeneratedDesign generate_design(Topology topology, std::size_t modules,
                                HandshakeStyle style, bool data, Rng& rng) {
  const std::string d = rng.tag();
  std::vector<std::pair<std::size_t, std::size_t>> ends;
  switch (topology) {
    case Topology::kPipeline:
      for (std::size_t i = 0; i + 1 < modules; ++i) ends.push_back({i, i + 1});
      break;
    case Topology::kRing:
      for (std::size_t i = 0; i < modules; ++i) {
        ends.push_back({i, (i + 1) % modules});
      }
      break;
    case Topology::kForkJoin:
      for (std::size_t i = 1; i + 1 < modules; ++i) ends.push_back({0, i});
      for (std::size_t i = 1; i + 1 < modules; ++i) {
        ends.push_back({i, modules - 1});
      }
      break;
  }

  // Mixed designs alternate data and control channels, the data ones
  // cycling through the three encodings. The choice is by position, so a
  // design's cost does not depend on the seed (all values of one encoding
  // raise equally many wires), and no module gets so many data wires that
  // it alone dominates a round.
  std::vector<Wires> wires(ends.size(), Wires::kControl);
  if (data) {
    constexpr Wires kCycle[] = {Wires::kDualRail,  Wires::kControl,
                                Wires::kOneHot,    Wires::kControl,
                                Wires::kTwoOfFour, Wires::kControl};
    for (std::size_t c = 0; c < wires.size(); ++c) wires[c] = kCycle[c % 6];
  }
  std::vector<std::string> channels;
  std::vector<std::optional<DataEncoding>> encodings;
  for (std::size_t c = 0; c < ends.size(); ++c) {
    channels.push_back(d + "c" + std::to_string(c));
    encodings.push_back(encoding(wires[c], channels.back() + "_"));
  }

  GeneratedDesign g;
  const bool four_phase = style == HandshakeStyle::kFourPhase;
  std::vector<ModuleId> ids;
  for (std::size_t m = 0; m < modules; ++m) {
    const std::string name = d + "m" + std::to_string(m);
    const std::string x = name + "x";
    std::vector<std::string> receives, sends;
    for (std::size_t c = 0; c < ends.size(); ++c) {
      if (ends[c].second == m) receives.push_back(receive_label(channels[c]));
      if (ends[c].first == m) {
        std::optional<std::size_t> value;
        if (encodings[c]) value = rng.below(encodings[c]->value_count());
        sends.push_back(send_label(channels[c], value));
      }
    }
    const std::string up = x + (four_phase ? "+" : "~");
    std::vector<std::string> steps;
    auto local = [&] {
      steps.push_back(up);
      steps.insert(steps.end(), sends.begin(), sends.end());
      if (four_phase) steps.push_back(x + "-");
    };
    // A ring needs one module that sends before it receives.
    if (topology == Topology::kRing && m == 0) {
      local();
      steps.insert(steps.end(), receives.begin(), receives.end());
    } else {
      steps = receives;
      local();
    }
    PetriNet net;
    // A sender declares every value of its data channels, as the
    // expansion puts every wire in its alphabet: in the abstract
    // composition a value no sender offers must block, not fire freely.
    for (std::size_t c = 0; c < ends.size(); ++c) {
      if (ends[c].first != m || !encodings[c]) continue;
      for (std::size_t v = 0; v < encodings[c]->value_count(); ++v) {
        net.add_action(send_label(channels[c], v));
      }
    }
    std::vector<PlaceId> places;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      places.push_back(
          net.add_place(name + "p" + std::to_string(s), s == 0 ? 1 : 0));
    }
    for (std::size_t s = 0; s < steps.size(); ++s) {
      net.add_transition({places[s]}, steps[s],
                         {places[(s + 1) % steps.size()]});
    }
    ids.push_back(g.cip.add_module(name, std::move(net), {}, {x}));
    g.local_labels.push_back(up);
    if (four_phase) g.local_labels.push_back(x + "-");
  }
  for (std::size_t c = 0; c < ends.size(); ++c) {
    g.cip.add_channel(channels[c], ids[ends[c].first], ids[ends[c].second],
                      encodings[c], style);
    g.links.push_back(Link{channels[c], ids[ends[c].first],
                           ids[ends[c].second]});
  }
  return g;
}

std::vector<std::string> split(const std::string& text,
                               std::string_view separator) {
  std::vector<std::string> pieces;
  std::size_t from = 0;
  for (std::size_t at; (at = text.find(separator, from)) != std::string::npos;
       from = at + separator.size()) {
    pieces.push_back(text.substr(from, at - from));
  }
  pieces.push_back(text.substr(from));
  return pieces;
}

}  // namespace

std::vector<FlowDesign> flow_designs(Rng& rng) {
  std::vector<FlowDesign> designs;
  // Module counts per topology; larger fork-joins give one module so many
  // concurrent channels that a single design dominates a round.
  const struct {
    Topology topology;
    const char* name;
    std::size_t smallest, largest;
  } shapes[] = {{Topology::kPipeline, "pipeline", 2, 6},
                {Topology::kRing, "ring", 2, 5},
                {Topology::kForkJoin, "forkjoin", 3, 5}};
  for (const auto& [topology, topology_name, smallest, largest] : shapes) {
    for (std::size_t modules = smallest; modules <= largest; ++modules) {
      for (HandshakeStyle style :
           {HandshakeStyle::kFourPhase, HandshakeStyle::kTwoPhase}) {
        for (bool data : {false, true}) {
          FlowDesign design;
          design.kind = FlowDesign::Kind::kGenerated;
          design.name = std::string(topology_name) + std::to_string(modules) +
                        (style == HandshakeStyle::kFourPhase ? "/4ph" : "/2ph") +
                        (data ? "/data" : "/control");
          design.generated = generate_design(topology, modules, style, data, rng);
          designs.push_back(std::move(design));
        }
      }
    }
  }
  for (std::size_t n : {3, 4, 5, 6, 7, 8, 7, 8}) {
    FlowDesign design;
    design.kind = FlowDesign::Kind::kCElement;
    design.name = "celement" + std::to_string(n);
    design.inputs = n;
    design.c_element = c_element(n, rng.tag() + "_");
    designs.push_back(std::move(design));
  }
  const std::pair<PaperDesign, const char*> papers[] = {
      {PaperDesign::kStack, "fig4-7/stack"},
      {PaperDesign::kFig8, "fig8/inconsistent"},
      {PaperDesign::kFig9Translator, "fig9b/translator"},
      {PaperDesign::kFig9Receiver, "fig9c/receiver"},
      {PaperDesign::kSenderStg, "fig5/sender.stg"},
      {PaperDesign::kTranslatorStg, "fig7/translator.stg"},
      {PaperDesign::kReceiverStg, "fig6/receiver.stg"},
      {PaperDesign::kRestrictedStg, "fig9a/restricted.stg"}};
  for (const auto& [paper, name] : papers) {
    FlowDesign design;
    design.kind = FlowDesign::Kind::kPaper;
    design.name = name;
    design.paper = paper;
    designs.push_back(std::move(design));
  }
  rng.shuffle(designs);
  return designs;
}

Stg c_element(std::size_t n, const std::string& place_prefix) {
  Stg stg;
  for (std::size_t i = 0; i < n; ++i) {
    stg.add_signal("i" + std::to_string(i), SignalKind::kInput);
  }
  stg.add_signal("c", SignalKind::kOutput);
  // Per input: low (marked), risen, high, fallen.
  std::vector<std::vector<PlaceId>> p(4);
  for (std::size_t phase = 0; phase < 4; ++phase) {
    for (std::size_t i = 0; i < n; ++i) {
      p[phase].push_back(stg.add_place(place_prefix + "i" + std::to_string(i) +
                                           "_" + std::to_string(phase),
                                       phase == 0 ? 1 : 0));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::string s = "i" + std::to_string(i);
    stg.add_edge_transition({p[0][i]}, s, EdgeType::kRise, {p[1][i]});
    stg.add_edge_transition({p[2][i]}, s, EdgeType::kFall, {p[3][i]});
  }
  stg.add_edge_transition(p[1], "c", EdgeType::kRise, p[2]);
  stg.add_edge_transition(p[3], "c", EdgeType::kFall, p[0]);
  return stg;
}

PetriNet cip_pipeline(std::size_t stages, const std::string& place_prefix) {
  CipNetwork cip;
  std::vector<ModuleId> modules;
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string m = "m" + std::to_string(i);
    const std::string work = "work" + std::to_string(i);
    PetriNet stage;
    PlaceId idle = stage.add_place(m + "_idle", 1);
    PlaceId busy = stage.add_place(m + "_busy", 0);
    PlaceId done = stage.add_place(m + "_done", 0);
    // The first stage generates jobs; the others receive them.
    stage.add_transition(
        {idle}, i == 0 ? work + "~" : receive_label("ch" + std::to_string(i - 1)),
        {busy});
    stage.add_transition({busy}, work + "+", {done});
    std::vector<std::string> outputs{work};
    if (i + 1 == stages) {
      stage.add_transition({done}, "ship~", {idle});
      outputs.push_back("ship");
    } else {
      stage.add_transition({done}, send_label("ch" + std::to_string(i)), {idle});
    }
    modules.push_back(cip.add_module("stage" + std::to_string(i),
                                     std::move(stage), {}, outputs));
  }
  for (std::size_t i = 0; i + 1 < stages; ++i) {
    cip.add_channel("ch" + std::to_string(i), modules[i], modules[i + 1]);
  }
  return with_place_prefix(cip.expanded_composition().net(), place_prefix);
}

std::vector<std::string> pipeline_channel_labels(std::size_t stages) {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i + 1 < stages; ++i) {
    const std::string ch = "ch" + std::to_string(i);
    for (const char* edge : {"_r+", "_r-", "_a+", "_a-"}) {
      labels.push_back(ch + edge);
    }
  }
  return labels;
}

namespace {

PetriNet two_cycle(const std::string& prefix) {
  PetriNet net;
  PlaceId p0 = net.add_place(prefix + "p0", 1);
  PlaceId p1 = net.add_place(prefix + "p1", 0);
  net.add_transition({p0}, prefix + "a0", {p1});
  net.add_transition({p1}, prefix + "a1", {p0});
  return net;
}

}  // namespace

PetriNet independent_cycles(std::size_t n, Rng& rng) {
  const std::string t = rng.tag();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  PetriNet net = two_cycle(t + std::to_string(order[0]) + "_");
  for (std::size_t i = 1; i < n; ++i) {
    net = parallel_net(net, two_cycle(t + std::to_string(order[i]) + "_"));
  }
  return net;
}

PetriNet token_ring(std::size_t places, std::size_t tokens, std::size_t start,
                    const std::string& prefix) {
  PetriNet net;
  std::vector<PlaceId> ring;
  for (std::size_t i = 0; i < places; ++i) {
    ring.push_back(net.add_place(prefix + "p" + std::to_string(i),
                                 i == start ? static_cast<Token>(tokens) : 0));
  }
  for (std::size_t i = 0; i < places; ++i) {
    net.add_transition({ring[i]}, prefix + "t" + std::to_string(i),
                       {ring[(i + 1) % places]});
  }
  return net;
}

PetriNet with_place_prefix(const PetriNet& net, const std::string& prefix) {
  PetriNet out;
  for (PlaceId p : net.all_places()) {
    out.add_place(prefix + net.place(p).name, net.initial_marking()[p]);
  }
  for (std::size_t a = 0; a < net.action_count(); ++a) {
    out.add_action(net.label(ActionId(static_cast<std::uint32_t>(a))));
  }
  for (TransitionId t : net.all_transitions()) {
    const auto& tr = net.transition(t);
    out.add_transition(tr.preset, tr.action, tr.postset, tr.guard);
  }
  return out;
}

std::vector<RequestTemplate> serve_mix() {
  const std::string placeholder(kPlaceholder);
  std::vector<RequestTemplate> mix;
  for (int copy = 0; copy < 2; ++copy) {
    for (std::size_t stages = 3; stages <= 7; ++stages) {
      mix.push_back({"reach", stages,
                     split(write_net(cip_pipeline(stages, placeholder)),
                           kPlaceholder),
                     {}});
    }
  }
  // Karp-Miller trees grow much faster than the reachability graph: 7
  // stages take a second, 8 stages half a minute.
  for (std::size_t stages = 2; stages <= 6; ++stages) {
    mix.push_back({"cover", stages,
                   split(write_net(cip_pipeline(stages, placeholder)),
                         kPlaceholder),
                   {}});
  }
  for (std::size_t stages = 3; stages <= 7; ++stages) {
    mix.push_back({"hide", stages,
                   split(write_net(cip_pipeline(stages, placeholder)),
                         kPlaceholder),
                   pipeline_channel_labels(stages)});
  }
  for (std::size_t n = 4; n <= 8; ++n) {
    mix.push_back(
        {"synth", n, split(write_astg(c_element(n, placeholder)), kPlaceholder),
         {}});
  }
  return mix;
}

std::vector<std::size_t> mix_order(Rng& rng, std::size_t block,
                                   std::size_t count) {
  std::vector<std::size_t> order;
  while (order.size() < count) {
    std::vector<std::size_t> next(block);
    for (std::size_t i = 0; i < block; ++i) next[i] = i;
    rng.shuffle(next);
    order.insert(order.end(), next.begin(), next.end());
  }
  return order;
}

std::string stamp_request(const RequestTemplate& t, std::uint64_t id,
                          const std::string& prefix) {
  std::string text = t.pieces.front();
  for (std::size_t i = 1; i < t.pieces.size(); ++i) {
    text += prefix;
    text += t.pieces[i];
  }
  json::Writer w;
  w.begin_object();
  w.member("id", id);
  w.member("op", t.op);
  w.member(t.op == "synth" ? "stg" : "net", text);
  if (t.op == "hide") {
    w.key("labels").begin_array();
    for (const std::string& label : t.labels) w.value(label);
    w.end_array();
  }
  w.end_object();
  return w.take();
}

}  // namespace cipbench
