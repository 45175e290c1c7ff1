#pragma once

// Seeded input generators. Every input a workload measures is built here
// from the run's seed, before timing starts: the same seed gives the same
// inputs. The seed picks names, orders and the per-channel choices inside
// a fixed grid of shapes and sizes, so the amount of work per run does not
// depend on it.

#include <cstdint>
#include <string>
#include <vector>

#include "cip/cip.h"
#include "petri/net.h"
#include "stg/stg.h"

namespace cipbench {

/// SplitMix64: small, fast and the same on every platform (the standard
/// library's distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();
  /// Uniform in [0, n), n > 0.
  std::size_t below(std::size_t n);
  /// A short lowercase identifier, e.g. "kq".
  std::string tag();

  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

// ----- flow ---------------------------------------------------------------

enum class Topology { kPipeline, kRing, kForkJoin };

/// One channel of a generated design and the modules it joins.
struct Link {
  std::string channel;
  cipnet::ModuleId sender;
  cipnet::ModuleId receiver;
};

/// A generated CIP network (Definition 3.1): every module loops over its
/// receives, a rise of its local signal, its sends, and the fall (4-phase)
/// or one toggle of the local signal (2-phase).
struct GeneratedDesign {
  cipnet::CipNetwork cip;
  std::vector<Link> links;
  /// The local signals' edge labels: the alphabet on which §3 says the
  /// expanded and the abstract composition have the same language.
  std::vector<std::string> local_labels;
};

/// The paper's designs in the flow mix.
enum class PaperDesign {
  kStack,             // Figs 4-7: sender || translator || receiver
  kFig8,              // Fig 8: inconsistent sender against the translator
  kFig9Translator,    // Fig 9(b): translator simplified against the
                      // restricted sender
  kFig9Receiver,      // Fig 9(c): receiver simplified against both
  kSenderStg,         // state graph, coding and synthesis per block
  kTranslatorStg,
  kReceiverStg,
  kRestrictedStg,
};

struct FlowDesign {
  enum class Kind { kGenerated, kCElement, kPaper };
  Kind kind = Kind::kGenerated;
  std::string name;
  GeneratedDesign generated;  // kGenerated
  std::size_t inputs = 0;     // kCElement
  cipnet::Stg c_element;      // kCElement
  PaperDesign paper = PaperDesign::kStack;  // kPaper
};

/// The 64-design flow list in seeded order: 48 generated CIP networks
/// (pipeline, ring and fork-join, four sizes each, 2- and 4-phase,
/// control-only or mixed data encodings), 8 C-elements and the 8 paper
/// designs.
[[nodiscard]] std::vector<FlowDesign> flow_designs(Rng& rng);

/// An n-input Muller C-element controller: all inputs rise, c+, all
/// inputs fall, c-. Place names start with `place_prefix`.
[[nodiscard]] cipnet::Stg c_element(std::size_t n,
                                    const std::string& place_prefix);

// ----- explore and serve --------------------------------------------------

/// The expanded 4-phase composition of the N-stage pipeline of
/// examples/pipeline_factory.cpp: stage i receives a job on channel i-1,
/// works and passes it on. Place names start with `place_prefix`.
[[nodiscard]] cipnet::PetriNet cip_pipeline(std::size_t stages,
                                            const std::string& place_prefix);

/// The wire labels of the pipeline's channels: what `hide` contracts.
[[nodiscard]] std::vector<std::string> pipeline_channel_labels(
    std::size_t stages);

/// N two-place cycles in parallel, composed in seeded order: 2^N states,
/// N * 2^N edges, 1-safe.
[[nodiscard]] cipnet::PetriNet independent_cycles(std::size_t n, Rng& rng);

/// A k-place ring holding j tokens, all on place `start`: C(k+j-1, j)
/// states and k * C(k+j-2, j-1) edges, live and j-bounded.
[[nodiscard]] cipnet::PetriNet token_ring(std::size_t places,
                                          std::size_t tokens,
                                          std::size_t start,
                                          const std::string& prefix);

/// A copy of `net` whose place names carry `prefix`; same ids, labels and
/// arcs.
[[nodiscard]] cipnet::PetriNet with_place_prefix(const cipnet::PetriNet& net,
                                                 const std::string& prefix);

/// One kind of serve request: the op, its size (pipeline stages or
/// C-element inputs) and its `.cpn`/`.g` text split where each request's
/// unique place prefix goes.
struct RequestTemplate {
  std::string op;  // reach | cover | hide | synth
  std::size_t size = 0;
  std::vector<std::string> pieces;
  std::vector<std::string> labels;  // hide only
};

/// The serve mix as one block of 25 request kinds: 40% `reach` on 3-7
/// stage pipelines (each size twice), 20% `cover` on 2-6 stages, 20%
/// `hide` of the channel wires on 3-7 stages, 20% `synth` on C-elements
/// with 4-8 inputs.
[[nodiscard]] std::vector<RequestTemplate> serve_mix();

/// At least `count` indices into a mix of `block` request kinds: whole
/// blocks, each in its own seeded order, so every run of whole blocks
/// holds the same work.
[[nodiscard]] std::vector<std::size_t> mix_order(Rng& rng, std::size_t block,
                                                 std::size_t count);

/// The request line (JSON, no newline) for `t` with id `id`, every place
/// name prefixed with `prefix`.
[[nodiscard]] std::string stamp_request(const RequestTemplate& t,
                                        std::uint64_t id,
                                        const std::string& prefix);

}  // namespace cipbench
