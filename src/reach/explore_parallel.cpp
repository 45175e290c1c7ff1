// Multi-threaded reachability exploration (ReachOptions.threads > 1).
//
// Architecture:
//  * The marking set is sharded: `kShardCount` independent
//    store+interner pairs, each behind its own mutex. The shard of a
//    marking is a function of its row hash (top bits — the interner probes
//    with the low bits, so shard membership does not skew the probe
//    sequence). Workers only contend when two of them intern into the same
//    shard at the same instant.
//  * Work distribution: a shared FIFO of `WorkItem`s (one discovered,
//    unexpanded state plus its delta-maintained enabled set). Workers pop
//    one item, expand it against worker-local scratch buffers, and hand the
//    batch of freshly discovered states back in a single critical section.
//    `pending` counts discovered-but-unexpanded states; it reaching zero is
//    the termination signal.
//  * Limits and cancellation are cooperative: the first worker to trip
//    `max_states` or observe an expired `CancelToken` stores the exception
//    and raises the stop flag; everyone else drains and the main thread
//    rethrows.
//  * Determinism: workers record edges against schedule-dependent temporary
//    ids (shard, local). A final single-threaded renumbering pass walks the
//    finished graph breadth-first from the initial marking, visiting each
//    state's edges in ascending transition order — exactly the order the
//    sequential explorer discovers states in — and emits the canonical
//    `ReachabilityGraph`. The result is bit-identical to `threads == 1`
//    regardless of schedule, so golden tests and downstream consumers never
//    see nondeterministic state ids.
//  * The whole explorer is a template over the marking domain
//    (reach/engine.h): dense `Token` rows or packed one-bit-per-place
//    words. A packed worker that hits a 1-safety violation throws
//    `PackedUnsafe` through the regular error machinery; the `explore`
//    dispatcher reruns dense.

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "reach/engine.h"
#include "reach/reachability.h"
#include "util/error.h"
#include "util/fault.h"

namespace cipnet {

namespace {

CIPNET_FAULT_SITE(f_cancel, "reach.cancel");
const obs::Counter c_states("reach.states");
const obs::Counter c_edges("reach.edges");
const obs::Counter c_hash_lookups("reach.hash_lookups");
const obs::Gauge g_frontier_peak("reach.frontier_peak");
const obs::Gauge g_graph_bytes("reach.graph_bytes");
const obs::Gauge g_index_bytes("reach.index_bytes");
const obs::Histogram h_enabled("reach.enabled_per_state");

const obs::Gauge g_par_workers("reach.par.workers");
const obs::Counter c_par_handoffs("reach.par.handoffs");
const obs::Counter c_par_idle_waits("reach.par.idle_waits");
const obs::Counter c_par_renumbered("reach.par.renumbered");
const obs::Gauge g_par_queue_depth("reach.par.queue_depth");
const obs::Gauge g_par_pending("reach.par.pending");
const obs::Gauge g_par_shard_max("reach.par.shard_states_max");
const obs::Gauge g_par_imbalance("reach.par.imbalance_x1000");

/// Power of two; the shard index is the top 6 bits of the row hash.
constexpr std::size_t kShardCount = 64;
constexpr unsigned kShardShift = 58;

/// Upper bound on states popped per queue acquisition.
constexpr std::size_t kMaxBatch = 32;

/// Schedule-dependent temporary state id: shard in the high word, the
/// shard-local store index in the low word.
using TmpId = std::uint64_t;

constexpr TmpId make_tmp(std::size_t shard, std::uint32_t local) {
  return (static_cast<TmpId>(shard) << 32) | local;
}
constexpr std::size_t tmp_shard(TmpId id) {
  return static_cast<std::size_t>(id >> 32);
}
constexpr std::uint32_t tmp_local(TmpId id) {
  return static_cast<std::uint32_t>(id);
}

template <class Domain>
class ParallelExplorerT {
  using Cell = typename Domain::Cell;
  using Store = BasicMarkingStore<Cell>;
  using Interner = BasicMarkingInterner<Cell>;

 public:
  ParallelExplorerT(const Domain& dom, const PetriNet& net,
                    const ReachOptions& options)
      : dom_(dom), net_(net), options_(options), width_(dom.width) {
    const std::size_t hint = std::min(options.max_states,
                                      reach_detail::kReserveCap) /
                                 kShardCount +
                             1;
    for (Shard& shard : shards_) {
      shard.store.reset(width_);
      shard.store.reserve(hint);
      shard.index.reserve(hint);
    }
  }

  ReachabilityGraph run() {
    obs::Span span("reach.explore");
    const std::size_t workers =
        std::min<std::size_t>(options_.threads, kShardCount);
    g_par_workers.set(workers);

    seed_initial();
    std::vector<std::thread> pool;
    std::vector<WorkerOutput> outputs(workers);
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back(
          [this, &outputs, w, workers] { worker(outputs[w], workers); });
    }
    for (std::thread& t : pool) t.join();
    if (error_) std::rethrow_exception(error_);

    ReachabilityGraph rg = assemble(outputs);
    reach_detail::GraphAccess::set_truncated(
        rg, truncated_.load(std::memory_order_relaxed));
    if (obs::enabled()) {
      update_shard_gauges();
      g_graph_bytes.set(rg.estimated_graph_bytes());
      g_index_bytes.set(rg.estimated_index_bytes());
    }
    return rg;
  }

 private:
  struct Shard {
    std::mutex mu;
    Store store;
    Interner index;
  };

  struct WorkItem {
    TmpId id = 0;
    std::vector<TransitionId> enabled;
  };

  struct TmpEdge {
    TmpId from;
    TransitionId transition;
    TmpId to;
  };

  /// Edges recorded by one worker; merged single-threaded after the join.
  struct WorkerOutput {
    std::vector<TmpEdge> edges;
  };

  void seed_initial() {
    if (options_.max_states == 0) {
      throw LimitError("reachability exploration exceeded 0 states",
                       LimitContext{0, 0, 0});
    }
    std::vector<Cell> m0;
    dom_.initial_row(m0);
    const std::uint64_t hash = row_hash_cells(m0.data(), width_);
    const std::size_t shard = static_cast<std::size_t>(hash >> kShardShift);
    auto r = shards_[shard].index.intern_hashed(hash, m0.data(),
                                                shards_[shard].store);
    c_hash_lookups.add();
    c_states.add();
    shard_counts_[shard].store(1, std::memory_order_relaxed);
    state_count_.store(1, std::memory_order_relaxed);
    WorkItem item;
    item.id = make_tmp(shard, r.id);
    item.enabled = net_.enabled_transitions(net_.initial_marking());
    initial_tmp_ = item.id;
    queue_.push_back(std::move(item));
    pending_ = 1;
  }

  void worker(WorkerOutput& out, std::size_t workers) {
    std::vector<Cell> current;
    std::vector<Cell> scratch;
    std::vector<TransitionId> candidates;
    std::vector<WorkItem> batch;
    std::vector<WorkItem> fresh;
    for (;;) {
      batch.clear();
      {
        std::unique_lock<std::mutex> lk(queue_mu_);
        if (queue_.empty() && pending_ > 0 && !stop_) {
          c_par_idle_waits.add();
        }
        queue_cv_.wait(lk, [this] {
          return stop_ || !queue_.empty() || pending_ == 0;
        });
        if (stop_ || queue_.empty()) return;  // done or aborting
        // Grab a fair share of the frontier in one lock acquisition —
        // popping state-by-state would make the queue mutex the hot spot.
        std::size_t take =
            std::min<std::size_t>(kMaxBatch, queue_.size() / workers + 1);
        while (take-- > 0 && !queue_.empty()) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
      fresh.clear();
      bool ok = true;
      for (const WorkItem& item : batch) {
        if (stop_.load(std::memory_order_relaxed)) break;
        try {
          expand(item, out, current, scratch, candidates, fresh);
        } catch (...) {
          std::lock_guard<std::mutex> lk(queue_mu_);
          if (!error_) error_ = std::current_exception();
          stop_ = true;
          ok = false;
          break;
        }
      }
      {
        std::lock_guard<std::mutex> lk(queue_mu_);
        pending_ -= batch.size();
        if (ok) {
          pending_ += fresh.size();
          for (WorkItem& wi : fresh) queue_.push_back(std::move(wi));
          c_par_handoffs.add(fresh.size());
          g_frontier_peak.set_max(queue_.size());
        }
        g_par_queue_depth.set(queue_.size());
        g_par_pending.set(pending_);
        if (!ok || pending_ == 0 || stop_ || fresh.size() > 1) {
          queue_cv_.notify_all();
        } else if (!fresh.empty()) {
          queue_cv_.notify_one();
        }
      }
      if (!ok) return;
    }
  }

  /// Load-imbalance gauges from the per-shard interned-state counts:
  /// `reach.par.shard_states_max` and `reach.par.imbalance_x1000`
  /// (max/mean scaled by 1000; 1000 = perfectly balanced).
  void update_shard_gauges() const {
    std::uint64_t max = 0;
    std::uint64_t total = 0;
    for (const auto& count : shard_counts_) {
      const std::uint64_t states = count.load(std::memory_order_relaxed);
      max = std::max(max, states);
      total += states;
    }
    g_par_shard_max.set(max);
    if (total > 0) {
      g_par_imbalance.set(max * kShardCount * 1000 / total);
    }
  }

  /// Approximate live footprint from the two atomic counters: arena row +
  /// interner slot per state, edge log + final adjacency per edge. A
  /// budget guard, not an accountant — capacity slack is ignored.
  [[nodiscard]] std::size_t approx_bytes() const {
    const std::uint64_t states =
        state_count_.load(std::memory_order_relaxed);
    const std::uint64_t edges = edge_count_.load(std::memory_order_relaxed);
    return static_cast<std::size_t>(
        states * (width_ * sizeof(Cell) + 16 +
                  sizeof(std::vector<ReachabilityGraph::Edge>)) +
        edges * (sizeof(TmpEdge) + sizeof(ReachabilityGraph::Edge)));
  }

  /// Graceful-degradation stop: raise the stop flag without recording an
  /// error, so `run()` assembles the partial graph instead of rethrowing.
  void request_truncate() {
    truncated_.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(queue_mu_);
    stop_.store(true, std::memory_order_relaxed);
    queue_cv_.notify_all();
  }

  void expand(const WorkItem& item, WorkerOutput& out,
              std::vector<Cell>& current, std::vector<Cell>& scratch,
              std::vector<TransitionId>& candidates,
              std::vector<WorkItem>& fresh) {
    options_.cancel.check("reach.explore");
    if (CIPNET_FAULT_FIRES(f_cancel)) {
      throw Cancelled("reach.explore", options_.cancel.elapsed_ms(), false);
    }
    dom_.state_check();
    if (options_.max_graph_bytes != 0 &&
        approx_bytes() > options_.max_graph_bytes) {
      if (options_.truncate_on_limit) {
        request_truncate();
        return;
      }
      throw LimitError(
          "reachability exploration exceeded memory budget of " +
              std::to_string(options_.max_graph_bytes) + " bytes",
          LimitContext{state_count_.load(std::memory_order_relaxed),
                       edge_count_.load(std::memory_order_relaxed),
                       options_.max_graph_bytes});
    }
    {
      // Copy the row out under the shard lock: another worker interning
      // into this shard may grow the arena under us.
      Shard& shard = shards_[tmp_shard(item.id)];
      std::lock_guard<std::mutex> lk(shard.mu);
      const Cell* row = shard.store.row(tmp_local(item.id));
      current.assign(row, row + width_);
    }
    h_enabled.record(item.enabled.size());
    for (TransitionId t : item.enabled) {
      dom_.fire(current.data(), t, scratch);
      const std::uint64_t hash = row_hash_cells(scratch.data(), width_);
      const std::size_t shard_idx =
          static_cast<std::size_t>(hash >> kShardShift);
      typename Interner::Result r;
      {
        Shard& shard = shards_[shard_idx];
        std::lock_guard<std::mutex> lk(shard.mu);
        r = shard.index.intern_hashed(hash, scratch.data(), shard.store);
      }
      c_hash_lookups.add();
      const TmpId target = make_tmp(shard_idx, r.id);
      out.edges.push_back(TmpEdge{item.id, t, target});
      c_edges.add();
      if (r.fresh) {
        const std::uint64_t n =
            state_count_.fetch_add(1, std::memory_order_relaxed) + 1;
        c_states.add();
        shard_counts_[shard_idx].fetch_add(1, std::memory_order_relaxed);
        if (n > options_.max_states) {
          if (options_.truncate_on_limit) {
            request_truncate();
            return;
          }
          throw LimitError(
              "reachability exploration exceeded " +
                  std::to_string(options_.max_states) + " states",
              LimitContext{options_.max_states, 0, options_.max_states});
        }
        WorkItem wi;
        wi.id = target;
        reach_detail::delta_enabled_t(dom_, item.enabled, t, scratch.data(),
                                      wi.enabled, candidates);
        fresh.push_back(std::move(wi));
      }
    }
    edge_count_.fetch_add(item.enabled.size(), std::memory_order_relaxed);
  }

  /// Single-threaded: merge worker edge logs, renumber states into
  /// canonical (sequential-BFS) order, and build the final graph.
  ReachabilityGraph assemble(std::vector<WorkerOutput>& outputs) {
    // Per-tmp-state adjacency in CSR form: shard-local state `i` owns the
    // flat slice `[offsets[i], offsets[i+1])`. Each state was expanded by
    // exactly one worker, so its edges sit contiguously in that worker's
    // log in ascending-transition order (enabled sets are ascending), and
    // a counting pass + fill pass reproduces per-state order with no
    // per-state vectors and no sort.
    struct LocalEdge {
      TransitionId transition;
      TmpId to;
    };
    std::array<std::vector<std::uint32_t>, kShardCount> offsets;
    std::array<std::vector<LocalEdge>, kShardCount> adj;
    for (std::size_t s = 0; s < kShardCount; ++s) {
      offsets[s].assign(shards_[s].store.size() + 1, 0);
    }
    for (const WorkerOutput& out : outputs) {
      for (const TmpEdge& e : out.edges) {
        ++offsets[tmp_shard(e.from)][tmp_local(e.from) + 1];
      }
    }
    for (std::size_t s = 0; s < kShardCount; ++s) {
      for (std::size_t i = 1; i < offsets[s].size(); ++i) {
        offsets[s][i] += offsets[s][i - 1];
      }
      adj[s].resize(offsets[s].back());
    }
    std::array<std::vector<std::uint32_t>, kShardCount> cursor = offsets;
    for (WorkerOutput& out : outputs) {
      for (const TmpEdge& e : out.edges) {
        const std::size_t s = tmp_shard(e.from);
        adj[s][cursor[s][tmp_local(e.from)]++] =
            LocalEdge{e.transition, e.to};
      }
      out.edges.clear();
      out.edges.shrink_to_fit();
    }

    ReachabilityGraph rg;
    Store& store = Domain::store(rg);
    Interner& index = Domain::index(rg);
    std::vector<std::vector<ReachabilityGraph::Edge>>& edges =
        reach_detail::GraphAccess::edges(rg);
    store.reset(width_);
    const std::size_t total =
        static_cast<std::size_t>(state_count_.load(std::memory_order_relaxed));
    store.reserve(total);
    edges.reserve(total);

    constexpr std::uint32_t kUnassigned = 0xffffffffu;
    std::array<std::vector<std::uint32_t>, kShardCount> canon;
    for (std::size_t s = 0; s < kShardCount; ++s) {
      canon[s].assign(shards_[s].store.size(), kUnassigned);
    }
    auto assign = [&](TmpId id) -> std::uint32_t {
      std::uint32_t& slot = canon[tmp_shard(id)][tmp_local(id)];
      if (slot == kUnassigned) {
        slot = static_cast<std::uint32_t>(store.push_back(
            shards_[tmp_shard(id)].store.row(tmp_local(id))));
        edges.emplace_back();
        c_par_renumbered.add();
      }
      return slot;
    };

    std::deque<TmpId> order{initial_tmp_};
    assign(initial_tmp_);
    while (!order.empty()) {
      const TmpId u = order.front();
      order.pop_front();
      const std::size_t us = tmp_shard(u);
      const std::uint32_t ul = tmp_local(u);
      const std::uint32_t cu = canon[us][ul];
      edges[cu].reserve(offsets[us][ul + 1] - offsets[us][ul]);
      for (std::uint32_t i = offsets[us][ul]; i < offsets[us][ul + 1]; ++i) {
        const LocalEdge& e = adj[us][i];
        const bool seen =
            canon[tmp_shard(e.to)][tmp_local(e.to)] != kUnassigned;
        const std::uint32_t cv = assign(e.to);
        edges[cu].push_back(
            ReachabilityGraph::Edge{e.transition, StateId(cv)});
        if (!seen) order.push_back(e.to);
      }
    }
    index.rebuild(store);
    dom_.bind(rg);
    return rg;
  }

  const Domain& dom_;
  const PetriNet& net_;
  const ReachOptions& options_;
  const std::size_t width_;

  std::array<Shard, kShardCount> shards_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  std::size_t pending_ = 0;  // discovered but not yet fully expanded
  std::atomic<bool> stop_{false};
  std::atomic<bool> truncated_{false};
  std::exception_ptr error_;
  std::atomic<std::uint64_t> state_count_{0};
  std::atomic<std::uint64_t> edge_count_{0};
  std::array<std::atomic<std::uint32_t>, kShardCount> shard_counts_{};
  TmpId initial_tmp_ = 0;
};

}  // namespace

namespace reach_detail {

ReachabilityGraph explore_parallel(const PetriNet& net,
                                   const ReachOptions& options, bool packed) {
  if (packed) {
    const PackedDomain dom(net);
    return ParallelExplorerT<PackedDomain>(dom, net, options).run();
  }
  const DenseDomain dom(net);
  return ParallelExplorerT<DenseDomain>(dom, net, options).run();
}

}  // namespace reach_detail

}  // namespace cipnet
