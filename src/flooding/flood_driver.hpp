// Flooding primitives over any dynamic network model: options, trace,
// scratch, the per-model semantics types and the boundary scan. The one
// step loop that uses them is disseminate_dynamic (protocols/
// dissemination.hpp); flood_dynamic, declared there too, runs FloodProtocol
// through it.
//
// One frontier algorithm serves every model (DESIGN.md, decision 6): a node
// can only become informed through (a) an edge incident to a node informed
// at the previous step, or (b) an edge created since the previous step with
// an informed endpoint. Edges never appear between two long-lived nodes
// except by regeneration, and never disappear except by endpoint death, so
// examining frontier edges plus freshly created edges covers the full
// boundary ∂out(I_t) at every step. This makes an Ω(n)-step completion run
// cost O(E + total churn) instead of O(n·E).
//
// What differs between the paper's flooding processes is captured by a small
// semantics type (`Net::flood_semantics`):
//
//   * StreamingFloodSemantics (paper Def. 3.3): one flooding step is one
//     churn round; a boundary node is informed at step t iff it is still
//     alive at t (the sender's death within the round does not cancel the
//     message); the round's newborn is exempt from the completion test.
//   * DiscretizedFloodSemantics (paper Def. 4.3): one flooding step is one
//     unit of continuous time; a boundary node is informed at T+1 iff BOTH
//     endpoints of the carrying edge survive the whole interval (T, T+1];
//     completion means every alive node is informed.
//   * StaticFloodSemantics: synchronous flooding on a churn-free network
//     (BFS rounds); the source is drawn uniformly since nobody is born.
//
// All per-run state lives in a caller-supplied FloodScratch whose membership
// sets are word-packed bitsets (common/bitset64.hpp, DESIGN.md "Frontier
// representation"): repeated trials reuse the same allocations and clears
// are O(words) streams with no epoch counters to wrap. The flood slot path
// works in raw slots (no generation loads), shards the boundary scan across
// a worker pool (FloodOptions::intra_threads) with byte-identical output at
// every thread count (common/intra.hpp), and commits in O(candidates).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assertx.hpp"
#include "common/bitset64.hpp"
#include "common/intra.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/node_id.hpp"
#include "models/edge_policy.hpp"
#include "telemetry/telemetry.hpp"

namespace churnet {

struct FloodOptions {
  /// Hard cap on flooding steps (rounds in streaming, unit intervals in the
  /// discretized Poisson process).
  std::uint64_t max_steps = 1'000'000;
  /// Stop once informed >= stop_at_fraction * alive (1.0 = only on
  /// completion per the paper's definitions).
  double stop_at_fraction = 1.0;
  /// Stop when the informed set dies out entirely.
  bool stop_on_die_out = true;
  /// Record per-step |I_t| and |N_t| series (cheap; on by default).
  bool record_series = true;
  /// Worker threads for the boundary scan inside one trial (0 = one per
  /// hardware thread). The result is byte-identical at every value — the
  /// scan partitions the frontier into fixed-size chunks and merges in
  /// chunk order — so this is purely a wall-clock knob; >1 only pays off
  /// once frontiers reach ~10^5 nodes.
  std::uint32_t intra_threads = 1;
};

/// Outcome of one flooding run.
struct FloodTrace {
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// |I_t| after flooding step t (index 0 = the source round, value 1).
  std::vector<std::uint64_t> informed_per_step;
  /// |N_t| at the same instants.
  std::vector<std::uint64_t> alive_per_step;

  std::uint64_t steps = 0;
  /// Completion per the paper: every node alive at both ends of a step is
  /// informed (streaming Def. 3.3) / all alive nodes informed (Def. 4.3).
  bool completed = false;
  std::uint64_t completion_step = kNever;
  /// The informed set became empty (every informed node died).
  bool died_out = false;
  std::uint64_t die_out_step = kNever;
  std::uint64_t peak_informed = 0;
  /// informed/alive when the run stopped.
  double final_fraction = 0.0;

  /// First step with informed >= fraction * alive; kNever if never reached.
  /// Requires record_series.
  std::uint64_t step_reaching_fraction(double fraction) const;
};

/// An out-edge created while the driver was watching (via hooks).
struct CreatedEdge {
  NodeId owner;
  NodeId target;
};

/// Reusable per-run state for the dissemination driver. Membership sets (the
/// informed set, the per-step candidate set, the per-interval death set)
/// are slot-indexed Bitset64s: one bit per slot, trial reset = O(words)
/// clear, no epoch counters. Membership is keyed by slot alone — exactly
/// the stamp-array semantics this replaced: the driver unmarks on death
/// before a slot can be recycled, so a set bit always describes the slot's
/// current occupant.
///
/// Two candidate representations coexist, both in propose order (commit
/// order, stats, and on_informed indices follow it). The generic protocol
/// path records (sender, receiver) NodeId pairs in `candidates`; the flood
/// slot path records raw slot pairs in `cand_pairs`. Under receiver
/// dedup, a pair is recorded only when its receiver's candidate bit is
/// first set, so either list names exactly the bits to clear in
/// O(candidates); only a dense flood step, whose frontier is large next
/// to the slot words, skips its list and clears by commit_candidates().
class FloodScratch {
 public:
  using Word = Bitset64::Word;

  /// Prepares for a new flood over a graph whose slots are < slot_bound.
  void begin_trial(std::uint32_t slot_bound) {
    ensure(slot_bound);
    informed_.clear_all();
    candidate_.clear_all();
    death_.clear_all();
    informed_count_ = 0;
    frontier.clear();
    frontier_slots.clear();
    created.clear();
    candidates.clear();
    deaths_.clear();
  }

  /// Pre-grows the membership sets (a serial point before a parallel scan:
  /// no worker may trigger a resize).
  void ensure_slots(std::uint32_t slot_bound) { ensure(slot_bound); }

  // ---- informed set ----------------------------------------------------

  bool is_informed(NodeId node) const { return informed_.test(node.slot); }
  bool is_informed_slot(std::uint32_t slot) const {
    return informed_.test(slot);
  }
  /// Marks `node` informed; returns true if it was not already.
  bool mark_informed(NodeId node) {
    ensure(node.slot + 1);
    if (!informed_.test_and_set(node.slot)) return false;
    ++informed_count_;
    return true;
  }
  /// Slot variant for the flood slot path; the slot must be in range
  /// (ensure_slots ran this step).
  bool mark_informed_slot(std::uint32_t slot) {
    if (!informed_.test_and_set(slot)) return false;
    ++informed_count_;
    return true;
  }
  /// Un-marks `node` if informed (death of an informed node).
  void unmark_informed(NodeId node) {
    if (!informed_.test(node.slot)) return;
    informed_.reset(node.slot);
    CHURNET_ASSERT(informed_count_ > 0);
    --informed_count_;
  }
  std::uint64_t informed_count() const { return informed_count_; }

  // ---- per-step candidate dedup (streaming semantics) ------------------

  /// Starts a new generic-path proposal step: clears the
  /// previous step's candidate marks (walking the recorded pairs — O(step
  /// candidates), not O(slots)) and the pair list itself.
  void begin_step() {
    for (const auto& [sender, receiver] : candidates) {
      candidate_.reset(receiver.slot);
    }
    candidates.clear();
  }
  /// Returns true the first time `node` is proposed this step.
  bool mark_candidate(NodeId node) {
    ensure(node.slot + 1);
    return candidate_.test_and_set(node.slot);
  }
  /// Slot variants for the flood slot path (in-range slot — ensure_slots
  /// ran this step): the mark returns true the first time `slot` is
  /// proposed this step; the commit clears each mark it walks past.
  bool mark_candidate_slot(std::uint32_t slot) {
    return candidate_.test_and_set(slot);
  }
  void clear_candidate_slot(std::uint32_t slot) { candidate_.reset(slot); }

  /// Word-scan commit of a dense receiver-dedup step: I_t gains
  /// (candidates AND NOT deaths); newly informed slots are appended to
  /// `frontier_out` in slot order and every candidate mark is consumed.
  /// O(slot_words()).
  void commit_candidates(std::vector<std::uint32_t>& frontier_out) {
    Word* cand = candidate_.words();
    const Word* dead = death_.words();
    Word* informed = informed_.words();
    const std::uint64_t words = candidate_.word_count();
    for (std::uint64_t w = 0; w < words; ++w) {
      const Word add = cand[w] & ~dead[w];
      cand[w] = 0;
      if (add == 0) continue;
      // Candidates were uninformed at scan time and nothing else informs.
      CHURNET_ASSERT((informed[w] & add) == 0);
      informed[w] |= add;
      informed_count_ += std::popcount(add);
      Word bits = add;
      while (bits != 0) {
        frontier_out.push_back(static_cast<std::uint32_t>(
            w * Bitset64::kWordBits + std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }
  std::uint64_t slot_words() const { return candidate_.word_count(); }

  // ---- deaths during the current churn interval ------------------------

  void clear_deaths() {
    for (const NodeId dead : deaths_) death_.reset(dead.slot);
    deaths_.clear();
  }
  void note_death(NodeId node) {
    ensure(node.slot + 1);
    death_.set(node.slot);
    deaths_.push_back(node);
  }
  bool died_this_step(NodeId node) const { return death_.test(node.slot); }
  bool died_this_step_slot(std::uint32_t slot) const {
    return death_.test(slot);
  }
  const std::vector<NodeId>& deaths() const { return deaths_; }

  // ---- plain reusable buffers ------------------------------------------

  std::vector<NodeId> frontier;
  std::vector<NodeId> neighbors;
  std::vector<CreatedEdge> created;
  std::vector<std::pair<NodeId, NodeId>> candidates;  // (sender, receiver)

  // Flood slot-path buffers (slot-only mirrors of the above).
  std::vector<std::uint32_t> frontier_slots;
  std::vector<std::uint32_t> neighbor_slots;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cand_pairs;
  // Sharded-scan buffers: per-chunk pair outputs (replayed in chunk order)
  // and per-worker neighbor staging.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      shard_pairs;
  std::vector<std::vector<std::uint32_t>> shard_neighbors;

 private:
  void ensure(std::uint32_t slot_bound) {
    if (slot_bound <= informed_.size()) return;
    const std::uint64_t size = std::max<std::uint64_t>(
        slot_bound, informed_.size() + informed_.size() / 2);
    informed_.resize(size);
    candidate_.resize(size);
    death_.resize(size);
  }

  // All three are kept the same size by ensure(), so fused word scans
  // never bounds-check.
  Bitset64 informed_;
  Bitset64 candidate_;
  Bitset64 death_;
  std::vector<NodeId> deaths_;
  std::uint64_t informed_count_ = 0;
};

/// Synchronous flooding on a streaming network (paper Def. 3.3).
struct StreamingFloodSemantics {
  /// Only the receiver must survive the round.
  static constexpr bool kPairCandidates = false;
  /// The source is the node born at the first advanced round.
  static constexpr bool kSourceIsNewborn = true;
  /// Churn keeps creating edges, so an empty frontier can revive.
  static constexpr bool kChurnFree = false;
  /// The round's newborn is never informed at the check, so exactly one
  /// uninformed alive node means I_t ⊇ N_{t-1} ∩ N_t.
  static bool completed(std::uint64_t informed, std::uint64_t alive) {
    return informed + 1 >= alive && alive >= 2;
  }
  template <typename Net>
  static void advance(Net& net) {
    net.step();
  }
};

/// Discretized flooding on a continuous-time network (paper Def. 4.3).
struct DiscretizedFloodSemantics {
  /// Both endpoints of the carrying edge must survive the interval.
  static constexpr bool kPairCandidates = true;
  static constexpr bool kSourceIsNewborn = true;
  static constexpr bool kChurnFree = false;
  static bool completed(std::uint64_t informed, std::uint64_t alive) {
    return informed == alive && alive > 0;
  }
  template <typename Net>
  static void advance(Net& net) {
    net.run_until(net.now() + 1.0);
  }
};

/// Synchronous flooding on a churn-free network: BFS rounds.
struct StaticFloodSemantics {
  static constexpr bool kPairCandidates = false;
  /// Nobody is born, so the source is a uniform random alive node.
  static constexpr bool kSourceIsNewborn = false;
  /// No churn: an exhausted frontier is a fixed point (BFS termination).
  static constexpr bool kChurnFree = true;
  static bool completed(std::uint64_t informed, std::uint64_t alive) {
    return informed == alive && alive > 0;
  }
  template <typename Net>
  static void advance(Net& net) {
    net.step();
  }
};

namespace detail_flood {

inline void record_step(FloodTrace& trace, const FloodOptions& options,
                        std::uint64_t informed, std::uint64_t alive) {
  if (!options.record_series) return;
  trace.informed_per_step.push_back(informed);
  trace.alive_per_step.push_back(alive);
}

/// Frontier chunk size for the sharded boundary scan. Fixed — never a
/// function of the thread count — so chunk boundaries, per-chunk outputs,
/// and the chunk-order replay are identical at every intra_threads value.
constexpr std::size_t kScanChunk = 4096;

/// Scans the boundary of I_{t-1}: calls consider(u, v) for every frontier
/// node u and every uninformed neighbor v, in frontier order. Reads the
/// graph and the informed set only. With intra > 1 and a frontier of
/// several chunks, workers collect each chunk's (u, v) pairs in parallel
/// and consider() replays them serially in chunk order — exactly the
/// sequential call sequence, so whatever consider() records is
/// byte-identical at every thread count.
template <typename Consider>
void scan_boundary(const DynamicGraph& graph, FloodScratch& scratch,
                   unsigned intra, Consider&& consider) {
  const std::vector<std::uint32_t>& frontier = scratch.frontier_slots;
  const std::size_t chunk_count =
      (frontier.size() + kScanChunk - 1) / kScanChunk;
  if (intra <= 1 || chunk_count < 2) {
    auto& neighbors = scratch.neighbor_slots;
    for (const std::uint32_t u : frontier) {
      // Frontier members were alive and informed at last step's commit and
      // nothing has advanced since; the bit doubles as a liveness check.
      if (!scratch.is_informed_slot(u)) continue;
      neighbors.clear();
      graph.append_neighbor_slots(u, neighbors);
      for (const std::uint32_t v : neighbors) {
        if (!scratch.is_informed_slot(v)) consider(u, v);
      }
    }
    return;
  }

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(intra, chunk_count));
  if (scratch.shard_neighbors.size() < workers) {
    scratch.shard_neighbors.resize(workers);
  }
  if (scratch.shard_pairs.size() < chunk_count) {
    scratch.shard_pairs.resize(chunk_count);
  }
  for_each_chunk(intra, chunk_count, [&](std::size_t c, unsigned worker) {
    auto& neighbors = scratch.shard_neighbors[worker];
    auto& pairs = scratch.shard_pairs[c];
    pairs.clear();
    const std::size_t begin = c * kScanChunk;
    const std::size_t end = std::min(frontier.size(), begin + kScanChunk);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t u = frontier[i];
      if (!scratch.is_informed_slot(u)) continue;
      neighbors.clear();
      graph.append_neighbor_slots(u, neighbors);
      for (const std::uint32_t v : neighbors) {
        if (!scratch.is_informed_slot(v)) pairs.emplace_back(u, v);
      }
    }
  });
  for (std::size_t c = 0; c < chunk_count; ++c) {
    for (const auto& [u, v] : scratch.shard_pairs[c]) consider(u, v);
  }
}

}  // namespace detail_flood

}  // namespace churnet
