// The dissemination driver: the one step loop every flooding process and
// every protocol runs through (DESIGN.md, decision 6).
//
// Each step, candidates are proposed from G_{t-1} and I_{t-1}, one semantic
// step of churn runs (Net::flood_semantics picks the survival rule,
// completion predicate and advance primitive), deaths un-inform their
// nodes, and surviving candidates are committed in propose order. The
// driver installs its own network hooks for the duration of the call and
// clears them on return; callers must not rely on hooks across a run.
//
// Propose and commit come in two flavours, chosen statically by the
// protocol's type alone:
//
//   * FloodProtocol (final) takes the flood slot path: the boundary scan of
//     flooding/flood_driver.hpp in raw slots (no generation loads, no
//     per-message send(), sharded over FloodOptions::intra_threads),
//     receivers deduplicated by candidate bits under receiver survival,
//     and a commit that walks only this step's recorded candidates. The
//     commit is O(candidates), not O(slot words): SDG's long tail of
//     one-node frontiers runs ~5*10^5 steps at n = 10^6.
//   * Every other protocol emits through its virtual propose(StepView&)
//     and commits NodeId pairs, with on_informed/on_death callbacks.
//
// Both flavours give flooding the same trace and ProtocolStats
// (tests/test_protocol_equivalence.cpp). flood_dynamic (below) and
// AnyNetwork::flood run FloodProtocol through this loop; AnyNetwork::
// disseminate reaches the slot path with one dynamic_cast. On top of the
// flood process the driver adds multi-source starts (extras drawn from the
// protocol RNG, never the network's), message-complexity accounting
// (ProtocolStats), and protocol callbacks (on_informed for hop/state
// tracking, on_death for slot recycling).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assertx.hpp"
#include "models/edge_policy.hpp"
#include "protocols/gossip.hpp"
#include "protocols/protocol.hpp"
#include "telemetry/telemetry.hpp"

namespace churnet {

namespace detail_protocol {

/// True when some uninformed alive node has an informed neighbor — i.e.
/// the informed set can still grow on a churn-free network. O(V+E); only
/// consulted on zero-progress rounds to guarantee termination when
/// randomized gossip has saturated its reachable component.
inline bool informed_boundary_exists(const DynamicGraph& graph,
                                     ProtocolScratch& scratch) {
  const FloodScratch& fs = scratch.flood;
  scratch.alive.clear();
  graph.append_alive_nodes(scratch.alive);
  for (const NodeId v : scratch.alive) {
    if (fs.is_informed(v)) continue;
    scratch.flood.neighbors.clear();
    graph.append_neighbors(v, scratch.flood.neighbors);
    for (const NodeId u : scratch.flood.neighbors) {
      if (fs.is_informed(u)) return true;
    }
  }
  return false;
}

/// Frontier nodes per slot word from which a receiver-dedup step is dense:
/// it marks candidate bits only and commits by one word scan, O(words) =
/// O(kDenseRatio * frontier) — never more than the scan's own cost.
inline constexpr std::uint64_t kDenseRatio = 8;

/// FloodProtocol's propose on the slot path: the frontier scan plus the
/// created-edge pass. Every informed-to-uninformed pair is one message;
/// under receiver survival only a receiver's first pair counts and the
/// rest are duplicates by construction (StepView::send's dedup, in slots).
/// A sparse step records the surviving-candidate list in fs.cand_pairs (all
/// pairs under pair survival); a dense step keeps receivers as candidate
/// bits only. Returns whether the step is dense.
template <typename Semantics>
bool propose_flood(const DynamicGraph& graph, FloodScratch& fs,
                   ProtocolStats& stats, unsigned intra) {
  const bool dense =
      !Semantics::kPairCandidates &&
      fs.frontier_slots.size() * kDenseRatio >= fs.slot_words();
  std::uint64_t sent = 0;
  std::uint64_t duplicates = 0;
  fs.cand_pairs.clear();
  const auto consider = [&](std::uint32_t u, std::uint32_t v) {
    ++sent;
    if constexpr (!Semantics::kPairCandidates) {
      const bool first = fs.mark_candidate_slot(v);
      duplicates += first ? 0 : 1;
      if (!first || dense) return;
    }
    fs.cand_pairs.emplace_back(u, v);
  };
  detail_flood::scan_boundary(graph, fs, intra, consider);
  for (const CreatedEdge& edge : fs.created) {
    // An edge created in the previous interval counts from now on,
    // provided it still exists (both endpoints alive).
    if (!graph.is_alive(edge.owner) || !graph.is_alive(edge.target)) {
      continue;
    }
    const bool owner_informed = fs.is_informed(edge.owner);
    const bool target_informed = fs.is_informed(edge.target);
    if (owner_informed && !target_informed) {
      consider(edge.owner.slot, edge.target.slot);
    } else if (target_informed && !owner_informed) {
      consider(edge.target.slot, edge.owner.slot);
    }
  }
  stats.messages_sent += sent;
  stats.duplicate_deliveries += duplicates;
  return dense;
}

/// FloodProtocol's commit on the slot path: informs every candidate
/// receiver the semantics let survive the interval and makes the newly
/// informed the next frontier. A sparse step walks its candidate list,
/// clearing each receiver's mark — O(candidates), which keeps SDG's long
/// tail of tiny frontiers cheap. A dense step commits by one AND-NOT word
/// scan, which also emits the frontier in slot order: the graph layout's
/// order, so the next scan takes far fewer cache misses.
template <typename Semantics>
void commit_flood(const DynamicGraph& graph, FloodScratch& fs,
                  ProtocolStats& stats, std::vector<NodeId>* informed_log,
                  bool dense) {
  fs.frontier_slots.clear();
  if (dense) {
    fs.commit_candidates(fs.frontier_slots);
  } else {
    for (const auto& [u, v] : fs.cand_pairs) {
      if constexpr (Semantics::kPairCandidates) {
        if (fs.died_this_step_slot(u) || fs.died_this_step_slot(v)) continue;
      } else {
        fs.clear_candidate_slot(v);
        // The interval's death; a newborn reusing the victim's slot is
        // filtered by the same bit.
        if (fs.died_this_step_slot(v)) continue;
      }
      if (fs.mark_informed_slot(v)) {
        fs.frontier_slots.push_back(v);
      } else {
        ++stats.duplicate_deliveries;
      }
    }
  }
  stats.useful_deliveries += fs.frontier_slots.size();
  if (informed_log != nullptr) {
    for (const std::uint32_t v : fs.frontier_slots) {
      informed_log->push_back(graph.alive_id_at(v));
    }
  }
}

/// The step loop. `ps` carries the protocol layer's buffers (fs is then
/// ps->flood); the flood slot path needs only `fs` and fills
/// ps->informed when given one.
template <typename Net, typename Protocol>
ProtocolResult run(Net& net, Protocol& protocol,
                   const ProtocolOptions& options, FloodScratch& fs,
                   ProtocolScratch* ps) {
  using Semantics = typename Net::flood_semantics;
  constexpr bool kSlotFlood = std::is_same_v<Protocol, FloodProtocol>;
  CHURNET_EXPECTS(kSlotFlood || (ps != nullptr && &ps->flood == &fs));
  const telemetry::PhaseTimer phase_span(telemetry::Phase::kDissemination);
  ProtocolResult result;
  FloodTrace& trace = result.trace;
  ProtocolStats& stats = result.stats;
  std::vector<NodeId>* informed_log = ps != nullptr ? &ps->informed : nullptr;
  fs.begin_trial(net.graph().slot_upper_bound());
  if (informed_log != nullptr) informed_log->clear();
  protocol.begin_run(options.seed, net.graph().slot_upper_bound());

  const double delivery_q =
      std::clamp(protocol.delivery_probability(), 0.0, 1.0);
  // The generic path's receiver dedup is only sound when one surviving
  // boundary message is as good as many: receiver-only survival and a
  // lossless link.
  const bool dedup = !Semantics::kPairCandidates &&
                     protocol.dedup_receivers() && delivery_q >= 1.0;

  NodeId source = kInvalidNode;
  NetworkHooks hooks;
  hooks.on_birth = [&source](NodeId node, double) {
    if (!source.valid()) source = node;
  };
  hooks.on_edge_created = [&fs](NodeId owner, std::uint32_t, NodeId target,
                                bool, double) {
    fs.created.push_back({owner, target});
  };
  hooks.on_death = [&fs](NodeId node, double) { fs.note_death(node); };
  net.set_hooks(std::move(hooks));

  if constexpr (Semantics::kSourceIsNewborn) {
    // The paper's convention: flooding starts from the node joining at t0.
    while (!source.valid()) net.step();
  } else {
    CHURNET_EXPECTS(net.graph().alive_count() > 0);
    source = net.graph().random_alive(net.rng());
  }
  // The sources' own birth edges are covered by the frontier.
  fs.created.clear();
  fs.clear_deaths();
  const auto inform_source = [&](NodeId node) {
    if (!fs.mark_informed(node)) return;
    if constexpr (kSlotFlood) {
      fs.frontier_slots.push_back(node.slot);
    } else {
      fs.frontier.push_back(node);
    }
    if (informed_log != nullptr) informed_log->push_back(node);
    protocol.on_informed(node, kInvalidNode,
                         DisseminationProtocol::kNoCandidate);
  };
  inform_source(source);

  // Extra sources: uniform alive nodes from the protocol RNG (the network
  // realization stays identical to a single-source run under the same
  // network seed). Capped at the alive count; the loop guard guarantees an
  // uninformed alive node exists, so the rejection sampling terminates.
  const std::uint64_t want_sources =
      std::min<std::uint64_t>(options.sources, net.graph().alive_count());
  while (fs.informed_count() < std::max<std::uint64_t>(want_sources, 1)) {
    inform_source(net.graph().random_alive(protocol.rng()));
  }

  trace.peak_informed = fs.informed_count();
  detail_flood::record_step(trace, options.flood, fs.informed_count(),
                            net.graph().alive_count());

  const unsigned intra = effective_intra_threads(options.flood.intra_threads);
  for (std::uint64_t step = 1; step <= options.flood.max_steps; ++step) {
    // Serial point: workers of a sharded scan may not trigger a resize.
    fs.ensure_slots(net.graph().slot_upper_bound());
    // One semantic step of churn between propose and commit; hooks record
    // deaths and new edges.
    const auto churn_step = [&] {
      fs.created.clear();
      fs.clear_deaths();
      Semantics::advance(net);
      for (const NodeId dead : fs.deaths()) {
        fs.unmark_informed(dead);
        protocol.on_death(dead);
      }
    };
    if constexpr (kSlotFlood) {
      const bool dense = propose_flood<Semantics>(net.graph(), fs, stats,
                                                  intra);
      churn_step();
      commit_flood<Semantics>(net.graph(), fs, stats, informed_log, dense);
    } else {
      fs.begin_step();  // clears last step's candidate marks + pair list
      StepView view(net.graph(), *ps, stats, dedup, delivery_q,
                    &protocol.rng(), step, intra);
      protocol.propose(view);
      churn_step();
      // Commit surviving deliveries in propose order.
      fs.frontier.clear();
      for (std::size_t i = 0; i < fs.candidates.size(); ++i) {
        const auto [u, v] = fs.candidates[i];
        if constexpr (Semantics::kPairCandidates) {
          if (fs.died_this_step(u) || fs.died_this_step(v)) continue;
          CHURNET_ASSERT(net.graph().is_alive(v));
        } else {
          if (!net.graph().is_alive(v)) continue;  // the interval's death
        }
        if (fs.mark_informed(v)) {
          ++stats.useful_deliveries;
          fs.frontier.push_back(v);
          informed_log->push_back(v);
          protocol.on_informed(v, u, i);
        } else {
          ++stats.duplicate_deliveries;
        }
      }
    }

    trace.steps = step;
    const std::uint64_t informed_count = fs.informed_count();
    const std::uint64_t alive_count = net.graph().alive_count();
    trace.peak_informed = std::max(trace.peak_informed, informed_count);
    detail_flood::record_step(trace, options.flood, informed_count,
                              alive_count);
    trace.final_fraction = alive_count == 0
                               ? 0.0
                               : static_cast<double>(informed_count) /
                                     static_cast<double>(alive_count);

    if (Semantics::completed(informed_count, alive_count)) {
      trace.completed = true;
      trace.completion_step = step;
      break;
    }
    if (informed_count == 0) {
      trace.died_out = true;
      trace.die_out_step = step;
      if (options.flood.stop_on_die_out) break;
    }
    if (options.flood.stop_at_fraction < 1.0 &&
        trace.final_fraction >= options.flood.stop_at_fraction) {
      break;
    }
    if constexpr (Semantics::kChurnFree) {
      // Frontier-driven protocols (flood, TTL) can only ever propose from
      // new informs or new edges: with neither, the run is a fixed point.
      // Randomized gossip can idle and retry, so on its zero-progress
      // rounds check whether an informed-to-uninformed edge still exists;
      // once the reachable component is saturated (e.g. a disconnected
      // baseline), no coin can ever help and the run is over — without
      // this, a non-completing gossip run would burn the full max_steps.
      if constexpr (kSlotFlood) {
        if (fs.frontier_slots.empty()) break;
      } else if (fs.frontier.empty()) {
        if (protocol.frontier_driven()) break;
        if (!informed_boundary_exists(net.graph(), *ps)) break;
      }
    }
  }

  net.set_hooks({});
  stats.rounds = trace.steps;
  stats.completed = trace.completed;
  stats.final_coverage = trace.final_fraction;
  telemetry::count(telemetry::Counter::kMessages, stats.total_messages());
  return result;
}

}  // namespace detail_protocol

/// Runs one dissemination process on `net` under its declared flood
/// semantics. The network should be warmed up; all allocations are reused
/// across calls through `scratch`, and the protocol is reset via
/// begin_run, so one (protocol, scratch) pair serves a whole replication
/// loop without steady-state allocation. A FloodProtocol argument takes
/// the flood slot path; any other static type proposes through the
/// virtual propose(StepView&).
template <typename Net, std::derived_from<DisseminationProtocol> Protocol>
ProtocolResult disseminate_dynamic(Net& net, Protocol& protocol,
                                   const ProtocolOptions& options,
                                   ProtocolScratch& scratch) {
  return detail_protocol::run(net, protocol, options, scratch.flood,
                              &scratch);
}

/// Convenience overload with a private (per-call) scratch.
template <typename Net, std::derived_from<DisseminationProtocol> Protocol>
ProtocolResult disseminate_dynamic(Net& net, Protocol& protocol,
                                   const ProtocolOptions& options = {}) {
  ProtocolScratch scratch;
  return disseminate_dynamic(net, protocol, options, scratch);
}

/// Runs the model's flooding process: FloodProtocol through the one
/// driver, with the caller's FloodScratch reused across calls.
template <typename Net>
FloodTrace flood_dynamic(Net& net, const FloodOptions& options,
                         FloodScratch& scratch) {
  FloodProtocol flood;
  return detail_protocol::run(net, flood, {.flood = options}, scratch,
                              nullptr)
      .trace;
}

/// Convenience overload with a private (per-call) scratch.
template <typename Net>
FloodTrace flood_dynamic(Net& net, const FloodOptions& options = {}) {
  FloodScratch scratch;
  return flood_dynamic(net, options, scratch);
}

}  // namespace churnet
