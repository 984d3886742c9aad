// The pre-bitset flood driver, kept verbatim as a live oracle for the
// flooding tests: the exact epoch-stamped scratch and step loop that the
// bitset FloodScratch and the one dissemination driver replaced (only
// renamed). It shares FloodTrace/FloodOptions/the semantics types with the
// current code, which did not change, and nothing else — so comparing
// against it checks the current driver against an independent copy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assertx.hpp"
#include "flooding/flood_driver.hpp"
#include "graph/node_id.hpp"
#include "models/edge_policy.hpp"

namespace churnet {

class LegacyFloodScratch {
 public:
  void begin_trial(std::uint32_t slot_bound) {
    ensure(slot_bound);
    ++informed_epoch_;
    informed_count_ = 0;
    frontier.clear();
    created.clear();
    candidates.clear();
    deaths_.clear();
    ++death_epoch_;
  }

  bool is_informed(NodeId node) const {
    return node.slot < informed_stamp_.size() &&
           informed_stamp_[node.slot] == informed_epoch_;
  }
  bool mark_informed(NodeId node) {
    ensure(node.slot + 1);
    if (informed_stamp_[node.slot] == informed_epoch_) return false;
    informed_stamp_[node.slot] = informed_epoch_;
    ++informed_count_;
    return true;
  }
  void unmark_informed(NodeId node) {
    if (!is_informed(node)) return;
    informed_stamp_[node.slot] = 0;
    CHURNET_ASSERT(informed_count_ > 0);
    --informed_count_;
  }
  std::uint64_t informed_count() const { return informed_count_; }

  void begin_step() { ++candidate_epoch_; }
  bool mark_candidate(NodeId node) {
    ensure(node.slot + 1);
    if (candidate_stamp_[node.slot] == candidate_epoch_) return false;
    candidate_stamp_[node.slot] = candidate_epoch_;
    return true;
  }

  void clear_deaths() {
    deaths_.clear();
    ++death_epoch_;
  }
  void note_death(NodeId node) {
    ensure(node.slot + 1);
    death_stamp_[node.slot] = death_epoch_;
    deaths_.push_back(node);
  }
  bool died_this_step(NodeId node) const {
    return node.slot < death_stamp_.size() &&
           death_stamp_[node.slot] == death_epoch_;
  }
  const std::vector<NodeId>& deaths() const { return deaths_; }

  std::vector<NodeId> frontier;
  std::vector<NodeId> neighbors;
  std::vector<CreatedEdge> created;
  std::vector<std::pair<NodeId, NodeId>> candidates;

 private:
  void ensure(std::uint32_t slot_bound) {
    if (slot_bound <= informed_stamp_.size()) return;
    const std::size_t size = std::max<std::size_t>(
        slot_bound, informed_stamp_.size() + informed_stamp_.size() / 2);
    informed_stamp_.resize(size, 0);
    candidate_stamp_.resize(size, 0);
    death_stamp_.resize(size, 0);
  }

  std::vector<std::uint64_t> informed_stamp_;
  std::vector<std::uint64_t> candidate_stamp_;
  std::vector<std::uint64_t> death_stamp_;
  std::vector<NodeId> deaths_;
  std::uint64_t informed_epoch_ = 0;
  std::uint64_t candidate_epoch_ = 0;
  std::uint64_t death_epoch_ = 0;
  std::uint64_t informed_count_ = 0;
};

template <typename Net>
FloodTrace legacy_flood_dynamic(Net& net, const FloodOptions& options,
                                LegacyFloodScratch& scratch) {
  using Semantics = typename Net::flood_semantics;
  FloodTrace trace;
  scratch.begin_trial(net.graph().slot_upper_bound());

  NodeId source = kInvalidNode;
  NetworkHooks hooks;
  hooks.on_birth = [&source](NodeId node, double) {
    if (!source.valid()) source = node;
  };
  hooks.on_edge_created = [&scratch](NodeId owner, std::uint32_t,
                                     NodeId target, bool, double) {
    scratch.created.push_back({owner, target});
  };
  hooks.on_death = [&scratch](NodeId node, double) {
    scratch.note_death(node);
  };
  net.set_hooks(std::move(hooks));

  if constexpr (Semantics::kSourceIsNewborn) {
    while (!source.valid()) net.step();
  } else {
    CHURNET_EXPECTS(net.graph().alive_count() > 0);
    source = net.graph().random_alive(net.rng());
  }
  scratch.created.clear();
  scratch.clear_deaths();
  scratch.mark_informed(source);
  scratch.frontier.push_back(source);

  trace.peak_informed = 1;
  detail_flood::record_step(trace, options, 1, net.graph().alive_count());

  for (std::uint64_t step = 1; step <= options.max_steps; ++step) {
    const DynamicGraph& graph = net.graph();

    scratch.candidates.clear();
    if constexpr (!Semantics::kPairCandidates) scratch.begin_step();
    auto consider = [&scratch](NodeId sender, NodeId receiver) {
      if constexpr (Semantics::kPairCandidates) {
        scratch.candidates.emplace_back(sender, receiver);
      } else {
        if (scratch.mark_candidate(receiver)) {
          scratch.candidates.emplace_back(sender, receiver);
        }
      }
    };
    for (const NodeId u : scratch.frontier) {
      if (!graph.is_alive(u)) continue;
      scratch.neighbors.clear();
      graph.append_neighbors(u, scratch.neighbors);
      for (const NodeId v : scratch.neighbors) {
        if (!scratch.is_informed(v)) consider(u, v);
      }
    }
    for (const CreatedEdge& edge : scratch.created) {
      if (!graph.is_alive(edge.owner) || !graph.is_alive(edge.target)) {
        continue;
      }
      const bool owner_informed = scratch.is_informed(edge.owner);
      const bool target_informed = scratch.is_informed(edge.target);
      if (owner_informed && !target_informed) {
        consider(edge.owner, edge.target);
      } else if (target_informed && !owner_informed) {
        consider(edge.target, edge.owner);
      }
    }
    scratch.created.clear();
    scratch.clear_deaths();

    Semantics::advance(net);

    for (const NodeId dead : scratch.deaths()) {
      scratch.unmark_informed(dead);
    }

    scratch.frontier.clear();
    for (const auto& [u, v] : scratch.candidates) {
      if constexpr (Semantics::kPairCandidates) {
        if (scratch.died_this_step(u) || scratch.died_this_step(v)) continue;
        CHURNET_ASSERT(net.graph().is_alive(v));
      } else {
        if (!net.graph().is_alive(v)) continue;
      }
      if (scratch.mark_informed(v)) scratch.frontier.push_back(v);
    }

    trace.steps = step;
    const std::uint64_t informed_count = scratch.informed_count();
    const std::uint64_t alive_count = net.graph().alive_count();
    trace.peak_informed = std::max(trace.peak_informed, informed_count);
    detail_flood::record_step(trace, options, informed_count, alive_count);
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
      if (options.stop_on_die_out) break;
    }
    if (options.stop_at_fraction < 1.0 &&
        trace.final_fraction >= options.stop_at_fraction) {
      break;
    }
    if constexpr (Semantics::kChurnFree) {
      if (scratch.frontier.empty()) break;
    }
  }

  net.set_hooks({});
  return trace;
}

}  // namespace churnet
