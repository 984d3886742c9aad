// Tests for adversarial and correlated churn (churn/adversary.hpp,
// churn/burst_churn.hpp) and their spec-grammar surface:
//
//   * differential oracles: every AdversaryPolicy rule is checked against
//     an independent reference implementation on a shadow adjacency (a
//     second GraphReadView), and against the live DynamicGraph through
//     DynamicGraphView — the selections must agree exactly; the graph's
//     degree-bucket index is checked against the ShadowView scan after
//     every mutation of random, PDGR and SDG runs;
//   * integration oracles: network-level runs assert the per-death
//     invariants (maxdeg victims really have maximum degree, streaming
//     keeps its pinned size and round schedule);
//   * byte-identity: budget-0 adversarial runs reproduce the base regime's
//     graph bit-for-bit, and adversarial/burst sweeps are thread-count
//     invariant (1-thread CSV == 8-thread CSV);
//   * burst laws: massfail/flashcrowd burst sizes are exact per burst and
//     the pre-burst population tracks the closed-form fixed point;
//   * allocation hygiene: steady-state BurstChurn::next, degree-rule
//     selection and warmed maxdeg/mindeg networks never touch the global
//     allocator (counting operator new, same pattern as
//     test_graph_stress.cpp);
//   * grammar: the new spellings parse/round-trip, malformed ones are
//     rejected with actionable reasons, and the catalog, the known-name
//     list and the factory stay mutually complete.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "churn/adversary.hpp"
#include "churn/burst_churn.hpp"
#include "churn/churn_spec.hpp"
#include "common/rng.hpp"
#include "common/specgram.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "models/graph_view.hpp"
#include "models/poisson_network.hpp"
#include "models/streaming_network.hpp"

// ---- counting global allocator ---------------------------------------------
//
// Replicated from test_graph_stress.cpp (each test file is its own
// executable, so the override is per-binary): every heap allocation in the
// process bumps one atomic, letting steady-state paths assert a delta of
// zero.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size | 1) + alignment - 1) & ~(alignment - 1);
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace churnet {
namespace {

// ---- shadow adjacency: an independent GraphReadView ------------------------

/// A GraphReadView backed by plain vectors — no DynamicGraph machinery —
/// so policy selections can be checked against reference implementations
/// and against the production adapter on mirrored topology.
class ShadowView final : public GraphReadView {
 public:
  explicit ShadowView(std::uint32_t slots) : alive_(slots), adj_(slots) {}

  /// Mirrors the alive part of a DynamicGraph (ids keep slot+generation).
  static ShadowView mirror(const DynamicGraph& graph) {
    ShadowView shadow(graph.slot_upper_bound());
    std::vector<NodeId> neighbors;
    for (const NodeId node : graph.alive_nodes()) {
      shadow.alive_[node.slot] = node;
      neighbors.clear();
      graph.append_neighbors(node, neighbors);
      shadow.adj_[node.slot] = neighbors;
    }
    return shadow;
  }

  void birth(NodeId id) { alive_[id.slot] = id; }

  void link(NodeId a, NodeId b) {
    adj_[a.slot].push_back(b);
    adj_[b.slot].push_back(a);
  }

  void kill(NodeId id) {
    alive_[id.slot] = kInvalidNode;
    for (const NodeId peer : adj_[id.slot]) {
      auto& list = adj_[peer.slot];
      list.erase(std::remove(list.begin(), list.end(), id), list.end());
    }
    adj_[id.slot].clear();
  }

  std::uint64_t alive_count() const override {
    std::uint64_t count = 0;
    for (const NodeId id : alive_) count += id.valid();
    return count;
  }

  std::uint32_t slot_upper_bound() const override {
    return static_cast<std::uint32_t>(alive_.size());
  }

  NodeId alive_at(std::uint32_t slot) const override { return alive_[slot]; }

  std::uint32_t degree(NodeId node) const override {
    return static_cast<std::uint32_t>(adj_[node.slot].size());
  }

  void append_neighbors(NodeId node,
                        std::vector<NodeId>& out) const override {
    out.insert(out.end(), adj_[node.slot].begin(), adj_[node.slot].end());
  }

  /// The reference degree rule: a slot-ascending scan with strict
  /// improvement, so ties resolve to the smallest slot.
  NodeId extreme_degree(bool maximize) const override {
    NodeId best = kInvalidNode;
    std::uint32_t best_degree = 0;
    for (std::uint32_t slot = 0; slot < slot_upper_bound(); ++slot) {
      const NodeId id = alive_at(slot);
      if (!id.valid()) continue;
      const std::uint32_t d = degree(id);
      if (!best.valid() || (maximize ? d > best_degree : d < best_degree)) {
        best = id;
        best_degree = d;
      }
    }
    return best;
  }

 private:
  std::vector<NodeId> alive_;            // invalid == dead slot
  std::vector<std::vector<NodeId>> adj_;  // symmetric neighbor lists
};

NodeId at(std::uint32_t slot) { return NodeId{slot, 0}; }

/// Reference oracle for the degree rules: slot-ascending scan, strict
/// improvement (written independently of the production scan).
NodeId reference_extreme_degree(const GraphReadView& view, bool maximize) {
  NodeId best = kInvalidNode;
  long long best_score = 0;
  for (std::uint32_t slot = 0; slot < view.slot_upper_bound(); ++slot) {
    const NodeId id = view.alive_at(slot);
    if (!id.valid()) continue;
    const long long score = maximize
                                ? static_cast<long long>(view.degree(id))
                                : -static_cast<long long>(view.degree(id));
    if (!best.valid() || score > best_score) {
      best = id;
      best_score = score;
    }
  }
  return best;
}

// ---- differential oracles: degree rules -------------------------------------

TEST(AdversaryPolicy, MaxDegreePicksHubSmallestSlotOnTies) {
  ShadowView view(6);
  for (std::uint32_t s = 0; s < 6; ++s) view.birth(at(s));
  // Degrees: 0:2, 1:3, 2:1, 3:3, 4:2, 5:1 — slots 1 and 3 tie at the top.
  view.link(at(0), at(1));
  view.link(at(1), at(3));
  view.link(at(1), at(4));
  view.link(at(3), at(2));
  view.link(at(3), at(5));
  view.link(at(0), at(4));

  AdversaryPolicy max_policy({AdversaryRule::kMaxDegree, 1.0}, 7);
  EXPECT_EQ(max_policy.select(view), at(1));  // smallest slot among the tie

  AdversaryPolicy min_policy({AdversaryRule::kMinDegree, 1.0}, 7);
  EXPECT_EQ(min_policy.select(view), at(2));  // degree 1, beats slot 5
}

TEST(AdversaryPolicy, DegreeRulesMatchReferenceAcrossRandomKillSequences) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t slots = 20 + static_cast<std::uint32_t>(
                                         rng.below(30));
    ShadowView view(slots);
    for (std::uint32_t s = 0; s < slots; ++s) view.birth(at(s));
    const int edges = static_cast<int>(rng.below(4 * slots));
    for (int e = 0; e < edges; ++e) {
      const auto a = static_cast<std::uint32_t>(rng.below(slots));
      const auto b = static_cast<std::uint32_t>(rng.below(slots));
      if (a != b) view.link(at(a), at(b));
    }
    const bool maximize = (trial % 2) == 0;
    AdversaryPolicy policy(
        {maximize ? AdversaryRule::kMaxDegree : AdversaryRule::kMinDegree,
         1.0},
        1234);
    // Kill down to a handful of nodes, checking every selection.
    while (view.alive_count() > 3) {
      const NodeId expected = reference_extreme_degree(view, maximize);
      const NodeId chosen = policy.select(view);
      ASSERT_EQ(chosen, expected);
      view.kill(chosen);
      policy.on_death(chosen);
    }
  }
}

TEST(AdversaryPolicy, SelectionsAgreeBetweenShadowAndDynamicGraphView) {
  // Same topology, two independent GraphReadView implementations, same
  // seed: the determinism contract says the selections must be identical.
  PoissonConfig config = PoissonConfig::with_n(300, 6, EdgePolicy::kRegenerate,
                                               42);
  PoissonNetwork net(config);
  net.warm_up(5.0);
  const DynamicGraphView live(net.graph());
  const ShadowView shadow = ShadowView::mirror(net.graph());
  ASSERT_EQ(live.alive_count(), shadow.alive_count());

  for (const AdversaryRule rule :
       {AdversaryRule::kMaxDegree, AdversaryRule::kMinDegree,
        AdversaryRule::kCutSet, AdversaryRule::kEclipse}) {
    AdversaryPolicy on_live({rule, 1.0}, 555);
    AdversaryPolicy on_shadow({rule, 1.0}, 555);
    EXPECT_EQ(on_live.select(live), on_shadow.select(shadow))
        << "rule " << static_cast<int>(rule);
  }
}

// ---- differential oracles: the graph's degree-bucket index ------------------

/// Both degree extremes of the live graph's index against the ShadowView
/// scan over a mirror of the same topology, plus the graph's own audit
/// (which checks a built index slot by slot).
::testing::AssertionResult index_matches_scan(const DynamicGraph& graph) {
  const DynamicGraphView live(graph);
  const ShadowView shadow = ShadowView::mirror(graph);
  for (const bool maximize : {true, false}) {
    const NodeId indexed = live.extreme_degree(maximize);
    const NodeId scanned = shadow.extreme_degree(maximize);
    if (indexed != scanned) {
      return ::testing::AssertionFailure()
             << (maximize ? "max" : "min") << "-degree index slot "
             << indexed.slot << " != scan slot " << scanned.slot;
    }
  }
  if (!graph.check_consistency()) {
    return ::testing::AssertionFailure() << "check_consistency failed";
  }
  return ::testing::AssertionSuccess();
}

TEST(DegreeIndex, MatchesScanUnderRandomBirthsDeathsAndRewires) {
  // Raw DynamicGraph mutations: nodes with 0..3 out-slots (0 stays at
  // degree 0 unless someone points at it), deaths that recycle slots,
  // orphans left dangling or regenerated, single-edge rewires, and a hub
  // that collects edges so the bucket array has to grow.
  Rng rng(2024);
  DynamicGraph graph;
  RemovalScratch scratch;
  const auto wire = [&](NodeId owner, std::uint32_t index) {
    const NodeId hub = graph.alive_nodes().front();
    const NodeId target = rng.bernoulli(0.2) && hub != owner
                              ? hub
                              : graph.random_alive_other(rng, owner);
    if (target.valid()) graph.set_out_edge(owner, index, target);
  };
  for (int i = 0; i < 40; ++i) {
    graph.add_node(static_cast<std::uint32_t>(rng.below(4)), 0.0);
  }
  ASSERT_TRUE(index_matches_scan(graph));  // builds the index: all degree 0

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.below(10);
    const bool grow = graph.alive_count() < 60 ? op < 5 : op < 3;
    if (grow || graph.alive_count() < 3) {
      const NodeId born =
          graph.add_node(static_cast<std::uint32_t>(rng.below(4)), 0.0);
      for (std::uint32_t i = 0; i < graph.out_slot_count(born); ++i) {
        if (rng.bernoulli(0.8)) wire(born, i);
      }
    } else if (op < 7) {
      graph.remove_node(graph.random_alive(rng), scratch);
      for (const OutSlotRef orphan : scratch.orphans) {
        if (rng.bernoulli(0.5)) wire(orphan.owner, orphan.index);
      }
    } else {
      const NodeId owner = graph.random_alive(rng);
      const std::uint32_t slots = graph.out_slot_count(owner);
      if (slots > 0) {
        const auto index = static_cast<std::uint32_t>(rng.below(slots));
        if (graph.out_target(owner, index).valid()) {
          graph.clear_out_edge(owner, index);
        }
        if (rng.bernoulli(0.7)) wire(owner, index);
      }
    }
    ASSERT_TRUE(index_matches_scan(graph)) << "after step " << step;
  }
}

TEST(DegreeIndex, BulkGenesisWiringDropsAndQueriesRebuild) {
  DynamicGraph graph;
  constexpr std::uint32_t kNodes = 50;
  constexpr std::uint32_t kOutSlots = 3;
  for (std::uint32_t i = 0; i < kNodes; ++i) graph.add_node(kOutSlots, 0.0);
  ASSERT_TRUE(index_matches_scan(graph));  // built while every degree is 0
  std::vector<std::uint32_t> targets;
  for (std::uint32_t e = 0; e < kNodes * kOutSlots; ++e) {
    const std::uint32_t owner = e / kOutSlots;
    targets.push_back(e % 7 == 0 ? NodeId::kInvalidSlot
                                 : (owner + 1 + (e * e) % (kNodes - 1)) %
                                       kNodes);
  }
  graph.bulk_wire_genesis(kOutSlots, targets, 1);
  EXPECT_TRUE(graph.check_consistency());  // no stale index survives
  EXPECT_TRUE(index_matches_scan(graph));
}

TEST(DegreeIndex, MatchesScanThroughPdgrAndSdgChurn) {
  // PDGR: regeneration plus the bounded-degree redraw path, with half of
  // the deaths aimed by the index itself.
  PoissonConfig pdgr =
      PoissonConfig::with_n(150, 4, EdgePolicy::kRegenerate, 17);
  pdgr.max_in_degree = 6;
  pdgr.churn = *ChurnSpec::parse("mindeg(0.5)");
  PoissonNetwork poisson(pdgr);
  poisson.warm_up(2.0);
  for (int event = 0; event < 1500; ++event) {
    poisson.step();
    ASSERT_TRUE(index_matches_scan(poisson.graph())) << "event " << event;
  }

  // SDG: no regeneration, so orphaned nodes drift to degree 0 and the
  // min rule must find the isolated ones.
  StreamingConfig sdg;
  sdg.n = 150;
  sdg.d = 2;
  sdg.policy = EdgePolicy::kNone;
  sdg.seed = 5;
  sdg.churn = *ChurnSpec::parse("maxdeg(0.5)");
  StreamingNetwork streaming(sdg);
  streaming.warm_up();
  int isolated_minima = 0;
  for (int round = 0; round < 600; ++round) {
    streaming.step();
    ASSERT_TRUE(index_matches_scan(streaming.graph())) << "round " << round;
    const DynamicGraphView view(streaming.graph());
    isolated_minima +=
        streaming.graph().degree(view.extreme_degree(false)) == 0;
  }
  EXPECT_GT(isolated_minima, 0);
}

// ---- differential oracles: eclipse and cutset -------------------------------

TEST(AdversaryPolicy, EclipseStarvesOnePersistentTarget) {
  ShadowView view(8);
  for (std::uint32_t s = 0; s < 8; ++s) view.birth(at(s));
  for (std::uint32_t s = 1; s < 8; ++s) view.link(at(0), at(s));  // star
  view.link(at(3), at(5));

  AdversaryPolicy policy({AdversaryRule::kEclipse, 1.0}, 11);
  const NodeId first = policy.select(view);
  const NodeId target = policy.eclipse_target();
  ASSERT_TRUE(target.valid());

  // Victims are always the target's smallest alive neighbor, and the
  // target survives until its neighborhood is gone.
  std::vector<NodeId> neighbors;
  view.append_neighbors(target, neighbors);
  ASSERT_FALSE(neighbors.empty());
  EXPECT_EQ(first, *std::min_element(neighbors.begin(), neighbors.end()));

  while (true) {
    neighbors.clear();
    view.append_neighbors(target, neighbors);
    if (neighbors.empty()) break;
    const NodeId victim = policy.select(view);
    EXPECT_EQ(policy.eclipse_target(), target);  // target is persistent
    EXPECT_EQ(victim,
              *std::min_element(neighbors.begin(), neighbors.end()));
    EXPECT_NE(victim, target);
    view.kill(victim);
    policy.on_death(victim);
  }
  // Eclipse achieved: the isolated target is spared; the next kill falls
  // on the smallest other alive node.
  const NodeId after = policy.select(view);
  EXPECT_NE(after, target);
  view.kill(after);
  policy.on_death(after);
  // Once the target itself dies, the policy re-targets a live node.
  view.kill(target);
  policy.on_death(target);
  EXPECT_EQ(policy.eclipse_target(), kInvalidNode);
  const NodeId fresh = policy.select(view);
  EXPECT_TRUE(fresh.valid());
  EXPECT_TRUE(view.alive_at(policy.eclipse_target().slot).valid());
  EXPECT_NE(policy.eclipse_target(), target);
  (void)fresh;
}

TEST(AdversaryPolicy, CutsetServesBoundaryOfSmallBall) {
  // Two cliques of 6 bridged by one edge: every grown ball stays inside
  // one clique (ball target = ceil(sqrt(12)) = 4 <= 6), so its boundary
  // members must each keep a neighbor outside the ball.
  ShadowView view(12);
  for (std::uint32_t s = 0; s < 12; ++s) view.birth(at(s));
  for (std::uint32_t a = 0; a < 6; ++a) {
    for (std::uint32_t b = a + 1; b < 6; ++b) view.link(at(a), at(b));
  }
  for (std::uint32_t a = 6; a < 12; ++a) {
    for (std::uint32_t b = a + 1; b < 12; ++b) view.link(at(a), at(b));
  }
  view.link(at(0), at(6));  // the bridge

  AdversaryPolicy policy({AdversaryRule::kCutSet, 1.0}, 3);
  const NodeId victim = policy.select(view);
  const std::vector<NodeId> ball = policy.cutset_ball();
  const std::vector<NodeId> boundary = policy.cutset_boundary();
  ASSERT_FALSE(ball.empty());
  ASSERT_FALSE(boundary.empty());
  EXPECT_EQ(victim, boundary.front());  // queue is served in id order
  EXPECT_TRUE(std::is_sorted(boundary.begin(), boundary.end()));

  // Every boundary member really sits on the cut: it has a neighbor
  // outside the ball.
  const auto in_ball = [&](NodeId id) {
    return std::find(ball.begin(), ball.end(), id) != ball.end();
  };
  for (const NodeId member : boundary) {
    EXPECT_TRUE(in_ball(member));
    std::vector<NodeId> neighbors;
    view.append_neighbors(member, neighbors);
    EXPECT_TRUE(std::any_of(neighbors.begin(), neighbors.end(),
                            [&](NodeId peer) { return !in_ball(peer); }))
        << "boundary node without an outside edge";
  }

  // Served victims skip nodes that died of other causes in between.
  if (boundary.size() >= 2) {
    const NodeId second = boundary[1];
    view.kill(victim);
    policy.on_death(victim);
    view.kill(second);
    policy.on_death(second);
    const NodeId next = policy.select(view);
    EXPECT_NE(next, second);
    EXPECT_TRUE(view.alive_at(next.slot) == next);
  }
}

// ---- budget semantics -------------------------------------------------------

TEST(AdversaryPolicy, BudgetBoundariesDrawNothingAndInteriorMatchesRate) {
  AdversaryPolicy zero({AdversaryRule::kMaxDegree, 0.0}, 5);
  AdversaryPolicy one({AdversaryRule::kMaxDegree, 1.0}, 5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(zero.take_death());
    EXPECT_TRUE(one.take_death());
  }
  AdversaryPolicy partial({AdversaryRule::kMaxDegree, 0.3}, 5);
  int taken = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) taken += partial.take_death();
  const double fraction = static_cast<double>(taken) / kTrials;
  EXPECT_NEAR(fraction, 0.3, 0.02);
}

// ---- integration oracles on the real networks -------------------------------

TEST(AdversarialNetworks, PoissonMaxdegKillsTheCurrentHub) {
  PoissonConfig config = PoissonConfig::with_n(250, 4, EdgePolicy::kRegenerate,
                                               9);
  config.churn = *ChurnSpec::parse("maxdeg(1)");
  PoissonNetwork net(config);
  net.warm_up(3.0);

  int deaths = 0;
  NetworkHooks hooks;
  hooks.on_death = [&](NodeId victim, double) {
    // The hook fires before the victim is detached, so the maxdeg
    // invariant is checkable against the live graph: no alive node has a
    // strictly larger degree, and no smaller slot ties the victim's.
    const std::uint32_t victim_degree = net.graph().degree(victim);
    for (const NodeId node : net.graph().alive_nodes()) {
      const std::uint32_t degree = net.graph().degree(node);
      EXPECT_LE(degree, victim_degree);
      if (node.slot < victim.slot) EXPECT_LT(degree, victim_degree);
    }
    ++deaths;
  };
  net.set_hooks(std::move(hooks));
  net.run_events(400);
  EXPECT_GT(deaths, 50);
}

TEST(AdversarialNetworks, StreamingMaxdegKeepsScheduleAndKillsHubs) {
  StreamingConfig config;
  config.n = 120;
  config.d = 4;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 21;
  config.churn = *ChurnSpec::parse("maxdeg(1)");
  StreamingNetwork net(config);
  net.warm_up();
  ASSERT_EQ(net.graph().alive_count(), config.n);

  int deaths = 0;
  NetworkHooks hooks;
  hooks.on_death = [&](NodeId victim, double) {
    const std::uint32_t victim_degree = net.graph().degree(victim);
    for (const NodeId node : net.graph().alive_nodes()) {
      EXPECT_LE(net.graph().degree(node), victim_degree);
    }
    ++deaths;
  };
  net.set_hooks(std::move(hooks));
  const std::uint64_t start_round = net.round();
  net.run_rounds(200);
  // The round schedule is untouched: one death + one birth per round, the
  // population stays pinned at n.
  EXPECT_EQ(net.round(), start_round + 200);
  EXPECT_EQ(deaths, 200);
  EXPECT_EQ(net.graph().alive_count(), config.n);
}

// ---- byte-identity: budget 0 == base regime ---------------------------------

std::uint64_t graph_fingerprint(const DynamicGraph& graph) {
  // FNV-1a over (id, birth_seq, out-targets) of every alive node — the
  // same observable-surface checksum bench_perf_suite pins.
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto add = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  for (const NodeId node : graph.alive_nodes()) {
    add((static_cast<std::uint64_t>(node.slot) << 32) | node.generation);
    add(graph.birth_seq(node));
    for (std::uint32_t i = 0; i < graph.out_slot_count(node); ++i) {
      const NodeId target = graph.out_target(node, i);
      add((static_cast<std::uint64_t>(target.slot) << 32) |
          target.generation);
    }
  }
  return hash;
}

TEST(AdversarialNetworks, PoissonBudgetZeroIsByteIdenticalToPoisson) {
  for (const char* rule : {"maxdeg(0)", "mindeg(0)", "cutset(0)",
                           "eclipse(0)"}) {
    PoissonConfig base = PoissonConfig::with_n(200, 5, EdgePolicy::kRegenerate,
                                               31);
    PoissonConfig adv = base;
    adv.churn = *ChurnSpec::parse(rule);
    PoissonNetwork base_net(base);
    PoissonNetwork adv_net(adv);
    base_net.warm_up(4.0);
    adv_net.warm_up(4.0);
    base_net.run_events(500);
    adv_net.run_events(500);
    EXPECT_EQ(graph_fingerprint(base_net.graph()),
              graph_fingerprint(adv_net.graph()))
        << rule;
    EXPECT_EQ(base_net.now(), adv_net.now()) << rule;
  }
}

TEST(AdversarialNetworks, StreamingBudgetZeroIsByteIdenticalToStream) {
  StreamingConfig base;
  base.n = 150;
  base.d = 5;
  base.policy = EdgePolicy::kRegenerate;
  base.seed = 77;
  StreamingConfig adv = base;
  adv.churn = *ChurnSpec::parse("cutset(0)");
  StreamingNetwork base_net(base);
  StreamingNetwork adv_net(adv);
  base_net.warm_up();
  adv_net.warm_up();
  base_net.run_rounds(300);
  adv_net.run_rounds(300);
  EXPECT_EQ(graph_fingerprint(base_net.graph()),
            graph_fingerprint(adv_net.graph()));
  EXPECT_EQ(base_net.round(), adv_net.round());
}

// ---- thread-count invariance ------------------------------------------------

TEST(AdversarialSweeps, CsvIsIdenticalAtOneAndEightThreads) {
  SweepSpec spec;
  spec.scenarios = {"SDGR+maxdeg(1)", "PDGR+eclipse(0.5)",
                    "PDGR+cutset(0.5)", "PDGR+massfail(0.2,1)",
                    "PDGR+flashcrowd(0.25,1)"};
  spec.n_values = {200};
  spec.d_values = {4};
  spec.metrics = {"alive", "isolated", "completion_step", "final_fraction"};
  spec.replications = 2;
  spec.base_seed = 4242;
  const auto csv_at = [&spec](unsigned threads) {
    std::ostringstream os;
    SweepRunner(spec).run(threads).write_csv(os);
    return os.str();
  };
  const std::string t1 = csv_at(1);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, csv_at(8));
}

// ---- burst churn: exact sizes and closed-form trajectory --------------------

/// Drives a BurstChurn standalone against a population counter, recording
/// the pre-burst population and checking each burst's event count.
struct BurstRun {
  double mean_pre_burst = 0.0;
  std::uint64_t bursts = 0;
};

BurstRun drive_bursts(BurstChurn& churn, double frac,
                      std::uint64_t population, std::uint64_t target_bursts,
                      bool expect_births) {
  BurstRun run;
  double pre_burst_sum = 0.0;
  while (run.bursts < target_bursts) {
    const std::uint64_t before = population;
    const std::uint64_t bursts_before = churn.bursts_fired();
    ChurnProcess::Step step = churn.next(population);
    if (churn.bursts_fired() > bursts_before) {
      // A burst begins: size was fixed from the pre-burst population, and
      // every burst event shares the boundary timestamp and direction.
      const std::uint64_t size = churn.last_burst_size();
      EXPECT_EQ(size, static_cast<std::uint64_t>(
                          frac * static_cast<double>(before)));
      pre_burst_sum += static_cast<double>(before);
      ++run.bursts;
      const double burst_time = step.time;
      for (std::uint64_t i = 0; i < size; ++i) {
        if (i > 0) step = churn.next(population);
        EXPECT_EQ(step.time, burst_time);  // one timestamp per burst
        EXPECT_EQ(step.is_birth, expect_births);
        EXPECT_EQ(step.victim, ChurnProcess::Victim::kUniform);
        population += step.is_birth ? 1 : std::uint64_t(-1);
      }
      continue;
    }
    population += step.is_birth ? 1 : std::uint64_t(-1);
  }
  run.mean_pre_burst = pre_burst_sum / static_cast<double>(run.bursts);
  return run;
}

TEST(BurstChurn, MassfailBurstsAreExactAndTrackTheFixedPoint) {
  constexpr std::uint64_t kN = 2000;
  const double mu = 1.0 / static_cast<double>(kN);
  BurstChurn churn(BurstChurn::Kind::kMassFail, 0.3, 1.0, 1.0, mu, 17);
  EXPECT_EQ(churn.name(), "massfail(0.30,1.00)");
  const BurstRun run = drive_bursts(churn, 0.3, kN, 60, /*expect_births=*/false);
  // Fixed point of N |-> ((1-p)N - n)e^{-T} + n at p=0.3, T=1:
  // N_b = n(1-e^{-1})/(1-0.7e^{-1}) ~ 0.8513n.
  const double expected =
      static_cast<double>(kN) * (1.0 - std::exp(-1.0)) /
      (1.0 - 0.7 * std::exp(-1.0));
  EXPECT_NEAR(run.mean_pre_burst / expected, 1.0, 0.08);
}

TEST(BurstChurn, FlashcrowdBurstsAreExactAndTrackTheFixedPoint) {
  constexpr std::uint64_t kN = 2000;
  const double mu = 1.0 / static_cast<double>(kN);
  BurstChurn churn(BurstChurn::Kind::kFlashCrowd, 0.25, 1.0, 1.0, mu, 23);
  EXPECT_EQ(churn.name(), "flashcrowd(0.25,1.00)");
  const BurstRun run = drive_bursts(churn, 0.25, kN, 60, /*expect_births=*/true);
  // Fixed point with growth factor (1+f), f=0.25, T=1 (converges because
  // (1+f)e^{-T} < 1): N_b = n(1-e^{-1})/(1-1.25e^{-1}) ~ 1.170n.
  const double expected =
      static_cast<double>(kN) * (1.0 - std::exp(-1.0)) /
      (1.0 - 1.25 * std::exp(-1.0));
  EXPECT_NEAR(run.mean_pre_burst / expected, 1.0, 0.08);
}

TEST(BurstChurn, BaselineBetweenBurstsIsTheJumpChainMix) {
  // Between bursts, births arrive with probability lambda/(lambda+N*mu)
  // per event; at N pinned near n = lambda/mu that is ~1/2.
  constexpr std::uint64_t kN = 5000;
  const double mu = 1.0 / static_cast<double>(kN);
  BurstChurn churn(BurstChurn::Kind::kMassFail, 0.1, 50.0, 1.0, mu, 3);
  std::uint64_t population = kN;
  std::uint64_t births = 0, events = 0;
  while (events < 30000 && churn.bursts_fired() == 0) {
    const ChurnProcess::Step step = churn.next(population);
    births += step.is_birth;
    population += step.is_birth ? 1 : std::uint64_t(-1);
    ++events;
  }
  ASSERT_EQ(churn.bursts_fired(), 0u);  // period 50 lifetimes: no burst yet
  const double fraction =
      static_cast<double>(births) / static_cast<double>(events);
  EXPECT_NEAR(fraction, 0.5, 0.02);
}

TEST(BurstChurn, PoissonNetworkRealizesBurstDeathsAtOneTimestamp) {
  PoissonConfig config = PoissonConfig::with_n(400, 3, EdgePolicy::kRegenerate,
                                               13);
  config.churn = *ChurnSpec::parse("massfail(0.2,1)");
  PoissonNetwork net(config);
  net.warm_up(2.0);
  // Count deaths per timestamp; burst instants must carry mass >= 2 while
  // baseline timestamps are unique (continuous distributions).
  std::vector<std::pair<double, int>> death_clusters;
  NetworkHooks hooks;
  hooks.on_death = [&](NodeId, double time) {
    if (!death_clusters.empty() && death_clusters.back().first == time) {
      ++death_clusters.back().second;
    } else {
      death_clusters.push_back({time, 1});
    }
  };
  net.set_hooks(std::move(hooks));
  const double horizon = net.now() + 3.0 * 400.0;  // three burst periods
  net.run_until(horizon);
  int bursts_seen = 0;
  for (const auto& [time, count] : death_clusters) {
    if (count >= 2) ++bursts_seen;
  }
  EXPECT_GE(bursts_seen, 2);
  EXPECT_LE(bursts_seen, 4);
}

// ---- allocation hygiene -----------------------------------------------------

TEST(AdversarialChurnAllocation, SteadyStatePathsAllocateNothing) {
  constexpr std::uint64_t kN = 1000;
  const double mu = 1.0 / static_cast<double>(kN);
  BurstChurn bursts(BurstChurn::Kind::kMassFail, 0.2, 1.0, 1.0, mu, 29);
  std::uint64_t population = kN;
  // Warm one full period so the burst path has executed at least once.
  for (int i = 0; i < 5000; ++i) {
    const ChurnProcess::Step step = bursts.next(population);
    population += step.is_birth ? 1 : std::uint64_t(-1);
  }
  ShadowView view(64);
  for (std::uint32_t s = 0; s < 64; ++s) view.birth(at(s));
  for (std::uint32_t s = 0; s < 63; ++s) view.link(at(s), at(s + 1));
  AdversaryPolicy maxdeg({AdversaryRule::kMaxDegree, 0.5}, 101);
  (void)maxdeg.select(view);  // warm any lazy scratch

  // Warmed degree-adversary networks: after a conditioning window (as in
  // test_graph_stress.cpp) the degree index has reached its slot capacity
  // and bucket count, so its updates and picks only flip existing bits.
  PoissonConfig maxdeg_config =
      PoissonConfig::with_n(1000, 8, EdgePolicy::kRegenerate, 31);
  maxdeg_config.churn = *ChurnSpec::parse("maxdeg(0.5)");
  PoissonConfig mindeg_config = maxdeg_config;
  mindeg_config.churn = *ChurnSpec::parse("mindeg(0.5)");
  PoissonNetwork maxdeg_net(maxdeg_config);
  PoissonNetwork mindeg_net(mindeg_config);
  for (PoissonNetwork* net : {&maxdeg_net, &mindeg_net}) {
    net->warm_up();
    net->run_events(20000);
  }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  maxdeg_net.run_events(20000);
  mindeg_net.run_events(20000);
  for (int i = 0; i < 20000; ++i) {
    const ChurnProcess::Step step = bursts.next(population);
    population += step.is_birth ? 1 : std::uint64_t(-1);
  }
  for (int i = 0; i < 500; ++i) {
    (void)maxdeg.take_death();
    (void)maxdeg.select(view);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state burst/selection/adversary path touched the allocator";
}

// ---- spec grammar -----------------------------------------------------------

TEST(AdversarialChurnSpec, ParsesDocumentedFormsAndDefaults) {
  const ChurnSpec maxdeg = *ChurnSpec::parse("maxdeg(0.5)");
  EXPECT_EQ(maxdeg.kind, ChurnSpec::Kind::kMaxDeg);
  EXPECT_DOUBLE_EQ(maxdeg.a, 0.5);
  EXPECT_TRUE(maxdeg.adversarial());
  EXPECT_EQ(maxdeg.adversary_config().rule, AdversaryRule::kMaxDegree);
  EXPECT_DOUBLE_EQ(maxdeg.adversary_config().budget, 0.5);

  EXPECT_EQ(ChurnSpec::parse("mindeg(0.25)")->adversary_config().rule,
            AdversaryRule::kMinDegree);
  EXPECT_EQ(ChurnSpec::parse("cutset")->adversary_config().rule,
            AdversaryRule::kCutSet);
  EXPECT_EQ(ChurnSpec::parse("ECLIPSE( 0.75 )")->adversary_config().rule,
            AdversaryRule::kEclipse);

  // Omitted budgets default to 1 (a fully adversarial regime).
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("maxdeg")->a, 1.0);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("eclipse()")->a, 1.0);

  const ChurnSpec massfail = *ChurnSpec::parse("massfail(0.3,2)");
  EXPECT_EQ(massfail.kind, ChurnSpec::Kind::kMassFail);
  EXPECT_DOUBLE_EQ(massfail.a, 0.3);
  EXPECT_DOUBLE_EQ(massfail.b, 2.0);
  EXPECT_FALSE(massfail.adversarial());
  EXPECT_TRUE(massfail.continuous());

  // Burst defaults: fraction 0.1, period 1 lifetime.
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("massfail")->a, 0.1);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("massfail")->b, 1.0);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("flashcrowd(0.5)")->b, 1.0);
}

TEST(AdversarialChurnSpec, CanonicalRoundTrips) {
  for (const char* text :
       {"maxdeg(0.5)", "mindeg(1)", "cutset(0.25)", "eclipse(0.75)",
        "massfail(0.1,1)", "flashcrowd(0.25,2)"}) {
    const ChurnSpec spec = *ChurnSpec::parse(text);
    const std::optional<ChurnSpec> reparsed =
        ChurnSpec::parse(spec.canonical());
    ASSERT_TRUE(reparsed.has_value()) << spec.canonical();
    EXPECT_EQ(*reparsed, spec) << spec.canonical();
  }
}

TEST(AdversarialChurnSpec, RejectsMalformedSpecsWithClearErrors) {
  const auto error_of = [](std::string_view text) {
    std::string error;
    EXPECT_FALSE(ChurnSpec::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
    return error;
  };
  // Wrong arity.
  EXPECT_NE(error_of("maxdeg(0.5,2)").find("argument"), std::string::npos);
  EXPECT_NE(error_of("massfail(0.1,1,2)").find("argument"),
            std::string::npos);
  // Out-of-range budgets (and NaN, rejected by the negated-predicate
  // checks).
  EXPECT_NE(error_of("maxdeg(1.5)").find("budget must be in [0,1]"),
            std::string::npos);
  EXPECT_NE(error_of("mindeg(-0.1)").find("budget must be in [0,1]"),
            std::string::npos);
  EXPECT_NE(error_of("eclipse(nan)").find("budget"), std::string::npos);
  // Burst parameters out of range.
  EXPECT_NE(error_of("massfail(1,1)").find("fraction must be in (0,1)"),
            std::string::npos);
  EXPECT_NE(error_of("massfail(0)").find("fraction"), std::string::npos);
  EXPECT_NE(error_of("massfail(0.1,0)").find("period"), std::string::npos);
  EXPECT_NE(error_of("flashcrowd(0)").find("burst fraction"),
            std::string::npos);
  EXPECT_NE(error_of("flashcrowd(0.2,-1)").find("period"),
            std::string::npos);
  // Unknown names list the full catalog.
  const std::string unknown = error_of("sybil(0.5)");
  EXPECT_NE(unknown.find("unknown churn regime"), std::string::npos);
  EXPECT_NE(unknown.find("maxdeg"), std::string::npos);
  EXPECT_NE(unknown.find("flashcrowd"), std::string::npos);
}

TEST(AdversarialChurnSpec, FlashCrowdNeedsAStationaryPopulation) {
  // Between bursts the population relaxes toward n by e^{-T}; each burst
  // scales it by 1+f. The pre-burst size is finite only while
  // (1+f)e^{-T} < 1, i.e. T > ln(1+f).
  const auto rejects = [](std::string_view text) {
    std::string error;
    const bool parsed = ChurnSpec::parse(text, &error).has_value();
    EXPECT_FALSE(parsed) << text;
    EXPECT_NE(error.find("no stationary population"), std::string::npos)
        << text << ": " << error;
  };
  // f = 1: the boundary is T = ln 2 = 0.6931...
  rejects("flashcrowd(1,0.693)");  // 2e^{-0.693} = 1.00015
  EXPECT_TRUE(ChurnSpec::parse("flashcrowd(1,0.694)").has_value());
  // T = 1: the boundary is f = e - 1 = 1.71828...
  rejects("flashcrowd(1.7183,1)");  // 2.7183e^{-1} = 1.0000066
  EXPECT_TRUE(ChurnSpec::parse("flashcrowd(1.7182,1)").has_value());
  // The regime that ran away to 30x its n under PDGR before this check.
  rejects("flashcrowd(2,1)");
  // The shipped resilience regimes stay valid.
  EXPECT_TRUE(ChurnSpec::parse("flashcrowd(0.25,1)").has_value());
  EXPECT_TRUE(ChurnSpec::parse("flashcrowd").has_value());
}

TEST(AdversarialChurnSpecDeathTest, IncompatibleModelSpecPairsAbort) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  // Streaming models accept adversarial specs but not burst regimes (the
  // round schedule is size-pinned).
  EXPECT_DEATH(
      registry.at("SDGR").with_churn(*ChurnSpec::parse("massfail(0.1,1)")),
      "streaming models take only");
  // Baselines take no churn spec at all.
  EXPECT_DEATH(
      registry.at("static-dout").with_churn(*ChurnSpec::parse("maxdeg(1)")),
      "no churn spec");
}

TEST(BurstChurnDeathTest, ConstructorRejectsDegenerateParameters) {
  // A massfail fraction of 1 would fix a burst size that kills into an
  // empty graph; non-positive periods would live-lock the boundary loop.
  EXPECT_DEATH(
      BurstChurn(BurstChurn::Kind::kMassFail, 1.0, 1.0, 1.0, 0.01, 1),
      "frac");
  EXPECT_DEATH(
      BurstChurn(BurstChurn::Kind::kFlashCrowd, 0.0, 1.0, 1.0, 0.01, 1),
      "frac");
  EXPECT_DEATH(
      BurstChurn(BurstChurn::Kind::kMassFail, 0.5, 0.0, 1.0, 0.01, 1),
      "period");
}

// ---- catalog completeness ---------------------------------------------------

TEST(AdversarialChurnSpec, CatalogKnownNamesAndFactoryStayComplete) {
  const auto catalog = ChurnSpec::catalog();
  const std::vector<std::string> names = ChurnSpec::known_names();

  // Every known name has exactly one catalog row, and every catalog row's
  // call name is known — the two listings cannot drift apart.
  for (const std::string& name : names) {
    int rows = 0;
    for (const auto& [spelling, description] : catalog) {
      if (spec_call_name(spelling) == name) ++rows;
    }
    EXPECT_EQ(rows, 1) << "catalog rows for '" << name << "'";
    EXPECT_TRUE(ChurnSpec::is_known_name(name)) << name;
  }
  for (const auto& [spelling, description] : catalog) {
    const std::string call = spec_call_name(spelling);
    EXPECT_TRUE(std::find(names.begin(), names.end(), call) != names.end())
        << "catalog spelling '" << spelling << "' not a known name";
    EXPECT_FALSE(description.empty()) << spelling;
  }

  // Every known name parses bare (documented defaults), and for every
  // continuous regime the factory-built process reports the canonical
  // spelling as its name (the ProcessNamesMatchCanonicalSpecs contract,
  // extended to the adversarial and burst regimes).
  for (const std::string& name : names) {
    const std::optional<ChurnSpec> spec = ChurnSpec::parse(name);
    ASSERT_TRUE(spec.has_value()) << name;
    if (!spec->continuous()) continue;  // "stream" is built by the model
    const auto process = make_churn_process(*spec, 1.0, 0.001, 7);
    ASSERT_NE(process, nullptr) << name;
    EXPECT_EQ(process->name(), spec->canonical()) << name;
  }
}

}  // namespace
}  // namespace churnet
