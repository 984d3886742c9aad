// The tentpole proof for the protocol layer: full flooding expressed
// through the DisseminationProtocol path (protocols/dissemination.hpp +
// FloodProtocol) must be bit-identical to an independent flood driver —
// the verbatim pre-bitset driver in legacy_flood_driver.hpp — with the
// same event sequence (per-step informed and alive counts), same terminal
// state, and the same informed set, on all four paper scenarios
// (streaming Def. 3.3 and discretized Def. 4.3 semantics) and on the
// churn-free baselines (BFS semantics).
//
// The comparison is exact equality, never tolerance: the two drivers run
// on two networks built from the same seed, which evolve identically
// because neither driver consumes network randomness (and FloodProtocol
// consumes no protocol randomness either).
#include <gtest/gtest.h>

#include <string>

#include "churnet/churnet.hpp"
#include "legacy_flood_driver.hpp"

namespace churnet {
namespace {

/// Runs the legacy reference driver on the typed model inside `net`.
FloodTrace legacy_flood(AnyNetwork& net, const FloodOptions& options,
                        LegacyFloodScratch& scratch) {
  if (auto* streaming = net.get_if<StreamingNetwork>()) {
    return legacy_flood_dynamic(*streaming, options, scratch);
  }
  if (auto* poisson = net.get_if<PoissonNetwork>()) {
    return legacy_flood_dynamic(*poisson, options, scratch);
  }
  auto* baseline = net.get_if<StaticNetwork>();
  CHURNET_EXPECTS(baseline != nullptr);
  return legacy_flood_dynamic(*baseline, options, scratch);
}

struct EquivalenceParam {
  const char* scenario;
  std::uint32_t n;
  std::uint32_t d;
  std::uint64_t seed;
};

std::string param_name(
    const ::testing::TestParamInfo<EquivalenceParam>& info) {
  std::string scenario = info.param.scenario;
  for (char& c : scenario) {
    if (c == '-') c = '_';
  }
  return scenario + "_n" + std::to_string(info.param.n) + "_d" +
         std::to_string(info.param.d) + "_s" +
         std::to_string(info.param.seed);
}

class ProtocolFloodEquivalence
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(ProtocolFloodEquivalence, FloodProtocolMatchesFloodDriverBitForBit) {
  const EquivalenceParam param = GetParam();
  const Scenario scenario =
      ScenarioRegistry::paper().resolve(param.scenario);
  ScenarioParams params;
  params.n = param.n;
  params.d = param.d;
  params.seed = param.seed;

  FloodOptions flood_options;
  flood_options.max_steps = 80;
  flood_options.stop_on_die_out = true;

  AnyNetwork reference_net = scenario.make_warmed(params);
  LegacyFloodScratch reference_scratch;
  const FloodTrace reference =
      legacy_flood(reference_net, flood_options, reference_scratch);

  AnyNetwork protocol_net = scenario.make_warmed(params);
  FloodProtocol protocol;
  ProtocolOptions options;
  options.flood = flood_options;
  ProtocolScratch protocol_scratch;
  const ProtocolResult result =
      protocol_net.disseminate(protocol, options, protocol_scratch);
  const FloodTrace& trace = result.trace;

  // Event sequence: the full per-step series, not just the endpoints.
  ASSERT_EQ(trace.informed_per_step, reference.informed_per_step);
  ASSERT_EQ(trace.alive_per_step, reference.alive_per_step);
  EXPECT_EQ(trace.steps, reference.steps);
  EXPECT_EQ(trace.completed, reference.completed);
  EXPECT_EQ(trace.completion_step, reference.completion_step);
  EXPECT_EQ(trace.died_out, reference.died_out);
  EXPECT_EQ(trace.die_out_step, reference.die_out_step);
  EXPECT_EQ(trace.peak_informed, reference.peak_informed);
  EXPECT_DOUBLE_EQ(trace.final_fraction, reference.final_fraction);

  // Informed sets: slot-for-slot identical terminal membership.
  const std::uint32_t bound = std::max(
      reference_net.graph().slot_upper_bound(),
      protocol_net.graph().slot_upper_bound());
  for (std::uint32_t slot = 0; slot < bound; ++slot) {
    const NodeId id{slot, 0};  // membership stamps are slot-indexed
    ASSERT_EQ(protocol_scratch.flood.is_informed(id),
              reference_scratch.is_informed(id))
        << "slot " << slot;
  }

  // The networks themselves evolved identically: neither driver consumed
  // network randomness beyond the shared source-selection path.
  EXPECT_EQ(protocol_net.graph().alive_count(),
            reference_net.graph().alive_count());
  EXPECT_EQ(protocol_net.graph().total_births(),
            reference_net.graph().total_births());

  // Flood-path accounting invariants: every node informed after the
  // source cost exactly one useful delivery, and nothing was lost.
  EXPECT_EQ(result.stats.useful_deliveries,
            protocol_scratch.informed.size() - 1);
  EXPECT_EQ(result.stats.lost_messages, 0u);
  EXPECT_EQ(result.stats.rounds, trace.steps);
  EXPECT_EQ(result.stats.completed, trace.completed);
  EXPECT_DOUBLE_EQ(result.stats.final_coverage, trace.final_fraction);
}

TEST_P(ProtocolFloodEquivalence, ScratchAndProtocolReuseStaysIdentical) {
  // One (protocol, scratch) pair across replications must behave exactly
  // like fresh objects: the epoch-stamped reset is complete.
  const EquivalenceParam param = GetParam();
  const Scenario scenario =
      ScenarioRegistry::paper().resolve(param.scenario);
  ScenarioParams params;
  params.n = param.n;
  params.d = param.d;
  params.seed = param.seed;

  ProtocolOptions options;
  options.flood.max_steps = 40;

  FloodProtocol reused_protocol;
  ProtocolScratch reused_scratch;
  for (int warm = 0; warm < 2; ++warm) {  // dirty the reused state
    AnyNetwork net = scenario.make_warmed(params);
    net.disseminate(reused_protocol, options, reused_scratch);
  }
  AnyNetwork reused_net = scenario.make_warmed(params);
  const ProtocolResult reused =
      reused_net.disseminate(reused_protocol, options, reused_scratch);

  AnyNetwork fresh_net = scenario.make_warmed(params);
  FloodProtocol fresh_protocol;
  const ProtocolResult fresh = fresh_net.disseminate(fresh_protocol, options);

  EXPECT_EQ(reused.trace.informed_per_step, fresh.trace.informed_per_step);
  EXPECT_EQ(reused.stats.messages_sent, fresh.stats.messages_sent);
  EXPECT_EQ(reused.stats.useful_deliveries, fresh.stats.useful_deliveries);
  EXPECT_EQ(reused.stats.duplicate_deliveries,
            fresh.stats.duplicate_deliveries);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolFloodEquivalence,
    ::testing::Values(
        // The four paper scenarios: streaming + discretized semantics.
        EquivalenceParam{"SDG", 60, 2, 1},
        EquivalenceParam{"SDG", 250, 4, 2},
        EquivalenceParam{"SDGR", 120, 3, 3},
        EquivalenceParam{"SDGR", 500, 8, 4},
        EquivalenceParam{"PDG", 60, 2, 5},
        EquivalenceParam{"PDG", 250, 6, 6},
        EquivalenceParam{"PDGR", 120, 4, 7},
        EquivalenceParam{"PDGR", 500, 8, 8},
        // Churn-free BFS semantics (uniform source via the network RNG).
        EquivalenceParam{"static-dout", 300, 4, 9},
        EquivalenceParam{"erdos-renyi", 300, 6, 10}),
    param_name);

TEST(ProtocolEquivalence, LosslessLossyWrapperIsBitIdenticalToFlood) {
  // lossy(1.0) never draws a coin and keeps the dedup fast path, so the
  // wrapper at q=1 is exactly the bare protocol.
  ScenarioParams params;
  params.n = 250;
  params.d = 4;
  params.seed = 11;
  const Scenario& scenario = ScenarioRegistry::paper().at("SDGR");

  AnyNetwork bare_net = scenario.make_warmed(params);
  FloodProtocol bare;
  const ProtocolResult bare_result = bare_net.disseminate(bare);

  AnyNetwork wrapped_net = scenario.make_warmed(params);
  LossyProtocol wrapped(std::make_unique<FloodProtocol>(), 1.0);
  const ProtocolResult wrapped_result = wrapped_net.disseminate(wrapped);

  EXPECT_EQ(wrapped_result.trace.informed_per_step,
            bare_result.trace.informed_per_step);
  EXPECT_EQ(wrapped_result.stats.messages_sent,
            bare_result.stats.messages_sent);
  EXPECT_EQ(wrapped_result.stats.lost_messages, 0u);
}

TEST(ProtocolEquivalence, UnboundedTtlIsBitIdenticalToFlood) {
  // A TTL no run can exhaust degenerates to full flooding.
  ScenarioParams params;
  params.n = 250;
  params.d = 4;
  params.seed = 12;
  for (const char* name : {"SDGR", "PDGR"}) {
    const Scenario& scenario = ScenarioRegistry::paper().at(name);

    AnyNetwork flood_net = scenario.make_warmed(params);
    FloodProtocol flood;
    const ProtocolResult flood_result = flood_net.disseminate(flood);

    AnyNetwork ttl_net = scenario.make_warmed(params);
    TtlFloodProtocol ttl(1u << 30);
    const ProtocolResult ttl_result = ttl_net.disseminate(ttl);

    EXPECT_EQ(ttl_result.trace.informed_per_step,
              flood_result.trace.informed_per_step)
        << name;
    EXPECT_EQ(ttl_result.stats.messages_sent,
              flood_result.stats.messages_sent)
        << name;
  }
}

}  // namespace
}  // namespace churnet
