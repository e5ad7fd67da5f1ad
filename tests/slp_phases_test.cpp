// Tests for Phases 2 (node locator) and 3 (slot refinement) of the SLP
// protocol (paper Figures 3-4): the decoy path exists, fires earliest,
// preserves the DAS property, and measurably delays the verifying
// attacker compared to the protectionless schedule.
#include <gtest/gtest.h>

#include "slpdas/verify/das_checker.hpp"
#include "slpdas/verify/safety_period.hpp"
#include "slpdas/verify/verify_schedule.hpp"
#include "test_util.hpp"

namespace slpdas::slp {
namespace {

using test::fast_parameters;
using test::make_protectionless_net;
using test::make_slp_net;
using test::run_setup;

TEST(SlpPhasesTest, RedirectionStartNodeEmerges) {
  auto net = make_slp_net(wsn::make_grid(7), fast_parameters(30), 1);
  run_setup(net);
  int starts = 0;
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    starts += net.slp_node(n).is_redirection_start() ? 1 : 0;
  }
  EXPECT_GE(starts, 1);
}

TEST(SlpPhasesTest, DecoyPathNodesExistAndAreBounded) {
  // The decoy is best-effort per seed (the locator can dead-end), so sweep
  // seeds: most runs must grow a decoy, and every run must respect the CL
  // bound.
  core::Parameters params = fast_parameters(30);
  params.search_distance = 2;
  int runs_with_decoy = 0;
  const int seeds = 5;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    auto net = make_slp_net(wsn::make_grid(7), params, seed);
    run_setup(net);
    int decoy_nodes = 0;
    for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
      decoy_nodes += net.slp_node(n).on_decoy_path() ? 1 : 0;
    }
    const int change_length = params.resolved_change_length(net.topology);
    // Each of the (<= search_retries) searches grows at most one decoy path.
    EXPECT_LE(decoy_nodes,
              change_length * params.slp_config(net.topology).search_retries)
        << "seed " << seed;
    runs_with_decoy += decoy_nodes > 0 ? 1 : 0;
  }
  EXPECT_GE(runs_with_decoy, (seeds + 1) / 2);
}

TEST(SlpPhasesTest, GlobalMinimumSlotIsOnDecoyPath) {
  core::Parameters params = fast_parameters(30);
  params.search_distance = 2;
  auto net = make_slp_net(wsn::make_grid(7), params, 3);
  run_setup(net);
  const auto schedule = das::extract_schedule(*net.simulator);
  ASSERT_TRUE(schedule.complete());
  wsn::NodeId min_node = 0;
  for (wsn::NodeId n = 1; n < net.topology.graph.node_count(); ++n) {
    if (schedule.slot(n) < schedule.slot(min_node)) {
      min_node = n;
    }
  }
  EXPECT_TRUE(net.slp_node(min_node).on_decoy_path())
      << "global min slot at node " << min_node << " is not on the decoy";
}

TEST(SlpPhasesTest, RefinementPreservesWeakDas) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto net = make_slp_net(wsn::make_grid(7), fast_parameters(30), seed);
    run_setup(net);
    const auto schedule = das::extract_schedule(*net.simulator);
    EXPECT_TRUE(schedule.complete()) << "seed " << seed;
    const auto weak = verify::check_weak_das(net.topology.graph, schedule,
                                             net.topology.sink);
    EXPECT_TRUE(weak.ok()) << "seed " << seed << ": " << weak.summary();
  }
}

TEST(SlpPhasesTest, RefinementPreservesCollisionFreedom) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    auto net = make_slp_net(wsn::make_grid(5), fast_parameters(30), seed);
    run_setup(net);
    const auto schedule = das::extract_schedule(*net.simulator);
    const auto result = verify::check_noncolliding(
        net.topology.graph, schedule, net.topology.sink);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": " << result.summary();
  }
}

TEST(SlpPhasesTest, SearchAndChangeMessagesAreFew) {
  auto net = make_slp_net(wsn::make_grid(11), fast_parameters(34), 5);
  run_setup(net);
  const auto search = net.simulator->sent_of(das::SearchMessage::kName);
  const auto change = net.simulator->sent_of(das::ChangeMessage::kName);
  // "negligible message overhead": the whole Phase 2+3 machinery costs a
  // handful of messages in a 121-node network.
  EXPECT_GE(search, 1u);
  EXPECT_LE(search, 40u);
  EXPECT_GE(change, 1u);
  EXPECT_LE(change, 40u);
}

TEST(SlpPhasesTest, VerifiedCaptureNeverMoreFrequentThanProtectionless) {
  // Definition 5 condition 2, checked with Algorithm 1 instead of
  // simulation: across a seed sweep, the deterministic min-slot attacker
  // must capture under the SLP schedule in at most as many seeds as under
  // the protectionless schedule, and each capture it does achieve must not
  // be faster than the baseline's on the same seed.
  const core::Parameters params = fast_parameters(30);
  int base_captures = 0;
  int slp_captures = 0;
  const int cap = 1000;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto base_net = make_protectionless_net(wsn::make_grid(7), params, seed);
    run_setup(base_net);
    auto slp_net = make_slp_net(wsn::make_grid(7), params, seed);
    run_setup(slp_net);

    const auto base_schedule = das::extract_schedule(*base_net.simulator);
    const auto slp_schedule = das::extract_schedule(*slp_net.simulator);
    if (!base_schedule.complete() || !slp_schedule.complete()) {
      continue;
    }
    const verify::SafetyPeriod safety = verify::compute_safety_period(
        base_net.topology.graph, base_net.topology.source,
        base_net.topology.sink);
    verify::VerifyAttacker attacker;
    attacker.start = base_net.topology.sink;
    const auto base_capture = verify::min_capture_period(
        base_net.topology.graph, base_schedule, attacker,
        base_net.topology.source, cap);
    const auto slp_capture = verify::min_capture_period(
        slp_net.topology.graph, slp_schedule, attacker,
        slp_net.topology.source, cap);
    base_captures +=
        base_capture && *base_capture <= safety.periods ? 1 : 0;
    slp_captures += slp_capture && *slp_capture <= safety.periods ? 1 : 0;
  }
  EXPECT_LE(slp_captures, base_captures);
}

TEST(SlpPhasesTest, ConfigValidation) {
  SlpConfig config;
  config.das = fast_parameters(24).das_config();
  config.search_start_period = 16;
  config.search_distance = 0;
  EXPECT_THROW(SlpDas(config, 0, 1), std::invalid_argument);
  config.search_distance = 3;
  config.change_length = 0;
  EXPECT_THROW(SlpDas(config, 0, 1), std::invalid_argument);
  config.change_length = 4;
  config.search_start_period = 1;  // before discovery ends
  EXPECT_THROW(SlpDas(config, 0, 1), std::invalid_argument);
  config.search_start_period = 99;  // after data phase starts
  EXPECT_THROW(SlpDas(config, 0, 1), std::invalid_argument);
}

TEST(SlpPhasesTest, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    auto net = make_slp_net(wsn::make_grid(5), fast_parameters(30), seed);
    run_setup(net);
    return das::extract_schedule(*net.simulator);
  };
  EXPECT_EQ(run(42), run(42));
}

class SlpSearchDistanceSweep : public ::testing::TestWithParam<int> {};

TEST_P(SlpSearchDistanceSweep, WeakDasHoldsForAllSearchDistances) {
  core::Parameters params = fast_parameters(30);
  params.search_distance = GetParam();
  auto net = make_slp_net(wsn::make_grid(9), params, 23);
  run_setup(net);
  const auto schedule = das::extract_schedule(*net.simulator);
  EXPECT_TRUE(schedule.complete());
  const auto weak = verify::check_weak_das(net.topology.graph, schedule,
                                           net.topology.sink);
  EXPECT_TRUE(weak.ok()) << "SD=" << GetParam() << ": " << weak.summary();
}

INSTANTIATE_TEST_SUITE_P(SearchDistances, SlpSearchDistanceSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace slpdas::slp
