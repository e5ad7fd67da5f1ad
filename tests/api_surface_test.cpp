// Cross-cutting API-surface tests: the umbrella header is self-sufficient,
// the paper-scale configurations construct end to end, and a handful of
// cross-module contracts hold that no single-module test pins down.
#include "slpdas/slpdas.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace slpdas {
namespace {

TEST(ApiSurfaceTest, UmbrellaHeaderCoversPaperWorkflow) {
  // Compiling this test proves the umbrella header pulls in every public
  // component; the body walks the README workflow on a miniature grid.
  const wsn::Topology topology = wsn::make_grid(5);
  core::Parameters params;
  params.minimum_setup_periods = 20;
  params.search_start_period = 12;
  params.neighbor_discovery_periods = 3;
  params.slot_period_s = 0.002;
  params.dissem_period_s = 0.05;

  sim::Simulator simulator(topology.graph, sim::make_casino_lab_noise(), 1);
  const slp::SlpConfig config = params.slp_config(topology);
  for (wsn::NodeId n = 0; n < topology.graph.node_count(); ++n) {
    simulator.add_process(n, std::make_unique<slp::SlpDas>(
                                 config, topology.sink, topology.source));
  }
  simulator.run_until(params.minimum_setup_periods * params.frame().period());

  const mac::Schedule schedule = das::extract_schedule(simulator);
  EXPECT_TRUE(schedule.complete());
  EXPECT_TRUE(
      verify::check_weak_das(topology.graph, schedule, topology.sink).ok());

  const auto safety = verify::compute_safety_period(
      topology.graph, topology.source, topology.sink);
  verify::VerifyAttacker attacker{.start = topology.sink};
  const auto verdict = verify::verify_schedule(
      topology.graph, schedule, attacker, safety.periods, topology.source);
  EXPECT_TRUE(verdict.slp_aware || !verdict.counterexample.empty());
}

TEST(ApiSurfaceTest, PaperScaleConfigurationsConstruct) {
  // All three evaluation grids with full Table I parameters instantiate
  // (processes, attacker, safety periods) without running the clock out.
  for (int side : {11, 15, 21}) {
    core::ExperimentConfig config;
    config.topology = wsn::TopologySpec::grid(side);
    config.protocol = core::ProtocolKind::kSlpDas;
    config.runs = 1;
    EXPECT_NO_THROW({
      const auto slp_config =
          config.parameters.slp_config(config.topology.build());
      EXPECT_EQ(slp_config.change_length,
                2 * (side / 2) - config.parameters.search_distance);
    });
  }
}

TEST(ApiSurfaceTest, ScheduleRoundTripsThroughCsvAndChecker) {
  // Protocol -> CSV -> parse -> checker: the full interchange loop.
  const wsn::Topology topology = wsn::make_grid(5);
  const auto built = das::build_centralized_das(topology.graph, topology.sink);
  std::stringstream buffer;
  mac::write_schedule_csv(built.schedule, buffer);
  const mac::Schedule loaded = mac::read_schedule_csv(buffer);
  EXPECT_EQ(loaded, built.schedule);
  EXPECT_TRUE(
      verify::check_strong_das(topology.graph, loaded, topology.sink).ok());
}

TEST(ApiSurfaceTest, ReachabilityConsistentWithVerifySchedule) {
  // Contract: verify_schedule says "captured in p periods" exactly when
  // the reachability analysis reports min period p for the source.
  const wsn::Topology topology = wsn::make_grid(7);
  const auto built = das::build_first_fit_das(topology.graph, topology.sink);
  verify::VerifyAttacker attacker{.start = topology.sink};
  const int cap = 100;
  const auto reach = verify::attacker_reachability(topology.graph,
                                                   built.schedule, attacker, cap);
  const auto verdict = verify::verify_schedule(
      topology.graph, built.schedule, attacker, cap, topology.source);
  const int reach_periods =
      reach.min_periods[static_cast<std::size_t>(topology.source)];
  if (verdict.slp_aware) {
    EXPECT_EQ(reach_periods, verify::ReachabilityResult::kUnreachablePeriod);
  } else {
    EXPECT_EQ(reach_periods, verdict.period);
  }
}

TEST(ApiSurfaceTest, ProtocolsShareTheAttackerRuntime) {
  // The same eavesdropper type hunts DAS and phantom traffic: both
  // simulations accept it without protocol-specific setup.
  const wsn::Topology topology = wsn::make_line(4);
  {
    sim::Simulator simulator(topology.graph, sim::make_ideal_radio(), 1);
    das::DasConfig config;
    config.minimum_setup_periods = 4;
    config.neighbor_discovery_periods = 2;
    for (wsn::NodeId n = 0; n < 4; ++n) {
      simulator.add_process(n, std::make_unique<das::ProtectionlessDas>(
                                   config, topology.sink, topology.source));
    }
    attacker::AttackerParams params;
    params.start = topology.sink;
    EXPECT_NO_THROW(attacker::AttackerRuntime(simulator, config.frame, params,
                                              topology.source));
  }
  {
    sim::Simulator simulator(topology.graph, sim::make_ideal_radio(), 1);
    phantom::PhantomConfig config;
    config.setup_periods = 4;
    config.hello_periods = 2;
    for (wsn::NodeId n = 0; n < 4; ++n) {
      simulator.add_process(n, std::make_unique<phantom::PhantomRouting>(
                                   config, topology.sink, topology.source));
    }
    attacker::AttackerParams params;
    params.start = topology.sink;
    EXPECT_NO_THROW(attacker::AttackerRuntime(
        simulator, mac::FrameConfig{}, params, topology.source));
  }
}

TEST(ApiSurfaceTest, RenderersAcceptProtocolOutput) {
  const wsn::Topology topology = wsn::make_grid(3);
  const auto built = das::build_centralized_das(topology.graph, topology.sink);
  mac::DotOptions options;
  options.schedule = &built.schedule;
  const std::string dot = mac::to_dot(topology, options);
  EXPECT_NE(dot.find("graph wsn"), std::string::npos);
  const std::string ascii =
      mac::render_grid_ascii(topology, 3, 3, &built.schedule);
  EXPECT_FALSE(ascii.empty());
}

}  // namespace
}  // namespace slpdas
