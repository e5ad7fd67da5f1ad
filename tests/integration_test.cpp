// End-to-end integration tests: distributed protocol -> extracted schedule
// -> Algorithm 1 verification -> simulated attacker, cross-checked against
// each other on deterministic (ideal radio) runs.
#include <gtest/gtest.h>

#include "slpdas/attacker/runtime.hpp"
#include "slpdas/core/experiment.hpp"
#include "slpdas/verify/das_checker.hpp"
#include "slpdas/verify/safety_period.hpp"
#include "slpdas/verify/verify_schedule.hpp"
#include "test_util.hpp"

namespace slpdas {
namespace {

using test::fast_parameters;
using test::make_protectionless_net;
using test::make_slp_net;
using test::run_setup;

/// With an ideal radio the simulated (1,0,1)-first-heard attacker and the
/// min-slot trace semantics of Algorithm 1 describe the same walk, so
/// "simulation captures within delta" must agree with "VerifySchedule finds
/// a counterexample within delta" on the line (where the walk is forced).
TEST(IntegrationTest, SimulationAgreesWithVerifierOnLine) {
  auto net = make_protectionless_net(wsn::make_line(6), fast_parameters(16), 3);
  attacker::AttackerParams params;
  params.start = net.topology.sink;
  attacker::AttackerRuntime eavesdropper(*net.simulator, net.params.frame(),
                                         params, net.topology.source);
  const sim::SimTime activation = net.setup_end();
  run_setup(net);
  eavesdropper.activate(activation);
  const auto schedule = das::extract_schedule(*net.simulator);
  ASSERT_TRUE(schedule.complete());

  const verify::SafetyPeriod safety = verify::compute_safety_period(
      net.topology.graph, net.topology.source, net.topology.sink);
  const verify::VerifyAttacker verify_attacker{.start = net.topology.sink};
  const auto verdict =
      verify::verify_schedule(net.topology.graph, schedule, verify_attacker,
                              safety.periods, net.topology.source);

  net.simulator->run_until(activation +
                           safety.duration(net.params.frame()));
  EXPECT_EQ(eavesdropper.captured(), !verdict.slp_aware);
  if (eavesdropper.captured()) {
    // The verifier's counterexample is a genuine prefix-free walk ending at
    // the source, matching the simulated trail's endpoints.
    EXPECT_EQ(verdict.counterexample.front(), eavesdropper.trail().front());
    EXPECT_EQ(verdict.counterexample.back(), eavesdropper.trail().back());
  }
}

TEST(IntegrationTest, VerifierCounterexampleReplaysInSimulation) {
  // Grid run: when Algorithm 1 says "captured via pc", replaying the same
  // seed in simulation must produce exactly that walk (ideal radio makes
  // the first-heard attacker deterministic given the schedule).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto net =
        make_protectionless_net(wsn::make_grid(5), fast_parameters(), seed);
    attacker::AttackerParams params;
    params.start = net.topology.sink;
    attacker::AttackerRuntime eavesdropper(*net.simulator, net.params.frame(),
                                           params, net.topology.source);
    const sim::SimTime activation = net.setup_end();
    run_setup(net);
    eavesdropper.activate(activation);
    const auto schedule = das::extract_schedule(*net.simulator);
    ASSERT_TRUE(schedule.complete()) << "seed " << seed;

    const verify::VerifyAttacker verify_attacker{.start = net.topology.sink};
    const verify::SafetyPeriod safety = verify::compute_safety_period(
        net.topology.graph, net.topology.source, net.topology.sink);
    const auto verdict =
        verify::verify_schedule(net.topology.graph, schedule, verify_attacker,
                                safety.periods, net.topology.source);
    net.simulator->run_until(activation +
                             safety.duration(net.params.frame()));
    EXPECT_EQ(eavesdropper.captured(), !verdict.slp_aware)
        << "seed " << seed << ": " << verdict.to_string();
    if (!verdict.slp_aware && eavesdropper.captured()) {
      EXPECT_EQ(verdict.counterexample, eavesdropper.trail())
          << "seed " << seed;
    }
  }
}

TEST(IntegrationTest, SlpReducesCaptureAcrossSeeds) {
  // The headline end-to-end comparison on a small grid with the bursty
  // radio: SLP DAS must capture at most as often as protectionless DAS
  // over the same seed set (and strictly less in aggregate when the
  // baseline captures at all).
  core::ExperimentConfig base;
  base.topology = wsn::TopologySpec::grid(7);
  base.parameters = fast_parameters(30);
  base.protocol = core::ProtocolKind::kProtectionlessDas;
  base.radio = core::RadioKind::kCasinoLab;
  base.runs = 24;
  base.base_seed = 11;

  core::ExperimentConfig slp = base;
  slp.protocol = core::ProtocolKind::kSlpDas;

  const auto base_result = core::run_experiment(base);
  const auto slp_result = core::run_experiment(slp);
  EXPECT_LE(slp_result.capture.successes(), base_result.capture.successes());
}

TEST(IntegrationTest, SchedulesStayValidUnderBurstyRadio) {
  core::ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(7);
  config.parameters = fast_parameters(30);
  config.protocol = core::ProtocolKind::kSlpDas;
  config.radio = core::RadioKind::kCasinoLab;
  config.runs = 12;
  config.base_seed = 3;
  const auto result = core::run_experiment(config);
  // Bursty loss may rarely delay full convergence, but the overwhelming
  // majority of runs must produce complete weak-DAS schedules.
  EXPECT_LE(result.schedule_incomplete_runs, 1);
  EXPECT_LE(result.weak_das_failures, 1);
}

TEST(IntegrationTest, DeliveryKeepsWorkingAfterRefinement) {
  auto net = make_slp_net(wsn::make_grid(5), fast_parameters(24), 21);
  const int data_periods = 10;
  net.simulator->run_until(net.setup_end() + data_periods * net.period());
  const auto& source = net.node(net.topology.source);
  const auto& sink = net.node(net.topology.sink);
  ASSERT_GT(source.generated_count(), 0u);
  // The decoy must not break convergecast: the sink still receives nearly
  // every datum.
  EXPECT_GE(sink.delivered_count(), source.generated_count() - 2);
}

}  // namespace
}  // namespace slpdas
