// Regression tests pinning the determinism contract: a (config, seed)
// pair fully determines a run, even when many runs execute concurrently,
// and aggregate results are bit-identical for any thread count.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "slpdas/core/experiment.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

ExperimentConfig small_config(ProtocolKind protocol) {
  ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(5);
  config.protocol = protocol;
  config.parameters = test::fast_parameters(24);
  config.radio = RadioKind::kCasinoLab;
  config.runs = 6;
  config.base_seed = 2017;
  return config;
}

/// Field-by-field equality over the whole RunResult, exact on doubles.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.captured, b.captured);
  EXPECT_EQ(a.capture_time_s.has_value(), b.capture_time_s.has_value());
  if (a.capture_time_s && b.capture_time_s) {
    EXPECT_EQ(*a.capture_time_s, *b.capture_time_s);
  }
  EXPECT_EQ(a.safety_periods, b.safety_periods);
  EXPECT_EQ(a.source_sink_distance, b.source_sink_distance);
  EXPECT_EQ(a.schedule_complete, b.schedule_complete);
  EXPECT_EQ(a.weak_das_ok, b.weak_das_ok);
  EXPECT_EQ(a.strong_das_ok, b.strong_das_ok);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.delivery_latency_s, b.delivery_latency_s);
  EXPECT_EQ(a.control_messages_per_node, b.control_messages_per_node);
  EXPECT_EQ(a.normal_messages_per_node, b.normal_messages_per_node);
  EXPECT_EQ(a.attacker_moves, b.attacker_moves);
}

TEST(DeterminismTest, RunIsAPureFunctionOfConfigAndSeed) {
  for (const ProtocolKind protocol :
       {ProtocolKind::kProtectionlessDas, ProtocolKind::kSlpDas,
        ProtocolKind::kPhantomRouting}) {
    const auto config = small_config(protocol);
    const RunResult a = test::run_seed(config, 99);
    const RunResult b = test::run_seed(config, 99);
    expect_identical(a, b);
  }
}

TEST(DeterminismTest, RunIsDeterministicUnderConcurrency) {
  // Eight threads hammer the same (config, seed); every result must match
  // the serial one, proving runs share no hidden mutable state.
  const auto config = small_config(ProtocolKind::kSlpDas);
  const RunResult expected = test::run_seed(config, 321);

  constexpr int kThreads = 8;
  std::vector<RunResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[static_cast<std::size_t>(i)] = test::run_seed(config, 321);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const RunResult& result : results) {
    expect_identical(expected, result);
  }
}

TEST(DeterminismTest, RunExperimentIsBitIdenticalForAnyThreadCount) {
  auto serial = small_config(ProtocolKind::kProtectionlessDas);
  serial.threads = 1;
  auto wide = serial;
  wide.threads = 4;
  const ExperimentResult a = run_experiment(serial);
  const ExperimentResult b = run_experiment(wide);
  EXPECT_EQ(a.capture.successes(), b.capture.successes());
  EXPECT_EQ(a.capture_time_s.mean(), b.capture_time_s.mean());
  EXPECT_EQ(a.capture_time_s.stddev(), b.capture_time_s.stddev());
  EXPECT_EQ(a.delivery_ratio.mean(), b.delivery_ratio.mean());
  EXPECT_EQ(a.delivery_ratio.stddev(), b.delivery_ratio.stddev());
  EXPECT_EQ(a.delivery_latency_s.mean(), b.delivery_latency_s.mean());
  EXPECT_EQ(a.control_messages_per_node.mean(),
            b.control_messages_per_node.mean());
  EXPECT_EQ(a.normal_messages_per_node.mean(),
            b.normal_messages_per_node.mean());
  EXPECT_EQ(a.attacker_moves.mean(), b.attacker_moves.mean());
  EXPECT_EQ(a.schedule_incomplete_runs, b.schedule_incomplete_runs);
  EXPECT_EQ(a.weak_das_failures, b.weak_das_failures);
  EXPECT_EQ(a.strong_das_failures, b.strong_das_failures);
}

TEST(DeterminismTest, PhantomRoutingRunMatchesGoldenSnapshot) {
  // Golden values captured from the PR-3 code base (before the typed
  // event core): the phantom-routing path is not covered by the sweep
  // document fingerprint in sweep_test, so this run pins it separately.
  // Regenerate deliberately (and say so in the commit) if phantom
  // behaviour is meant to change.
  const RunResult r =
      test::run_seed(small_config(ProtocolKind::kPhantomRouting), 99);
  EXPECT_FALSE(r.captured);
  EXPECT_FALSE(r.capture_time_s.has_value());
  EXPECT_EQ(r.safety_periods, 8);
  EXPECT_EQ(r.source_sink_distance, 4);
  EXPECT_EQ(r.delivery_ratio, 0.5);
  EXPECT_EQ(r.delivery_latency_s, 0.23699300000000001);
  EXPECT_EQ(r.control_messages_per_node, 4.0);
  EXPECT_EQ(r.normal_messages_per_node, 5.6799999999999997);
  EXPECT_EQ(r.attacker_moves, 5);
}

TEST(DeterminismTest, PerfCountersAreDeterministicAndAggregate) {
  const auto config = small_config(ProtocolKind::kSlpDas);
  const RunResult a = test::run_seed(config, 7);
  const RunResult b = test::run_seed(config, 7);
  EXPECT_GT(a.events_executed, 0u);
  EXPECT_GT(a.deliveries, 0u);
  EXPECT_GT(a.timer_fires, 0u);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.timer_fires, b.timer_fires);

  const ExperimentResult sum = aggregate_runs({a, b}, false);
  EXPECT_EQ(sum.events_executed, 2 * a.events_executed);
  EXPECT_EQ(sum.deliveries, 2 * a.deliveries);
  EXPECT_EQ(sum.timer_fires, 2 * a.timer_fires);
}

TEST(DeterminismTest, AggregateRunsFoldsInGivenOrder)
{
  std::vector<RunResult> runs(3);
  runs[0].delivery_ratio = 0.25;
  runs[1].delivery_ratio = 0.5;
  runs[1].captured = true;
  runs[1].capture_time_s = 1.5;
  runs[2].delivery_ratio = 1.0;
  runs[2].schedule_complete = true;
  runs[2].weak_das_ok = true;

  const ExperimentResult checked = aggregate_runs(runs, true);
  EXPECT_EQ(checked.runs, 3);
  EXPECT_EQ(checked.capture.trials(), 3u);
  EXPECT_EQ(checked.capture.successes(), 1u);
  EXPECT_EQ(checked.capture_time_s.count(), 1u);
  EXPECT_EQ(checked.capture_time_s.mean(), 1.5);
  EXPECT_EQ(checked.delivery_ratio.mean(), (0.25 + 0.5 + 1.0) / 3.0);
  EXPECT_EQ(checked.schedule_incomplete_runs, 2);
  EXPECT_EQ(checked.weak_das_failures, 2);
  EXPECT_EQ(checked.strong_das_failures, 3);

  const ExperimentResult unchecked = aggregate_runs(runs, false);
  EXPECT_EQ(unchecked.weak_das_failures, 0);
  EXPECT_EQ(unchecked.strong_das_failures, 0);
}

}  // namespace
}  // namespace slpdas::core
