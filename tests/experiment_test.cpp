// Tests for the experiment harness: single seeded runs (through
// RunBatch::Fork) and run_experiment.
#include "slpdas/core/experiment.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "slpdas/core/run_batch.hpp"
#include "slpdas/rng.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

ExperimentConfig small_config(ProtocolKind protocol, RadioKind radio,
                              int runs = 4) {
  ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(5);
  config.protocol = protocol;
  config.parameters = test::fast_parameters(24);
  config.radio = radio;
  config.runs = runs;
  config.base_seed = 7;
  config.threads = 2;
  return config;
}

TEST(SingleRunTest, DeterministicForSeed) {
  const auto config =
      small_config(ProtocolKind::kProtectionlessDas, RadioKind::kCasinoLab);
  const RunResult a = test::run_seed(config, 123);
  const RunResult b = test::run_seed(config, 123);
  EXPECT_EQ(a.captured, b.captured);
  EXPECT_EQ(a.capture_time_s, b.capture_time_s);
  EXPECT_EQ(a.control_messages_per_node, b.control_messages_per_node);
  EXPECT_EQ(a.normal_messages_per_node, b.normal_messages_per_node);
  EXPECT_EQ(a.attacker_moves, b.attacker_moves);
}

TEST(SingleRunTest, ReportsScheduleValidity) {
  const auto config =
      small_config(ProtocolKind::kProtectionlessDas, RadioKind::kIdeal);
  const RunResult result = test::run_seed(config, 5);
  EXPECT_TRUE(result.schedule_complete);
  EXPECT_TRUE(result.weak_das_ok);
  // Strong DAS is reported but not guaranteed: Phase 1 only orders a node
  // after its chosen parent, not after every shortest-path neighbour.
}

TEST(SingleRunTest, SafetyPeriodFieldsFilled) {
  const auto config =
      small_config(ProtocolKind::kProtectionlessDas, RadioKind::kIdeal);
  const RunResult result = test::run_seed(config, 5);
  EXPECT_EQ(result.source_sink_distance, 4);  // 5x5 grid corner->centre
  EXPECT_EQ(result.safety_periods, 8);        // ceil(1.5 * 5)
}

TEST(SingleRunTest, CaptureTimeWithinSafetyWhenCaptured) {
  const auto config =
      small_config(ProtocolKind::kProtectionlessDas, RadioKind::kIdeal);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RunResult result = test::run_seed(config, seed);
    if (result.captured) {
      ASSERT_TRUE(result.capture_time_s.has_value());
      const double safety_s =
          result.safety_periods *
          sim::to_seconds(config.parameters.frame().period());
      EXPECT_LE(*result.capture_time_s, safety_s);
    }
  }
}

TEST(SingleRunTest, SlpRunsProduceValidSchedulesToo) {
  const auto config = small_config(ProtocolKind::kSlpDas, RadioKind::kIdeal);
  const RunResult result = test::run_seed(config, 9);
  EXPECT_TRUE(result.schedule_complete);
  EXPECT_TRUE(result.weak_das_ok);
}

TEST(SingleRunTest, InvalidTopologyRejected) {
  const auto config =
      small_config(ProtocolKind::kProtectionlessDas, RadioKind::kIdeal);
  // Specs cannot express source == sink, but RunBatch still guards
  // against a degenerate caller-built topology.
  wsn::Topology topology = config.topology.build();
  topology.source = topology.sink;
  EXPECT_THROW((void)RunBatch(config, topology), std::invalid_argument);
}

TEST(RunExperimentTest, AggregatesAllRuns) {
  const auto config =
      small_config(ProtocolKind::kProtectionlessDas, RadioKind::kCasinoLab, 6);
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.runs, 6);
  EXPECT_EQ(result.capture.trials(), 6u);
  EXPECT_EQ(result.delivery_ratio.count(), 6u);
  EXPECT_GE(result.capture.ratio(), 0.0);
  EXPECT_LE(result.capture.ratio(), 1.0);
}

TEST(RunExperimentTest, ThreadCountDoesNotChangeResults) {
  auto config =
      small_config(ProtocolKind::kProtectionlessDas, RadioKind::kCasinoLab, 6);
  config.threads = 1;
  const auto serial = run_experiment(config);
  config.threads = 4;
  const auto parallel = run_experiment(config);
  EXPECT_EQ(serial.capture.successes(), parallel.capture.successes());
  EXPECT_DOUBLE_EQ(serial.control_messages_per_node.mean(),
                   parallel.control_messages_per_node.mean());
}

void expect_stats_equal(const metrics::RunningStats& a,
                        const metrics::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  if (a.count() > 0) {  // min and max of an empty stats block are NaN
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
  }
}

TEST(RunExperimentTest, EqualsAggregateOfForkRunsForEveryProtocol) {
  // run_experiment is a one-cell sweep whose cell seed is
  // config.base_seed: run i must still use derive_seed(base_seed, i), so
  // its aggregate equals folding one Fork's runs over those seeds, field
  // for field.
  for (const ProtocolKind protocol :
       {ProtocolKind::kProtectionlessDas, ProtocolKind::kSlpDas,
        ProtocolKind::kPhantomRouting}) {
    SCOPED_TRACE(to_string(protocol));
    const auto config = small_config(protocol, RadioKind::kCasinoLab, 5);
    const wsn::Topology topology = config.topology.build();
    const RunBatch batch(config, topology);
    RunBatch::Fork fork(batch);
    std::vector<RunResult> runs;
    for (int run = 0; run < config.runs; ++run) {
      runs.push_back(fork.run(
          derive_seed(config.base_seed, static_cast<std::uint64_t>(run))));
    }
    const ExperimentResult expected =
        aggregate_runs(runs, config.check_schedules);
    const ExperimentResult actual = run_experiment(config);

    EXPECT_EQ(actual.runs, expected.runs);
    EXPECT_EQ(actual.capture.trials(), expected.capture.trials());
    EXPECT_EQ(actual.capture.successes(), expected.capture.successes());
    expect_stats_equal(actual.capture_time_s, expected.capture_time_s);
    expect_stats_equal(actual.delivery_ratio, expected.delivery_ratio);
    expect_stats_equal(actual.delivery_latency_s, expected.delivery_latency_s);
    expect_stats_equal(actual.control_messages_per_node,
                       expected.control_messages_per_node);
    expect_stats_equal(actual.normal_messages_per_node,
                       expected.normal_messages_per_node);
    expect_stats_equal(actual.attacker_moves, expected.attacker_moves);
    expect_stats_equal(actual.slot_band_span, expected.slot_band_span);
    expect_stats_equal(actual.schedule_density, expected.schedule_density);
    EXPECT_EQ(actual.schedule_incomplete_runs,
              expected.schedule_incomplete_runs);
    EXPECT_EQ(actual.weak_das_failures, expected.weak_das_failures);
    EXPECT_EQ(actual.strong_das_failures, expected.strong_das_failures);
    EXPECT_EQ(actual.events_executed, expected.events_executed);
    EXPECT_EQ(actual.deliveries, expected.deliveries);
    EXPECT_EQ(actual.timer_fires, expected.timer_fires);
  }
}

TEST(RunExperimentTest, RejectsZeroRuns) {
  auto config =
      small_config(ProtocolKind::kProtectionlessDas, RadioKind::kIdeal);
  config.runs = 0;
  EXPECT_THROW((void)run_experiment(config), std::invalid_argument);
}

TEST(RunExperimentTest, SlpOverheadIsSmall) {
  const auto base = run_experiment(
      small_config(ProtocolKind::kProtectionlessDas, RadioKind::kIdeal, 3));
  const auto slp =
      run_experiment(small_config(ProtocolKind::kSlpDas, RadioKind::kIdeal, 3));
  // The paper's "negligible message overhead": a few control messages per
  // node extra at most.
  EXPECT_LT(slp.control_messages_per_node.mean(),
            base.control_messages_per_node.mean() + 5.0);
}

TEST(AttackerSpecTest, BuildAndLabel) {
  AttackerSpec spec;
  spec.messages_per_move = 2;
  spec.history_size = 1;
  spec.moves_per_period = 2;
  spec.decision = AttackerSpec::Decision::kHistoryAvoiding;
  const auto params = spec.build(3);
  EXPECT_EQ(params.start, 3);
  EXPECT_EQ(params.decision->name(), "history-avoiding");
  EXPECT_EQ(spec.label(), "(2,1,2)-history-avoiding");
}

TEST(AttackerSpecTest, SpecGrammarRoundTrips) {
  // Defaults print fully and reparse exactly.
  EXPECT_EQ(AttackerSpec{}.to_spec(), "R=1,H=0,M=1,D=first-heard");
  EXPECT_EQ(AttackerSpec::parse("R=1,H=0,M=1,D=first-heard"),
            AttackerSpec{});
  // Any subset of keys, any order; unmentioned keys keep their defaults.
  const AttackerSpec partial = AttackerSpec::parse("R=2,H=4,D=min-slot");
  EXPECT_EQ(partial.messages_per_move, 2);
  EXPECT_EQ(partial.history_size, 4);
  EXPECT_EQ(partial.moves_per_period, 1);
  EXPECT_EQ(partial.decision, AttackerSpec::Decision::kMinSlot);
  EXPECT_EQ(partial.to_spec(), "R=2,H=4,M=1,D=min-slot");
  EXPECT_EQ(AttackerSpec::parse("D=history-avoiding,M=2").to_spec(),
            "R=1,H=0,M=2,D=history-avoiding");
  // '_' accepted for '-' in decision names (shell-friendly spelling).
  EXPECT_EQ(AttackerSpec::parse("D=min_slot").decision,
            AttackerSpec::Decision::kMinSlot);
  // Property over the grammar: every spec round-trips through its
  // canonical string.
  for (const int r : {1, 2, 3}) {
    for (const int h : {0, 2, 9}) {
      for (const int m : {1, 2}) {
        for (const auto d :
             {AttackerSpec::Decision::kFirstHeard,
              AttackerSpec::Decision::kMinSlot,
              AttackerSpec::Decision::kHistoryAvoiding,
              AttackerSpec::Decision::kRandom}) {
          AttackerSpec spec;
          spec.messages_per_move = r;
          spec.history_size = h;
          spec.moves_per_period = m;
          spec.decision = d;
          SCOPED_TRACE(spec.to_spec());
          EXPECT_EQ(AttackerSpec::parse(spec.to_spec()), spec);
        }
      }
    }
  }
}

TEST(AttackerSpecTest, SpecGrammarRejectsMalformedStrings) {
  for (const char* bad :
       {"", "R", "R=", "R=x", "R=-1", "Z=3", "D=fastest", "R=1;H=0",
        "r=1"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)AttackerSpec::parse(bad), std::invalid_argument);
  }
}

TEST(ProtocolSpecTest, FormatsAndApplies) {
  EXPECT_EQ(format_protocol_spec(ProtocolKind::kProtectionlessDas, 10),
            "protectionless-das");
  EXPECT_EQ(format_protocol_spec(ProtocolKind::kSlpDas, 10), "slp-das");
  EXPECT_EQ(format_protocol_spec(ProtocolKind::kPhantomRouting, 5),
            "phantom-routing:h=5");

  ExperimentConfig config;
  apply_protocol_spec("slp_das", config);  // '_' accepted for '-'
  EXPECT_EQ(config.protocol, ProtocolKind::kSlpDas);
  apply_protocol_spec("phantom-routing:h=7", config);
  EXPECT_EQ(config.protocol, ProtocolKind::kPhantomRouting);
  EXPECT_EQ(config.phantom_walk_length, 7);
  apply_protocol_spec("phantom-routing", config);  // keeps the prior walk
  EXPECT_EQ(config.phantom_walk_length, 7);
  for (const char* bad :
       {"slp", "slp-das:h=3", "phantom-routing:h=-1", "phantom-routing:x=1",
        ""}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(apply_protocol_spec(bad, config), std::invalid_argument);
  }
}

TEST(RadioSpecTest, FormatsAndApplies) {
  EXPECT_EQ(format_radio_spec(RadioKind::kIdeal, 0.05), "ideal");
  EXPECT_EQ(format_radio_spec(RadioKind::kCasinoLab, 0.05), "casino-lab");
  EXPECT_EQ(format_radio_spec(RadioKind::kLossy, 0.05), "lossy:p=0.05");

  ExperimentConfig config;
  apply_radio_spec("ideal", config);
  EXPECT_EQ(config.radio, RadioKind::kIdeal);
  apply_radio_spec("lossy:p=0.2", config);
  EXPECT_EQ(config.radio, RadioKind::kLossy);
  EXPECT_EQ(config.loss_probability, 0.2);
  apply_radio_spec("casino_lab", config);  // '_' accepted for '-'
  EXPECT_EQ(config.radio, RadioKind::kCasinoLab);
  for (const char* bad :
       {"noisy", "lossy:p=1.5", "lossy:p=-0.1", "lossy:q=0.1",
        "ideal:p=0.1", ""}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(apply_radio_spec(bad, config), std::invalid_argument);
  }
}

TEST(EnumLabelTest, Names) {
  EXPECT_STREQ(to_string(ProtocolKind::kProtectionlessDas),
               "protectionless-das");
  EXPECT_STREQ(to_string(ProtocolKind::kSlpDas), "slp-das");
  EXPECT_STREQ(to_string(RadioKind::kIdeal), "ideal");
  EXPECT_STREQ(to_string(RadioKind::kLossy), "lossy");
  EXPECT_STREQ(to_string(RadioKind::kCasinoLab), "casino-lab");
}

}  // namespace
}  // namespace slpdas::core
