// Pins the batched execution contract (run_batch.hpp): hoisting the
// run-invariant state of a cell out of the per-seed loop, and replaying
// seeds through one reused Fork, must not change a single output bit. The
// cold reference throughout is a freshly constructed Fork per seed: its
// first run starts from just-constructed state.
//
//   * For every registered scenario, a one-thread sweep (one slice per
//     cell) and a sweep on a pool wider than its cells (cells split
//     across slices) serialise to identical bytes (same FNV fingerprint
//     the golden tests pin).
//   * One reused Fork equals a fresh Fork per seed, in any execution
//     order — each run owns its seed's whole RNG stream, so batch-mates
//     cannot bleed randomness into each other.
//   * run_range slices compose: any partition of [0, runs) into ranges
//     yields the same dense results as one range or as a fresh Fork per
//     seed.
//   * A reused Fork — one Simulator replayed through reset_run — equals
//     fresh Forks for every registered scenario's cells, in any seed
//     order, including replaying a seed the fork already ran.
#include "slpdas/core/run_batch.hpp"

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/scenario.hpp"
#include "slpdas/rng.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

std::uint64_t fnv1a_bytes(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
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

TEST(RunBatchTest, SlicingDoesNotChangeAnyScenarioDocument) {
  // The whole registry, smoke-sized but multi-run, through both slicing
  // regimes of run_sweep: one thread runs each cell as one slice, and a
  // pool wider than the grid splits every cell's seed range across
  // slices (and so across Forks). Byte equality of the serialised
  // documents is the same bar the golden fingerprint tests set, so any
  // divergence hoisting introduced — a stale config field, an RNG draw
  // moved across runs — fails here naming the scenario.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);

  ScenarioOptions scenario_options;
  scenario_options.smoke = true;
  scenario_options.runs = 3;  // exercise real per-cell seed ranges

  for (const Scenario& scenario : registry.scenarios()) {
    SCOPED_TRACE(scenario.name);
    const std::vector<SweepCell> cells =
        scenario.make_cells(scenario_options);
    ASSERT_FALSE(cells.empty());

    SweepOptions options;
    options.base_seed = scenario.resolved_seed(scenario_options);
    options.deterministic_timing = true;
    const auto document = [&](int threads) {
      ThreadPool pool(threads);
      SweepResult result = run_sweep(cells, options, pool);
      // The pool size is recorded metadata, not a result.
      result.threads = 0;
      std::ostringstream out;
      write_sweep_json(out, result, scenario.name);
      return out.str();
    };

    const std::string one_slice_per_cell = document(1);
    const std::string split_cells =
        document(static_cast<int>(cells.size()) + 1);
    EXPECT_EQ(one_slice_per_cell, split_cells);
    EXPECT_EQ(fnv1a_bytes(one_slice_per_cell), fnv1a_bytes(split_cells));
  }
}

TEST(RunBatchTest, ReusedForkMatchesFreshForksInAnyOrder) {
  // Seed isolation: a Fork executes seeds against shared hoisted state,
  // so each run's randomness must come only from its own seed — never
  // from batch construction or from whichever seeds ran before it. One
  // reused Fork must therefore reproduce a from-scratch run per seed
  // exactly, whatever order the seeds execute in.
  for (const ProtocolKind protocol :
       {ProtocolKind::kProtectionlessDas, ProtocolKind::kSlpDas,
        ProtocolKind::kPhantomRouting}) {
    SCOPED_TRACE(static_cast<int>(protocol));
    const ExperimentConfig config = small_config(protocol);
    const wsn::Topology topology = config.topology.build();

    std::vector<std::uint64_t> seeds;
    for (int run = 0; run < config.runs; ++run) {
      seeds.push_back(derive_seed(config.base_seed, run));
    }
    std::vector<RunResult> expected;
    for (const std::uint64_t seed : seeds) {
      expected.push_back(test::run_seed(config, seed));
    }

    const RunBatch batch(config, topology);
    RunBatch::Fork fork(batch);
    // Reversed, then interleaved odd/even, then a replay of the first
    // seed — all must be order-blind.
    for (int run = config.runs - 1; run >= 0; --run) {
      expect_identical(fork.run(seeds[run]), expected[run]);
    }
    for (int parity : {1, 0}) {
      for (int run = parity; run < config.runs; run += 2) {
        expect_identical(fork.run(seeds[run]), expected[run]);
      }
    }
    expect_identical(fork.run(seeds[0]), expected[0]);
  }
}

TEST(RunBatchTest, ForkMatchesColdConstructionForEveryScenario) {
  // The fork path reuses one warm Simulator across seeds via reset_run;
  // the cold reference constructs a fresh Fork per seed. Any per-run
  // state reset_run fails to rewind — a live timer generation, an arena
  // span still holding the previous seed's values, a stale attacker
  // position — diverges here, naming the scenario, cell and seed. Seeds
  // run out of order and one is replayed through the already-used fork,
  // so "warm" covers both fresh-after-reset and ran-before states.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);

  ScenarioOptions scenario_options;
  scenario_options.smoke = true;
  scenario_options.runs = 3;

  for (const Scenario& scenario : registry.scenarios()) {
    SCOPED_TRACE(scenario.name);
    const std::vector<SweepCell> cells =
        scenario.make_cells(scenario_options);
    ASSERT_FALSE(cells.empty());
    const std::uint64_t base_seed = scenario.resolved_seed(scenario_options);

    for (const SweepCell& cell : cells) {
      SCOPED_TRACE(cell.label);
      const wsn::Topology topology = cell.config.topology.build();
      const RunBatch batch(cell.config, topology);

      std::vector<std::uint64_t> seeds;
      std::vector<RunResult> cold;
      for (int run = 0; run < scenario_options.runs; ++run) {
        seeds.push_back(derive_seed(base_seed, run));
        cold.push_back(RunBatch::Fork(batch).run(seeds.back()));
      }

      RunBatch::Fork fork(batch);
      for (const int run : {2, 0, 1, 0}) {
        SCOPED_TRACE(run);
        expect_identical(fork.run(seeds[static_cast<std::size_t>(run)]),
                         cold[static_cast<std::size_t>(run)]);
      }
    }
  }
}

TEST(RunBatchTest, RunRangeSlicesComposeExactly) {
  // The sweep engine splits a cell's [0, runs) across workers only when
  // cells are scarce, so the same cell may execute as one slice or many
  // depending on thread count. Every partition must write the same dense
  // results.
  const ExperimentConfig config = small_config(ProtocolKind::kSlpDas);
  const wsn::Topology topology = config.topology.build();
  const RunBatch batch(config, topology);

  std::vector<RunResult> whole(config.runs);
  batch.run_range(config.base_seed, 0, config.runs, whole.data());

  for (const RunResult& result : whole) {
    EXPECT_GT(result.safety_periods, 0.0);
  }

  std::vector<RunResult> seedwise;
  for (int run = 0; run < config.runs; ++run) {
    seedwise.push_back(
        RunBatch::Fork(batch).run(derive_seed(config.base_seed, run)));
  }

  const int boundaries[][2] = {{0, 2}, {2, 3}, {3, 6}};
  std::vector<RunResult> sliced(config.runs);
  for (const auto& range : boundaries) {
    batch.run_range(config.base_seed, range[0], range[1],
                    sliced.data() + range[0]);
  }

  for (int run = 0; run < config.runs; ++run) {
    SCOPED_TRACE(run);
    expect_identical(whole[run], seedwise[run]);
    expect_identical(whole[run], sliced[run]);
  }
}

}  // namespace
}  // namespace slpdas::core
