// Tests for the parallel scenario-sweep engine: grid expansion, per-cell
// seed derivation stability, deterministic execution for any thread
// count, thread-pool sharing across cells, and JSON round-tripping.
#include "slpdas/core/sweep.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "slpdas/core/scenario.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

ExperimentConfig small_base(int runs = 4) {
  ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(5);
  config.parameters = test::fast_parameters(24);
  config.radio = RadioKind::kCasinoLab;
  config.runs = runs;
  config.check_schedules = false;
  return config;
}

/// A 2x2 (side x protocol) grid of cheap cells.
std::vector<SweepCell> small_cells(int runs = 4) {
  SweepGrid grid(small_base(runs));
  grid.axis("side", {{"5",
                      [](ExperimentConfig& config) {
                        config.topology = wsn::TopologySpec::grid(5);
                      }},
                     {"7",
                      [](ExperimentConfig& config) {
                        config.topology = wsn::TopologySpec::grid(7);
                      }}});
  grid.axis("protocol",
            {{"protectionless-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kProtectionlessDas;
              }},
             {"slp-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kSlpDas;
              }}});
  return grid.expand();
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.capture.trials(), b.capture.trials());
  EXPECT_EQ(a.capture.successes(), b.capture.successes());
  // Aggregation happens in run-index order, so even the floating-point
  // accumulators must agree to the last bit.
  EXPECT_EQ(a.capture_time_s.mean(), b.capture_time_s.mean());
  EXPECT_EQ(a.capture_time_s.stddev(), b.capture_time_s.stddev());
  EXPECT_EQ(a.delivery_ratio.mean(), b.delivery_ratio.mean());
  EXPECT_EQ(a.delivery_latency_s.mean(), b.delivery_latency_s.mean());
  EXPECT_EQ(a.control_messages_per_node.mean(),
            b.control_messages_per_node.mean());
  EXPECT_EQ(a.normal_messages_per_node.mean(),
            b.normal_messages_per_node.mean());
  EXPECT_EQ(a.attacker_moves.mean(), b.attacker_moves.mean());
  EXPECT_EQ(a.schedule_incomplete_runs, b.schedule_incomplete_runs);
}

TEST(SweepGridTest, ExpandsCartesianProductRowMajor) {
  const auto cells = small_cells();
  ASSERT_EQ(cells.size(), 4u);
  // The last axis (protocol) varies fastest.
  EXPECT_EQ(cells[0].label, "side=5/protocol=protectionless-das");
  EXPECT_EQ(cells[1].label, "side=5/protocol=slp-das");
  EXPECT_EQ(cells[2].label, "side=7/protocol=protectionless-das");
  EXPECT_EQ(cells[3].label, "side=7/protocol=slp-das");
  ASSERT_EQ(cells[3].coordinates.size(), 2u);
  EXPECT_EQ(cells[3].coordinates[0].first, "side");
  EXPECT_EQ(cells[3].coordinates[0].second, "7");
  EXPECT_EQ(cells[3].coordinates[1].first, "protocol");
  EXPECT_EQ(cells[3].coordinates[1].second, "slp-das");
}

TEST(SweepGridTest, MutatorsApplyOnTopOfBase) {
  const auto cells = small_cells();
  EXPECT_EQ(cells[0].config.protocol, ProtocolKind::kProtectionlessDas);
  EXPECT_EQ(cells[1].config.protocol, ProtocolKind::kSlpDas);
  // Configs carry specs, not graphs: the cells stay cheap values and the
  // node count is known without materialising anything.
  EXPECT_EQ(cells[0].config.topology.node_count(), 25);
  EXPECT_EQ(cells[2].config.topology.node_count(), 49);
  // Base fields untouched by any axis survive into every cell.
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.config.radio, RadioKind::kCasinoLab);
    EXPECT_EQ(cell.config.runs, 4);
  }
}

TEST(SweepGridTest, EmptyGridAndEmptyAxisExpandToNothing) {
  EXPECT_TRUE(SweepGrid(small_base()).expand().empty());
  SweepGrid grid(small_base());
  grid.axis("side", {});
  EXPECT_TRUE(grid.expand().empty());
}

TEST(SweepSeedTest, CellSeedDependsOnlyOnBaseSeedAndLabel) {
  const std::uint64_t seed = derive_cell_seed(42, "side=11/protocol=slp-das");
  EXPECT_EQ(seed, derive_cell_seed(42, "side=11/protocol=slp-das"));
  EXPECT_NE(seed, derive_cell_seed(43, "side=11/protocol=slp-das"));
  EXPECT_NE(seed, derive_cell_seed(42, "side=15/protocol=slp-das"));
}

TEST(SweepSeedTest, CellResultsInvariantUnderGridEdits) {
  // Run the full grid, then just one of its cells: the shared cell must
  // produce identical results because its seed keys off the label, not
  // the cell's position in (or the size of) the grid.
  const auto cells = small_cells();
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 9;
  const SweepResult full = run_sweep(cells, options);
  const SweepResult just_last = run_sweep({cells[3]}, options);
  ASSERT_EQ(just_last.cells.size(), 1u);
  EXPECT_EQ(full.cells[3].cell_seed, just_last.cells[0].cell_seed);
  expect_same_result(full.cells[3].result, just_last.cells[0].result);
}

TEST(SweepRunTest, DeterministicAcrossThreadCounts) {
  const auto cells = small_cells();
  SweepOptions serial;
  serial.threads = 1;
  serial.base_seed = 5;
  SweepOptions wide;
  wide.threads = 4;
  wide.base_seed = 5;
  const SweepResult a = run_sweep(cells, serial);
  const SweepResult b = run_sweep(cells, wide);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].label, b.cells[i].label);
    EXPECT_EQ(a.cells[i].cell_seed, b.cells[i].cell_seed);
    expect_same_result(a.cells[i].result, b.cells[i].result);
  }
}

TEST(SweepRunTest, SharesOnePoolAcrossAllCells) {
  // Six cells on a two-worker pool: a per-experiment pool would have
  // spawned 2 workers per cell (12 distinct ids); the shared pool never
  // exceeds its size no matter how many cells run.
  SweepGrid grid(small_base(2));
  std::vector<SweepGrid::AxisValue> values;
  for (int i = 0; i < 6; ++i) {
    values.push_back({std::to_string(i), nullptr});
  }
  grid.axis("cell", std::move(values));
  SweepOptions options;
  options.threads = 2;
  const SweepResult result = run_sweep(grid.expand(), options);
  EXPECT_EQ(result.threads, 2);
  EXPECT_GE(result.distinct_worker_threads, 1);
  EXPECT_LE(result.distinct_worker_threads, 2);
}

TEST(SweepRunTest, ExternalPoolIsReusedAcrossSweeps) {
  ThreadPool pool(2);
  const auto cells = small_cells(2);
  SweepOptions options;
  const SweepResult first = run_sweep(cells, options, pool);
  const SweepResult second = run_sweep(cells, options, pool);
  EXPECT_EQ(first.threads, 2);
  EXPECT_EQ(second.threads, 2);
  expect_same_result(first.cells[0].result, second.cells[0].result);
}

TEST(SweepSeedTest, UnseededAxisSharesOneSeedStream) {
  // With the protocol axis marked unseeded, both protocols face the same
  // per-run seeds (common random numbers), so their cell seeds match
  // while their labels stay distinct.
  SweepGrid grid(small_base(2));
  grid.axis("side", {{"5", nullptr}});
  grid.axis("protocol",
            {{"protectionless-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kProtectionlessDas;
              }},
             {"slp-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kSlpDas;
              }}},
            /*seeded=*/false);
  const auto cells = grid.expand();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_NE(cells[0].label, cells[1].label);
  EXPECT_EQ(cells[0].seed_label, "side=5");
  EXPECT_EQ(cells[1].seed_label, "side=5");
  const SweepResult result = run_sweep(cells, SweepOptions{});
  EXPECT_EQ(result.cells[0].cell_seed, result.cells[1].cell_seed);
}

TEST(SweepRunTest, RejectsDuplicateLabels) {
  auto cells = small_cells();
  cells[1].label = cells[0].label;
  EXPECT_THROW((void)run_sweep(cells, SweepOptions{}),
               std::invalid_argument);
}

TEST(SweepRunTest, RejectsCellWithNoRuns) {
  auto cells = small_cells();
  cells[1].config.runs = 0;
  EXPECT_THROW((void)run_sweep(cells, SweepOptions{}),
               std::invalid_argument);
}

TEST(SweepRunTest, ProgressReportsEveryCell) {
  std::ostringstream progress;
  SweepOptions options;
  options.threads = 2;
  options.progress = &progress;
  (void)run_sweep(small_cells(2), options);
  const std::string text = progress.str();
  for (const SweepCell& cell : small_cells(2)) {
    EXPECT_NE(text.find(cell.label), std::string::npos) << text;
  }
  EXPECT_NE(text.find("[4/4]"), std::string::npos) << text;
  // Output is line-buffered: whole lines only, each a complete record.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::istringstream lines(text);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '[') << line;
    EXPECT_NE(line.find(" capture="), std::string::npos) << line;
    ++count;
  }
  EXPECT_EQ(count, 4);
}

TEST(SweepJsonTest, RoundTripsThroughTheV2Schema) {
  const auto cells = small_cells();
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 11;
  const SweepResult sweep = run_sweep(cells, options);

  std::stringstream stream;
  write_sweep_json(stream, sweep, "sweep_test");
  const SweepJson parsed = read_sweep_json(stream);

  EXPECT_EQ(parsed.schema, "slpdas.sweep.v2");
  EXPECT_EQ(parsed.name, "sweep_test");
  EXPECT_EQ(parsed.base_seed, 11u);
  EXPECT_EQ(parsed.threads, sweep.threads);
  EXPECT_EQ(parsed.shard_index, 0);
  EXPECT_EQ(parsed.shard_count, 1);
  EXPECT_EQ(parsed.cells_total, cells.size());
  ASSERT_EQ(parsed.cells.size(), sweep.cells.size());
  for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
    const SweepJsonCell& json_cell = parsed.cells[i];
    const SweepCellResult& cell = sweep.cells[i];
    EXPECT_EQ(json_cell.index, i);
    EXPECT_EQ(json_cell.label, cell.label);
    EXPECT_EQ(json_cell.coordinates, cell.coordinates);
    EXPECT_EQ(json_cell.cell_seed, cell.cell_seed);
    EXPECT_EQ(json_cell.runs, cell.runs);
    EXPECT_EQ(json_cell.capture_trials, cell.result.capture.trials());
    EXPECT_EQ(json_cell.capture_successes, cell.result.capture.successes());
    // Doubles print with max_digits10, so the round-trip is exact.
    EXPECT_EQ(json_cell.capture_ratio, cell.result.capture.ratio());
    const auto [low, high] = cell.result.capture.wilson95();
    EXPECT_EQ(json_cell.capture_wilson95_low, low);
    EXPECT_EQ(json_cell.capture_wilson95_high, high);
    EXPECT_EQ(json_cell.delivery_ratio.count, cell.result.delivery_ratio.count());
    EXPECT_EQ(json_cell.delivery_ratio.mean, cell.result.delivery_ratio.mean());
    EXPECT_EQ(json_cell.delivery_ratio.stddev,
              cell.result.delivery_ratio.stddev());
    EXPECT_EQ(json_cell.attacker_moves.mean, cell.result.attacker_moves.mean());
    EXPECT_EQ(json_cell.slot_band_span.count,
              cell.result.slot_band_span.count());
    EXPECT_EQ(json_cell.slot_band_span.mean, cell.result.slot_band_span.mean());
    EXPECT_EQ(json_cell.schedule_density.mean,
              cell.result.schedule_density.mean());
    EXPECT_EQ(json_cell.schedule_incomplete_runs,
              cell.result.schedule_incomplete_runs);
  }
}

TEST(SweepJsonTest, ReadsLegacyV1Documents) {
  // v1 documents carry no shard object, no per-cell index, and no
  // slot-band stats; the reader defaults all of them.
  const std::string v1 =
      "{\"schema\": \"slpdas.sweep.v1\", \"name\": \"old\", \"threads\": 2, "
      "\"wall_seconds\": 0, \"cells\": [{\"label\": \"side=5\", "
      "\"coordinates\": {\"side\": \"5\"}, \"cell_seed\": 7, \"runs\": 1, "
      "\"capture\": {\"trials\": 1, \"successes\": 0, \"ratio\": 0, "
      "\"wilson95\": [0, 0.5]}, "
      "\"capture_time_s\": {\"count\": 0, \"mean\": 0, \"stddev\": 0, "
      "\"min\": null, \"max\": null}, "
      "\"delivery_ratio\": {\"count\": 1, \"mean\": 1, \"stddev\": 0, "
      "\"min\": 1, \"max\": 1}, "
      "\"delivery_latency_s\": {\"count\": 1, \"mean\": 0, \"stddev\": 0, "
      "\"min\": 0, \"max\": 0}, "
      "\"control_messages_per_node\": {\"count\": 1, \"mean\": 0, "
      "\"stddev\": 0, \"min\": 0, \"max\": 0}, "
      "\"normal_messages_per_node\": {\"count\": 1, \"mean\": 0, "
      "\"stddev\": 0, \"min\": 0, \"max\": 0}, "
      "\"attacker_moves\": {\"count\": 1, \"mean\": 0, \"stddev\": 0, "
      "\"min\": 0, \"max\": 0}, "
      "\"schedule_incomplete_runs\": 0, \"weak_das_failures\": 0, "
      "\"strong_das_failures\": 0, \"wall_seconds\": 0}]}";
  std::stringstream stream(v1);
  const SweepJson parsed = read_sweep_json(stream);
  EXPECT_EQ(parsed.schema, "slpdas.sweep.v1");
  EXPECT_EQ(parsed.base_seed, 0u);
  EXPECT_EQ(parsed.shard_index, 0);
  EXPECT_EQ(parsed.shard_count, 1);
  EXPECT_EQ(parsed.cells_total, 1u);
  ASSERT_EQ(parsed.cells.size(), 1u);
  EXPECT_EQ(parsed.cells[0].index, 0u);
  EXPECT_EQ(parsed.cells[0].slot_band_span.count, 0u);
}

TEST(SweepJsonTest, EmptyStatsSerialiseMinMaxAsNull) {
  SweepResult sweep;
  sweep.cells.resize(1);
  sweep.cells[0].label = "empty";
  sweep.cells[0].runs = 0;
  std::stringstream stream;
  write_sweep_json(stream, sweep, "empty");
  EXPECT_NE(stream.str().find("\"min\": null"), std::string::npos);
  const SweepJson parsed = read_sweep_json(stream);
  ASSERT_EQ(parsed.cells.size(), 1u);
  EXPECT_TRUE(std::isnan(parsed.cells[0].capture_time_s.min));
  EXPECT_TRUE(std::isnan(parsed.cells[0].capture_time_s.max));
}

TEST(SweepJsonTest, RejectsMalformedAndUnknownSchema) {
  {
    std::stringstream stream("{\"schema\": \"slpdas.sweep.v999\"}");
    EXPECT_THROW((void)read_sweep_json(stream), std::runtime_error);
  }
  {
    std::stringstream stream("{\"schema\": ");
    EXPECT_THROW((void)read_sweep_json(stream), std::runtime_error);
  }
  {
    std::stringstream stream("not json at all");
    EXPECT_THROW((void)read_sweep_json(stream), std::runtime_error);
  }
  {
    // Wrong-typed fields must throw, not parse as empty.
    std::stringstream stream(
        "{\"schema\": \"slpdas.sweep.v1\", \"name\": \"x\", \"threads\": 1, "
        "\"wall_seconds\": 0, \"distinct_worker_threads\": 1, \"cells\": 0}");
    EXPECT_THROW((void)read_sweep_json(stream), std::runtime_error);
  }
  {
    // Numbers with trailing garbage must not silently truncate.
    std::stringstream stream(
        "{\"schema\": \"slpdas.sweep.v1\", \"name\": \"x\", \"threads\": 1, "
        "\"wall_seconds\": 1-2, \"cells\": []}");
    EXPECT_THROW((void)read_sweep_json(stream), std::runtime_error);
  }
  {
    // Int fields take non-negative integers in int range only: null (NaN
    // as a double), a fraction, an overflowing exponent or a sign is
    // malformed — never a truncating or undefined cast. Covers the
    // document's own ints and a cell's.
    SweepResult sweep;
    sweep.cells.resize(1);
    sweep.cells[0].label = "only";
    sweep.cells[0].runs = 3;
    std::stringstream written;
    write_sweep_json(written, sweep, "ints");
    const std::string good = written.str();
    std::stringstream good_stream(good);
    ASSERT_NO_THROW((void)read_sweep_json(good_stream));
    for (const char* bad : {"null", "2.5", "1e300", "-1"}) {
      for (const char* key :
           {"threads", "distinct_worker_threads", "count", "runs",
            "schedule_incomplete_runs", "weak_das_failures"}) {
        std::stringstream stream(test::with_json_value(good, key, bad));
        EXPECT_THROW((void)read_sweep_json(stream), std::runtime_error)
            << key << ": " << bad;
      }
    }
  }
}

/// Minimal parseable v1 document with `name` spliced in verbatim, for
/// exercising the string-escape grammar through the public reader.
SweepJson parse_with_name(const std::string& name_json) {
  std::stringstream stream(
      "{\"schema\": \"slpdas.sweep.v1\", \"name\": " + name_json +
      ", \"threads\": 1, \"wall_seconds\": 0, "
      "\"distinct_worker_threads\": 1, \"cells\": []}");
  return read_sweep_json(stream);
}

TEST(SweepJsonTest, UnicodeEscapesRequireExactlyFourHexDigits) {
  EXPECT_EQ(parse_with_name("\"\\u0041\"").name, "A");
  EXPECT_EQ(parse_with_name("\"\\u00e9\"").name, "\xc3\xa9");  // é, 2-byte
  // std::stoi's forgiving grammar accepted all of these: fewer than four
  // digits before the closing quote, embedded whitespace and signs.
  EXPECT_THROW((void)parse_with_name("\"\\u12\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\u12g4\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\u 041\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\u+041\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\u\""), std::runtime_error);
  // Lone surrogate halves are not scalar values; encoding them as 3-byte
  // UTF-8 would emit CESU-8 garbage downstream consumers choke on.
  EXPECT_THROW((void)parse_with_name("\"\\ud800\""), std::runtime_error);
  EXPECT_THROW((void)parse_with_name("\"\\udfff\""), std::runtime_error);
}

TEST(SweepJsonTest, NumberParsingIgnoresTheProcessLocale) {
  // Under a comma-decimal locale, std::stod reads "0.05" as 0 — silently
  // zeroing every ratio in a reloaded document. from_chars never
  // consults LC_NUMERIC, so parsing must be identical in any locale.
  const char* applied = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (applied == nullptr) {
    applied = std::setlocale(LC_NUMERIC, "de_DE");
  }
  if (applied == nullptr) {
    GTEST_SKIP() << "no de_DE locale available on this system";
  }
  std::stringstream stream(
      "{\"schema\": \"slpdas.sweep.v1\", \"name\": \"x\", \"threads\": 1, "
      "\"wall_seconds\": 0.05, \"distinct_worker_threads\": 1, "
      "\"cells\": []}");
  SweepJson parsed;
  try {
    parsed = read_sweep_json(stream);
  } catch (...) {
    std::setlocale(LC_NUMERIC, "C");
    throw;
  }
  std::setlocale(LC_NUMERIC, "C");
  EXPECT_EQ(parsed.wall_seconds, 0.05);
}

// ---------------------------------------------------------------------------
// Golden fingerprints. These constants pin the behavioural contract:
// identical (grid, protocol, seed) must keep producing bit-identical
// documents across refactors of the simulator internals. If a change here
// is INTENDED (a new axis, a protocol fix), regenerate the constants and
// say so loudly in the commit message; an unintended mismatch means the
// refactor changed results. The document hash was regenerated ONCE for
// the spec-layer refactor, after a line diff of the before/after
// documents showed the only change to be the added per-cell "config"
// block — every metric byte of the PR-4 constant's document is unchanged
// (the per-metric snapshot below still pins those exact values).
// ---------------------------------------------------------------------------

std::uint64_t fnv1a_bytes(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(GoldenFingerprintTest, SmallSweepDocumentIsByteStable) {
  SweepGrid grid(small_base(3));
  grid.axis("side", {{"5",
                      [](ExperimentConfig& config) {
                        config.topology = wsn::TopologySpec::grid(5);
                      }},
                     {"7",
                      [](ExperimentConfig& config) {
                        config.topology = wsn::TopologySpec::grid(7);
                      }}});
  grid.axis("protocol",
            {{"protectionless-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kProtectionlessDas;
              }},
             {"slp-das",
              [](ExperimentConfig& config) {
                config.protocol = ProtocolKind::kSlpDas;
              }}});
  const auto cells = grid.expand();
  EXPECT_EQ(hash_sweep_grid(cells), 0x6b90a23f404d5439ULL);

  SweepOptions options;
  options.threads = 2;
  options.base_seed = 2017;
  options.deterministic_timing = true;
  const SweepResult sweep = run_sweep(cells, options);
  std::ostringstream out;
  write_sweep_json(out, sweep, "golden");
  // Every byte of the deterministic document: all metrics of all four
  // cells, double formatting included (regenerated for the config block;
  // see the section comment above).
  EXPECT_EQ(fnv1a_bytes(out.str()), 0x5f6355cafa2a2d15ULL);
  // The config block is present in deterministic documents (unlike perf:
  // the specs are part of the experiment's identity, not telemetry).
  EXPECT_NE(out.str().find("\"config\": {\"topology\": \"grid:5\", "
                           "\"protocol\": \"slp-das\", \"attacker\": "
                           "\"R=1,H=0,M=1,D=first-heard\", \"radio\": "
                           "\"casino-lab\"}"),
            std::string::npos);

  // A readable snapshot of one cell, so a mismatch names the drifted
  // metric instead of just a hash.
  const SweepJson document = to_sweep_json(sweep, "golden");
  ASSERT_EQ(document.cells.size(), 4u);
  const SweepJsonCell& cell = document.cells[0];
  EXPECT_EQ(cell.label, "side=5/protocol=protectionless-das");
  EXPECT_EQ(cell.capture_trials, 3u);
  EXPECT_EQ(cell.capture_successes, 0u);
  EXPECT_EQ(cell.delivery_ratio.mean, 0.88888888888888884);
  EXPECT_EQ(cell.delivery_latency_s.mean, 0.24383333333333332);
  EXPECT_EQ(cell.control_messages_per_node.mean, 12.786666666666667);
  EXPECT_EQ(cell.normal_messages_per_node.mean, 7.6799999999999997);
  EXPECT_EQ(cell.attacker_moves.mean, 7.666666666666667);
  EXPECT_EQ(cell.attacker_moves.stddev, 0.57735026918962573);
  EXPECT_EQ(document.cells[2].capture_successes, 1u);  // side=7 baseline
  // Deterministic documents must never grow the perf block — its absence
  // is what keeps them byte-identical across schema-extending releases.
  EXPECT_FALSE(cell.has_perf);
  EXPECT_EQ(out.str().find("\"perf\""), std::string::npos);
}

TEST(GoldenFingerprintTest, BuiltinScenarioGridsAreStable) {
  // hash_sweep_grid is a pure function of labels, seed labels and run
  // counts: these pins make any accidental edit of the published grids
  // (axis values, run counts, cell order) fail loudly.
  ScenarioRegistry registry;
  register_builtin_scenarios(registry);
  const ScenarioOptions defaults;
  ScenarioOptions smoke;
  smoke.smoke = true;
  const struct {
    const char* name;
    std::uint64_t default_hash;
    std::uint64_t smoke_hash;
  } kExpected[] = {
      {"fig5a", 0x5fac2a7b22a1559eULL, 0xc8d00cbfeff20f42ULL},
      {"fig5b", 0x002a88a5fe1b8222ULL, 0x806429abca4b85a6ULL},
      {"perf_sim", 0x8cd7e075782f686fULL, 0x08cc739a1a98e897ULL},
  };
  for (const auto& expected : kExpected) {
    SCOPED_TRACE(expected.name);
    const Scenario* scenario = registry.find(expected.name);
    ASSERT_NE(scenario, nullptr);
    EXPECT_EQ(hash_sweep_grid(scenario->make_cells(defaults)),
              expected.default_hash);
    EXPECT_EQ(hash_sweep_grid(scenario->make_cells(smoke)),
              expected.smoke_hash);
  }
}

TEST(SweepJsonTest, PerfBlockRoundTripsInRealClockDocuments) {
  const auto cells = small_cells(2);
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 11;
  const SweepResult sweep = run_sweep(cells, options);  // real clocks

  std::stringstream stream;
  write_sweep_json(stream, sweep, "perf_roundtrip");
  EXPECT_NE(stream.str().find("\"perf\""), std::string::npos);
  const SweepJson parsed = read_sweep_json(stream);
  ASSERT_EQ(parsed.cells.size(), sweep.cells.size());
  for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
    const SweepJsonCell& cell = parsed.cells[i];
    ASSERT_TRUE(cell.has_perf) << cell.label;
    EXPECT_EQ(cell.perf_events, sweep.cells[i].result.events_executed);
    EXPECT_EQ(cell.perf_deliveries, sweep.cells[i].result.deliveries);
    EXPECT_EQ(cell.perf_timer_fires, sweep.cells[i].result.timer_fires);
    EXPECT_GT(cell.perf_events, 0u);
    EXPECT_GE(cell.perf_events,
              cell.perf_deliveries + cell.perf_timer_fires);
    if (cell.wall_seconds > 0.0) {
      EXPECT_GT(cell.perf_events_per_sec, 0.0);
    }
  }
  // ...and the reparse re-serialises byte-identically, perf block included.
  std::ostringstream rewritten;
  write_sweep_json(rewritten, parsed);
  EXPECT_EQ(rewritten.str(), stream.str());
}

TEST(SweepJsonTest, EscapesLabelStrings) {
  SweepResult sweep;
  sweep.cells.resize(1);
  sweep.cells[0].label = "quote\" back\\slash\nnewline";
  sweep.cells[0].runs = 0;
  std::stringstream stream;
  write_sweep_json(stream, sweep, "escapes");
  const SweepJson parsed = read_sweep_json(stream);
  ASSERT_EQ(parsed.cells.size(), 1u);
  EXPECT_EQ(parsed.cells[0].label, "quote\" back\\slash\nnewline");
}

}  // namespace
}  // namespace slpdas::core
