#include "slpdas/core/compare.hpp"

#include <cmath>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "slpdas/metrics/table.hpp"

namespace slpdas::core {
namespace {

/// NaN-aware equality: an empty stats block serialises min/max as null on
/// both sides and must not read as drift.
[[nodiscard]] bool value_equal(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) {
    return true;
  }
  return a == b;
}

[[nodiscard]] bool stats_equal(const SweepJsonStats& a,
                               const SweepJsonStats& b) {
  return a.count == b.count && value_equal(a.mean, b.mean) &&
         value_equal(a.stddev, b.stddev) && value_equal(a.min, b.min) &&
         value_equal(a.max, b.max);
}

/// The cell with position, wall clock and perf telemetry neutralised —
/// everything left in the serialised record is deterministic by the
/// --deterministic contract.
[[nodiscard]] SweepJsonCell neutralised(const SweepJsonCell& cell) {
  SweepJsonCell copy = cell;
  copy.index = 0;
  copy.wall_seconds = 0.0;
  copy.has_perf = false;
  copy.perf_events = 0;
  copy.perf_deliveries = 0;
  copy.perf_timer_fires = 0;
  copy.perf_events_per_sec = 0.0;
  return copy;
}

[[nodiscard]] std::string record_bytes(const SweepJsonCell& cell) {
  std::ostringstream out;
  write_cell_stream_record(out, cell);
  return std::move(out).str();
}

/// Names the first differing deterministic field, walking the headline
/// fields explicitly; "" when the walk finds nothing (the byte check is
/// still authoritative — a field this walk does not know yet reports as
/// "serialised record").
[[nodiscard]] std::string first_difference_name(const SweepJsonCell& a,
                                                const SweepJsonCell& b) {
  if (a.coordinates != b.coordinates) {
    return "coordinates";
  }
  if (a.has_config != b.has_config || a.config_topology != b.config_topology ||
      a.config_protocol != b.config_protocol ||
      a.config_attacker != b.config_attacker ||
      a.config_radio != b.config_radio) {
    return "config";
  }
  if (a.cell_seed != b.cell_seed) {
    return "cell_seed";
  }
  if (a.runs != b.runs) {
    return "runs";
  }
  if (a.capture_trials != b.capture_trials) {
    return "capture_trials";
  }
  if (a.capture_successes != b.capture_successes) {
    return "capture_successes";
  }
  if (!value_equal(a.capture_ratio, b.capture_ratio)) {
    return "capture_ratio";
  }
  if (!value_equal(a.capture_wilson95_low, b.capture_wilson95_low) ||
      !value_equal(a.capture_wilson95_high, b.capture_wilson95_high)) {
    return "capture_wilson95";
  }
  const std::pair<const char*, bool> stats[] = {
      {"capture_time_s", stats_equal(a.capture_time_s, b.capture_time_s)},
      {"delivery_ratio", stats_equal(a.delivery_ratio, b.delivery_ratio)},
      {"delivery_latency_s",
       stats_equal(a.delivery_latency_s, b.delivery_latency_s)},
      {"control_messages_per_node",
       stats_equal(a.control_messages_per_node, b.control_messages_per_node)},
      {"normal_messages_per_node",
       stats_equal(a.normal_messages_per_node, b.normal_messages_per_node)},
      {"attacker_moves", stats_equal(a.attacker_moves, b.attacker_moves)},
      {"slot_band_span", stats_equal(a.slot_band_span, b.slot_band_span)},
      {"schedule_density",
       stats_equal(a.schedule_density, b.schedule_density)},
  };
  for (const auto& [name, equal] : stats) {
    if (!equal) {
      return name;
    }
  }
  if (a.schedule_incomplete_runs != b.schedule_incomplete_runs) {
    return "schedule_incomplete_runs";
  }
  if (a.weak_das_failures != b.weak_das_failures) {
    return "weak_das_failures";
  }
  if (a.strong_das_failures != b.strong_das_failures) {
    return "strong_das_failures";
  }
  return "";
}

[[nodiscard]] std::string fmt(double value, int precision = 6) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return std::move(out).str();
}

[[nodiscard]] std::string fmt_delta(double value, int precision = 6) {
  return (value >= 0 ? "+" : "") + fmt(value, precision);
}

}  // namespace

SweepComparison compare_sweeps(const SweepJson& a, const SweepJson& b) {
  SweepComparison comparison;
  comparison.name_a = a.name;
  comparison.name_b = b.name;
  // Shards of one sweep describe the same experiment, so the shard
  // fields are left out of the identity compared here.
  CellStreamHeader identity_b = sweep_identity(b);
  identity_b.shard_index = a.shard_index;
  identity_b.shard_count = a.shard_count;
  comparison.identity_differs =
      sweep_identity_mismatch(sweep_identity(a), identity_b).has_value();

  std::map<std::string, const SweepJsonCell*> b_cells;
  for (const SweepJsonCell& cell : b.cells) {
    b_cells.emplace(cell.label, &cell);
  }

  for (const SweepJsonCell& cell_a : a.cells) {
    CellComparison cell;
    cell.label = cell_a.label;
    cell.in_a = true;
    const auto match = b_cells.find(cell_a.label);
    if (match == b_cells.end()) {
      ++comparison.only_a;
      comparison.cells.push_back(std::move(cell));
      continue;
    }
    const SweepJsonCell& cell_b = *match->second;
    cell.in_b = true;
    ++comparison.matched;
    cell.metrics.push_back(
        {"capture_ratio", cell_a.capture_ratio, cell_b.capture_ratio, true});
    cell.metrics.push_back({"delivery_ratio.mean", cell_a.delivery_ratio.mean,
                            cell_b.delivery_ratio.mean, true});
    if (cell_a.has_perf && cell_b.has_perf) {
      cell.metrics.push_back({"events/sec", cell_a.perf_events_per_sec,
                              cell_b.perf_events_per_sec, false});
    }
    // Byte-exact drift verdict over the neutralised records; the field
    // walk only supplies the human-readable name.
    if (record_bytes(neutralised(cell_a)) != record_bytes(neutralised(cell_b))) {
      cell.drift = true;
      cell.first_difference = first_difference_name(cell_a, cell_b);
      if (cell.first_difference.empty()) {
        cell.first_difference = "serialised record";
      }
      ++comparison.drifted;
    }
    comparison.cells.push_back(std::move(cell));
  }

  std::map<std::string, bool> a_labels;
  for (const SweepJsonCell& cell : a.cells) {
    a_labels.emplace(cell.label, true);
  }
  for (const SweepJsonCell& cell_b : b.cells) {
    if (a_labels.count(cell_b.label) != 0) {
      continue;
    }
    CellComparison cell;
    cell.label = cell_b.label;
    cell.in_b = true;
    ++comparison.only_b;
    comparison.cells.push_back(std::move(cell));
  }
  return comparison;
}

void render_comparison(std::ostream& out, const SweepComparison& comparison) {
  if (comparison.identity_differs) {
    out << "note: the documents describe different sweeps "
           "(name/base_seed/grid_hash/cells_total differ) — deltas compare "
           "whatever labels match\n";
  }
  metrics::Table table({"cell", "metric", "A", "B", "delta", ""});
  for (const CellComparison& cell : comparison.cells) {
    if (!cell.in_a || !cell.in_b) {
      continue;
    }
    bool first = true;
    for (const MetricDelta& metric : cell.metrics) {
      table.add_row({first ? cell.label : "", metric.metric, fmt(metric.a),
                     fmt(metric.b), fmt_delta(metric.b - metric.a),
                     metric.deterministic && metric.a != metric.b ? "DRIFT"
                                                                  : ""});
      first = false;
    }
    if (cell.drift) {
      table.add_row({first ? cell.label : "", "(first difference)",
                     cell.first_difference, "", "", "DRIFT"});
    }
  }
  if (table.row_count() > 0) {
    table.print(out);
  }
  for (const CellComparison& cell : comparison.cells) {
    if (cell.in_a && !cell.in_b) {
      out << "only in A: " << cell.label << '\n';
    } else if (cell.in_b && !cell.in_a) {
      out << "only in B: " << cell.label << '\n';
    }
  }
  out << "compare: " << comparison.matched << " matched cell(s), "
      << comparison.drifted << " drifted, " << comparison.only_a
      << " only in A, " << comparison.only_b << " only in B\n";
}

}  // namespace slpdas::core
