#include "slpdas/core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <exception>
#include <iomanip>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cell_record.hpp"
#include "fnv.hpp"
#include "json.hpp"
#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/run_batch.hpp"

namespace slpdas::core {

// ---------------------------------------------------------------------------
// Grid expansion
// ---------------------------------------------------------------------------

SweepGrid& SweepGrid::axis(std::string name, std::vector<AxisValue> values,
                           bool seeded) {
  axes_.push_back(Axis{std::move(name), std::move(values), seeded});
  return *this;
}

std::vector<SweepCell> SweepGrid::expand() const {
  std::vector<SweepCell> cells;
  if (axes_.empty()) {
    return cells;
  }
  std::size_t total = 1;
  for (const Axis& axis : axes_) {
    total *= axis.values.size();
  }
  cells.reserve(total);
  std::vector<std::size_t> index(axes_.size(), 0);
  for (std::size_t cell = 0; cell < total; ++cell) {
    SweepCell out;
    out.config = base_;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const Axis& axis = axes_[a];
      const AxisValue& value = axis.values[index[a]];
      if (!out.label.empty()) {
        out.label += '/';
      }
      out.label += axis.name + "=" + value.value;
      if (axis.seeded) {
        if (!out.seed_label.empty()) {
          out.seed_label += '/';
        }
        out.seed_label += axis.name + "=" + value.value;
      }
      out.coordinates.emplace_back(axis.name, value.value);
      if (value.apply) {
        value.apply(out.config);
      }
    }
    if (out.seed_label.empty()) {
      // Every axis unseeded: all cells share one stream (not the label
      // fallback, which would give each cell its own).
      out.seed_label = "*";
    }
    cells.push_back(std::move(out));
    // Row-major increment: the last axis varies fastest.
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++index[a] < axes_[a].values.size()) {
        break;
      }
      index[a] = 0;
    }
  }
  return cells;
}

std::uint64_t hash_sweep_grid(const std::vector<SweepCell>& cells) {
  std::uint64_t hash = detail::kFnvOffset;
  for (const SweepCell& cell : cells) {
    hash = detail::fnv1a_field(hash, cell.label);
    hash = detail::fnv1a_field(hash, cell.seed_label);
    hash = detail::fnv1a_field(hash, std::to_string(cell.config.runs));
  }
  return hash;
}

std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               std::string_view label) {
  // FNV-1a over the label keeps the seed a pure function of the cell's
  // identity, not its position in the grid.
  return derive_seed(base_seed, detail::fnv1a_bytes(detail::kFnvOffset, label));
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

// slpdas-lint: allow(wall-clock): wall_seconds/perf telemetry, zeroed under --deterministic, never feeds a simulation
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Mutable state for one in-flight cell.
struct CellProgress {
  std::vector<RunResult> runs;
  std::atomic<int> remaining{0};
  Clock::time_point started{};
  std::atomic<bool> started_set{false};
  std::atomic<bool> failed{false};
  double wall_seconds = 0.0;
  /// The cell's materialised topology: built lazily by the FIRST worker
  /// to touch the cell (configs only carry specs) and shared read-only by
  /// the cell's other slices; released again when the last slice
  /// finishes, so peak memory scales with the cells in flight, not the
  /// grid.
  std::once_flag build;
  wsn::Topology topology;
  /// Set inside the call_once when the build throws; every slice rethrows
  /// it. The exception must NOT escape the call_once callable itself:
  /// TSan's pthread_once interceptor does not unwind its once-guard, so a
  /// throwing callable leaves every other waiter blocked forever.
  std::exception_ptr build_error;
  /// The cell's shared run-invariant state, built right after the
  /// topology (which it references — reset FIRST on release).
  std::optional<RunBatch> batch;
};

/// State the execute stage shares across the cells of one call.
struct Execution {
  std::vector<CellProgress> cells;
  std::mutex mutex;  ///< guards the fields below and every record step
  std::exception_ptr first_error;
  std::optional<std::size_t> failed_cell;  ///< empty for a record failure
  std::set<std::thread::id> worker_ids;
  /// Set once a cell cannot be recorded (ENOSPC, a yanked volume): the
  /// call will rethrow, so slices skip their simulations — their cells
  /// could not be recorded and a resume re-runs them anyway.
  std::atomic<bool> abort{false};
};

/// Slices for one live cell. When live cells outnumber workers, one slice
/// per cell maximises batch locality; when workers outnumber cells (a
/// short grid on a wide machine), each cell's seed range splits across
/// enough slices to keep every worker busy. Seeds, results and documents
/// are bit-identical either way — only the grouping changes.
int plan_slices(int runs, std::size_t live_cells, int threads) {
  if (live_cells >= static_cast<std::size_t>(threads)) {
    return 1;
  }
  const auto live = static_cast<int>(live_cells);
  return std::min(runs, (threads + live - 1) / live);
}

/// The execute stage for cell `c`: submits runs [0, config.runs) to
/// `pool` as up to `slices` contiguous slices, run i seeded with
/// derive_seed(cell_seed, i). The first exception of the call lands in
/// exec.first_error; `done(c)` runs on the worker that finishes the
/// cell's last slice.
template <typename Done>
void execute_cell(Execution& exec, ThreadPool& pool, std::size_t c,
                  const ExperimentConfig& config, std::uint64_t cell_seed,
                  int slices, Done done) {
  CellProgress& state = exec.cells[c];
  const int runs = config.runs;
  const int per_slice = (runs + slices - 1) / slices;
  state.runs.resize(static_cast<std::size_t>(runs));
  // ceil(runs / per_slice) actual slices (can be fewer than `slices`).
  state.remaining.store((runs + per_slice - 1) / per_slice);

  for (int first = 0; first < runs; first += per_slice) {
    const int last = std::min(first + per_slice, runs);
    pool.submit([&exec, &state, &config, c, cell_seed, first, last, done] {
      if (!state.started_set.exchange(true)) {
        state.started = Clock::now();
      }
      if (exec.abort.load(std::memory_order_relaxed)) {
        state.failed.store(true);
      } else {
        try {
          // First slice on the cell materialises its topology and hoists
          // the batch state. A build failure is captured as an
          // exception_ptr rather than thrown out of the callable: the
          // call_once then completes (its synchronisation publishes
          // build_error to every slice, which rethrows below) and the
          // once-guard is never left locked.
          std::call_once(state.build, [&state, &config] {
            try {
              state.topology = config.topology.build();
              state.batch.emplace(config, state.topology);
              // slpdas-lint: allow(bare-catch): rethrown via exception_ptr below with full type; catching everything keeps the once-guard released
            } catch (...) {
              state.build_error = std::current_exception();
            }
          });
          if (state.build_error) {
            std::rethrow_exception(state.build_error);
          }
          state.batch->run_range(
              cell_seed, first, last,
              state.runs.data() + static_cast<std::size_t>(first));
          // slpdas-lint: allow(bare-catch): worker boundary; the exception_ptr keeps the full type and is rethrown on the caller's thread
        } catch (...) {
          state.failed.store(true);
          const std::scoped_lock lock(exec.mutex);
          if (!exec.first_error) {
            exec.first_error = std::current_exception();
            exec.failed_cell = c;
          }
        }
      }
      {
        const std::scoped_lock lock(exec.mutex);
        exec.worker_ids.insert(std::this_thread::get_id());
      }
      if (state.remaining.fetch_sub(1) == 1) {
        // Last slice of this cell: release the batch and topology (batch
        // first: it references the topology) so memory tracks the cells
        // in flight, not every cell ever finished.
        state.batch.reset();
        state.topology = wsn::Topology{};
        state.wall_seconds = seconds_between(state.started, Clock::now());
        done(c);
      }
    });
  }
}

/// Rethrows `error` as a std::runtime_error naming the cell it came from:
/// a sweep can run thousands of cells, and "stream resume skipped cell X
/// because Y" is the difference between a fixable setup error and a
/// mystery.
[[noreturn]] void rethrow_naming_cell(const std::string& label,
                                      const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& inner) {
    throw std::runtime_error("sweep cell '" + label + "': " + inner.what());
    // slpdas-lint: allow(bare-catch): the typed handler above names every std::exception; anything else still gets the cell's name
  } catch (...) {
    throw std::runtime_error("sweep cell '" + label +
                             "': unknown exception in worker");
  }
}

/// Defined in the JSON section below; the record stage streams through it.
SweepJsonCell to_json_cell(const SweepCellResult& cell);

/// One run_sweep call, in three stages. schedule() validates the grid,
/// takes this shard's cells, probes the cache before any run is
/// scheduled and counts the live cells; execute() hands each live cell to
/// execute_cell; record() aggregates a cell, stores it in the cache,
/// writes its stream record with one flush and adds its progress line —
/// for computed cells (on the worker that finished them) and cache hits
/// (during schedule()) alike.
class SweepRun {
 public:
  SweepRun(const std::vector<SweepCell>& cells, const SweepOptions& options,
           ThreadPool& pool)
      : cells_(cells), options_(options), pool_(pool) {}
  // Workers hold `this` until the pool drains.
  SweepRun(const SweepRun&) = delete;
  SweepRun& operator=(const SweepRun&) = delete;

  SweepResult run() {
    schedule();
    if (!exec_.abort.load()) {
      execute();
    }
    pool_.wait_idle();
    // Flush buffered progress BEFORE rethrowing: the cells that completed
    // ahead of a failure are exactly the diagnostic context the user
    // needs.
    flush_progress();
    if (exec_.failed_cell) {
      rethrow_naming_cell(sweep_.cells[*exec_.failed_cell].label,
                          exec_.first_error);
    }
    if (exec_.first_error) {
      std::rethrow_exception(exec_.first_error);
    }
    if (!options_.deterministic_timing) {
      sweep_.distinct_worker_threads =
          static_cast<int>(exec_.worker_ids.size());
      sweep_.wall_seconds = seconds_between(started_, Clock::now());
    }
    return std::move(sweep_);
  }

 private:
  void schedule();
  void execute();
  void record(std::size_t m);
  void flush_progress();

  const std::vector<SweepCell>& cells_;
  const SweepOptions& options_;
  ThreadPool& pool_;
  const Clock::time_point started_ = Clock::now();
  SweepResult sweep_;
  std::vector<std::size_t> mine_;  ///< full-grid index of each shard cell
  std::size_t live_cells_ = 0;     ///< shard cells the cache did not hold
  Execution exec_;  ///< cells parallel to mine_ and sweep_.cells
  // Record-step state, guarded by exec_.mutex. Progress lines accumulate
  // and flush as ONE stream write at most once per progress_interval_ms
  // (and once after the pool drains), so lines are never interleaved
  // mid-way and a fast sweep cannot flood stderr.
  std::size_t cells_finished_ = 0;
  std::string progress_pending_;
  Clock::time_point progress_last_flush_ = started_;
};

void SweepRun::schedule() {
  if (options_.shard_count < 1 || options_.shard_index < 0 ||
      options_.shard_index >= options_.shard_count) {
    throw std::invalid_argument("run_sweep: invalid shard " +
                                std::to_string(options_.shard_index) + "/" +
                                std::to_string(options_.shard_count));
  }

  // Validate the FULL grid — even cells other shards will run — so every
  // shard agrees on what the grid is before partitioning it.
  std::set<std::string_view> labels;
  for (const SweepCell& cell : cells_) {
    if (cell.config.runs < 1) {
      throw std::invalid_argument("run_sweep: cell '" + cell.label +
                                  "' has runs < 1");
    }
    if (!labels.insert(cell.label).second) {
      throw std::invalid_argument("run_sweep: duplicate cell label '" +
                                  cell.label + "'");
    }
  }

  // Deterministic round-robin partition by full-grid cell index, minus the
  // cells a resumed stream already holds records for.
  const std::set<std::size_t> skip(options_.skip_cells.begin(),
                                   options_.skip_cells.end());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (c % static_cast<std::size_t>(options_.shard_count) ==
            static_cast<std::size_t>(options_.shard_index) &&
        skip.count(c) == 0) {
      mine_.push_back(c);
    }
  }

  sweep_.base_seed = options_.base_seed;
  sweep_.grid_hash = hash_sweep_grid(cells_);
  sweep_.shard_index = options_.shard_index;
  sweep_.shard_count = options_.shard_count;
  sweep_.cells_total = cells_.size();
  sweep_.threads = pool_.thread_count();
  sweep_.cells.resize(mine_.size());
  exec_.cells = std::vector<CellProgress>(mine_.size());
  live_cells_ = mine_.size();

  for (std::size_t m = 0; m < mine_.size(); ++m) {
    const SweepCell& cell = cells_[mine_[m]];
    SweepCellResult& out = sweep_.cells[m];
    out.index = mine_[m];
    out.label = cell.label;
    out.coordinates = cell.coordinates;
    out.cell_seed = derive_cell_seed(
        options_.base_seed,
        cell.seed_label.empty() ? cell.label : cell.seed_label);
    out.runs = cell.config.runs;
    out.config_topology = cell.config.topology.to_string();
    out.config_protocol = format_protocol_spec(
        cell.config.protocol, cell.config.phantom_walk_length);
    out.config_attacker = cell.config.attacker.to_spec();
    out.config_radio =
        format_radio_spec(cell.config.radio, cell.config.loss_probability);
    if (options_.cache == nullptr) {
      continue;
    }
    // Consult the result cache BEFORE any run is scheduled: a validated
    // hit skips the cell entirely (not even its topology is built) and is
    // recorded exactly like a computed cell, so the stream and the folded
    // document stay bit-identical to a cold run.
    std::optional<SweepJsonCell> hit = options_.cache->lookup(
        make_cell_cache_key(cell.config, out.cell_seed,
                            options_.deterministic_timing));
    if (!hit) {
      continue;
    }
    // Graft THIS sweep's grid position onto the stored record: the key
    // pins the experiment's identity, not where the cell sits in the
    // current grid or how its axis labels are spelled.
    hit->index = out.index;
    hit->label = out.label;
    hit->coordinates = out.coordinates;
    hit->cell_seed = out.cell_seed;
    hit->runs = out.runs;
    hit->has_config = true;
    hit->config_topology = out.config_topology;
    hit->config_protocol = out.config_protocol;
    hit->config_attacker = out.config_attacker;
    hit->config_radio = out.config_radio;
    // The stored wall clock (the ORIGINAL compute time — zero under
    // deterministic timing, whose records live under a separate key)
    // rides along unchanged.
    out.wall_seconds = hit->wall_seconds;
    out.record_perf = hit->has_perf;
    out.cached = std::move(hit);
    --live_cells_;
    record(m);
  }
}

void SweepRun::execute() {
  for (std::size_t m = 0; m < mine_.size(); ++m) {
    if (!sweep_.cells[m].cached) {
      const ExperimentConfig& config = cells_[mine_[m]].config;
      execute_cell(exec_, pool_, m, config, sweep_.cells[m].cell_seed,
                   plan_slices(config.runs, live_cells_, pool_.thread_count()),
                   [this](std::size_t cell) { record(cell); });
    }
  }
}

void SweepRun::record(std::size_t m) {
  const ExperimentConfig& config = cells_[mine_[m]].config;
  SweepCellResult& out = sweep_.cells[m];
  const bool hit = out.cached.has_value();
  bool trusted = true;
  if (!hit) {
    // Aggregate in run-index order so the result is independent of
    // scheduling. Perf telemetry rides along only when wall clocks are
    // real; deterministic documents stay byte-identical to the
    // pre-telemetry schema.
    const CellProgress& state = exec_.cells[m];
    out.result = aggregate_runs(state.runs, config.check_schedules);
    out.wall_seconds = options_.deterministic_timing ? 0.0 : state.wall_seconds;
    out.record_perf = !options_.deterministic_timing;
    // A cell with a failed run is neither recorded nor stored (a resume,
    // and a later cache hit, must not trust it).
    trusted = !state.failed.load();
  }

  // Compose the stream record — and populate the cache — off-lock.
  std::string line;
  if (trusted && (options_.stream != nullptr ||
                  (options_.cache != nullptr && !hit))) {
    std::optional<SweepJsonCell> computed;
    if (!hit) {
      computed = to_json_cell(out);
    }
    const SweepJsonCell& json_cell = hit ? *out.cached : *computed;
    if (options_.stream != nullptr) {
      std::ostringstream record;
      write_cell_stream_record(record, json_cell);
      line = record.str();
    }
    if (options_.cache != nullptr && !hit) {
      // Store failures are non-fatal (counted in the cache's stats): the
      // sweep still holds the computed result.
      options_.cache->store(
          make_cell_cache_key(config, out.cell_seed,
                              options_.deterministic_timing),
          json_cell);
    }
  }

  const std::scoped_lock lock(exec_.mutex);
  if (!line.empty() && !exec_.abort.load()) {
    // One write + flush per record: a kill leaves whole lines (at worst
    // one torn tail, which read_cell_stream drops).
    *options_.stream << line;
    options_.stream->flush();
    if (!options_.stream->good()) {
      exec_.abort.store(true);
      if (!exec_.first_error) {
        exec_.first_error = std::make_exception_ptr(std::runtime_error(
            "cell stream write failed (disk full?) — cells completed past "
            "this point are unrecorded; fix the volume and resume from the "
            "stream file"));
      }
    }
  }
  ++cells_finished_;
  if (options_.progress == nullptr) {
    return;
  }
  // Compose the whole line off-stream (std::to_chars for the float:
  // locale-independent, and the shared stream's flags stay untouched).
  char wall[32] = "cached";
  if (!hit) {
    const auto [end, ec] = std::to_chars(wall, wall + sizeof(wall) - 2,
                                         exec_.cells[m].wall_seconds,
                                         std::chars_format::fixed, 1);
    char* unit = ec == std::errc() ? end : wall;
    unit[0] = 's';
    unit[1] = '\0';
  }
  progress_pending_ += '[';
  progress_pending_ += std::to_string(cells_finished_);
  progress_pending_ += '/';
  progress_pending_ += std::to_string(mine_.size());
  progress_pending_ += "] ";
  progress_pending_ += out.label;
  progress_pending_ += " capture=";
  progress_pending_ += std::to_string(
      hit ? out.cached->capture_successes : out.result.capture.successes());
  progress_pending_ += '/';
  progress_pending_ += std::to_string(hit ? out.cached->capture_trials
                                          : out.result.capture.trials());
  progress_pending_ += " (";
  progress_pending_ += wall;
  progress_pending_ += ")\n";
  const Clock::time_point now = Clock::now();
  if (cells_finished_ == mine_.size() ||
      seconds_between(progress_last_flush_, now) * 1000.0 >=
          static_cast<double>(options_.progress_interval_ms)) {
    flush_progress();
    progress_last_flush_ = now;
  }
}

void SweepRun::flush_progress() {
  if (!progress_pending_.empty() && options_.progress != nullptr) {
    *options_.progress << progress_pending_;
    options_.progress->flush();
    progress_pending_.clear();
  }
}

}  // namespace

SweepResult run_sweep(const std::vector<SweepCell>& cells,
                      const SweepOptions& options) {
  ThreadPool pool(options.threads);
  return run_sweep(cells, options, pool);
}

SweepResult run_sweep(const std::vector<SweepCell>& cells,
                      const SweepOptions& options, ThreadPool& pool) {
  return SweepRun(cells, options, pool).run();
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (config.runs < 1) {
    throw std::invalid_argument("run_experiment: runs must be >= 1");
  }
  // One cell, seeded with config.base_seed, on a pool of at most one
  // worker per run; its errors propagate unwrapped. `exec` outlives the
  // pool, whose destructor drains any slice still queued.
  Execution exec;
  exec.cells = std::vector<CellProgress>(1);
  const int threads =
      config.threads > 0
          ? config.threads
          : static_cast<int>(std::thread::hardware_concurrency());
  ThreadPool pool(std::min(threads, config.runs));
  execute_cell(exec, pool, 0, config, config.base_seed,
               plan_slices(config.runs, 1, pool.thread_count()),
               [](std::size_t /*cell*/) {});
  pool.wait_idle();
  if (exec.first_error) {
    std::rethrow_exception(exec.first_error);
  }
  return aggregate_runs(exec.cells[0].runs, config.check_schedules);
}

// ---------------------------------------------------------------------------
// JSON writing
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kSchemaV1 = "slpdas.sweep.v1";
constexpr std::string_view kSchemaV2 = "slpdas.sweep.v2";
constexpr std::string_view kCellSchemaV1 = "slpdas.cell.v1";

/// Doubles print with max_digits10 so the round-trip is exact; NaN and
/// infinities (empty-stat min/max) serialise as null.
void write_double(std::ostream& out, double value) {
  if (std::isfinite(value)) {
    out << std::setprecision(std::numeric_limits<double>::max_digits10)
        << value;
  } else {
    out << "null";
  }
}

void write_string(std::ostream& out, std::string_view text) {
  detail::write_json_string(out, text);
}

void write_stats(std::ostream& out, const SweepJsonStats& stats) {
  out << "{\"count\": " << stats.count << ", \"mean\": ";
  write_double(out, stats.mean);
  out << ", \"stddev\": ";
  write_double(out, stats.stddev);
  out << ", \"min\": ";
  write_double(out, stats.min);
  out << ", \"max\": ";
  write_double(out, stats.max);
  out << '}';
}

SweepJsonStats to_json_stats(const metrics::RunningStats& stats) {
  SweepJsonStats out;
  out.count = stats.count();
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  out.min = stats.min();
  out.max = stats.max();
  return out;
}

SweepJsonCell to_json_cell(const SweepCellResult& cell) {
  if (cell.cached) {
    // Cache hit: the stored record (grid position already grafted on by
    // run_sweep) IS the cell's serialised form — re-deriving it from
    // `result` would fabricate stats from a default-constructed
    // ExperimentResult.
    return *cell.cached;
  }
  SweepJsonCell out;
  out.index = cell.index;
  out.label = cell.label;
  out.coordinates = cell.coordinates;
  out.cell_seed = cell.cell_seed;
  out.runs = cell.runs;
  out.has_config = true;
  out.config_topology = cell.config_topology;
  out.config_protocol = cell.config_protocol;
  out.config_attacker = cell.config_attacker;
  out.config_radio = cell.config_radio;
  const ExperimentResult& r = cell.result;
  out.capture_trials = r.capture.trials();
  out.capture_successes = r.capture.successes();
  out.capture_ratio = r.capture.ratio();
  const auto [low, high] = r.capture.wilson95();
  out.capture_wilson95_low = low;
  out.capture_wilson95_high = high;
  out.capture_time_s = to_json_stats(r.capture_time_s);
  out.delivery_ratio = to_json_stats(r.delivery_ratio);
  out.delivery_latency_s = to_json_stats(r.delivery_latency_s);
  out.control_messages_per_node = to_json_stats(r.control_messages_per_node);
  out.normal_messages_per_node = to_json_stats(r.normal_messages_per_node);
  out.attacker_moves = to_json_stats(r.attacker_moves);
  out.slot_band_span = to_json_stats(r.slot_band_span);
  out.schedule_density = to_json_stats(r.schedule_density);
  out.schedule_incomplete_runs = r.schedule_incomplete_runs;
  out.weak_das_failures = r.weak_das_failures;
  out.strong_das_failures = r.strong_das_failures;
  out.wall_seconds = cell.wall_seconds;
  out.has_perf = cell.record_perf;
  if (out.has_perf) {
    out.perf_events = r.events_executed;
    out.perf_deliveries = r.deliveries;
    out.perf_timer_fires = r.timer_fires;
    out.perf_events_per_sec =
        cell.wall_seconds > 0.0
            ? static_cast<double>(r.events_executed) / cell.wall_seconds
            : 0.0;
  }
  return out;
}

/// The per-cell stats blocks, in serialisation order.
using StatsField = std::pair<const char*, SweepJsonStats SweepJsonCell::*>;
/// Writes a cell's fields (everything between its braces). `sep`
/// separates fields — ",\n      " inside the indented sweep document,
/// ", " in a single-line cell-stream record — so both writers share ONE
/// field list and can never drift apart from each other or from
/// parse_cell: the byte-stable round trip the resume rewrite relies on.
void write_cell_fields(std::ostream& out, const SweepJsonCell& cell,
                       const char* sep);

constexpr StatsField kStatsFields[] = {
    {"capture_time_s", &SweepJsonCell::capture_time_s},
    {"delivery_ratio", &SweepJsonCell::delivery_ratio},
    {"delivery_latency_s", &SweepJsonCell::delivery_latency_s},
    {"control_messages_per_node", &SweepJsonCell::control_messages_per_node},
    {"normal_messages_per_node", &SweepJsonCell::normal_messages_per_node},
    {"attacker_moves", &SweepJsonCell::attacker_moves},
    {"slot_band_span", &SweepJsonCell::slot_band_span},
    {"schedule_density", &SweepJsonCell::schedule_density},
};

void write_cell_fields(std::ostream& out, const SweepJsonCell& cell,
                       const char* sep) {
  out << "\"index\": " << cell.index << sep << "\"label\": ";
  write_string(out, cell.label);
  out << sep << "\"coordinates\": {";
  for (std::size_t i = 0; i < cell.coordinates.size(); ++i) {
    out << (i == 0 ? "" : ", ");
    write_string(out, cell.coordinates[i].first);
    out << ": ";
    write_string(out, cell.coordinates[i].second);
  }
  out << '}' << sep << "\"cell_seed\": " << cell.cell_seed << sep
      << "\"runs\": " << cell.runs;
  if (cell.has_config) {
    // Every document this library writes carries the block (the specs
    // are part of the experiment's identity, so unlike perf it is present
    // under deterministic timing too); only reparsed legacy documents
    // lack it, and their rewrite must stay byte-identical.
    out << sep << "\"config\": {\"topology\": ";
    write_string(out, cell.config_topology);
    out << ", \"protocol\": ";
    write_string(out, cell.config_protocol);
    out << ", \"attacker\": ";
    write_string(out, cell.config_attacker);
    out << ", \"radio\": ";
    write_string(out, cell.config_radio);
    out << '}';
  }
  out << sep << "\"capture\": {\"trials\": " << cell.capture_trials
      << ", \"successes\": " << cell.capture_successes << ", \"ratio\": ";
  write_double(out, cell.capture_ratio);
  out << ", \"wilson95\": [";
  write_double(out, cell.capture_wilson95_low);
  out << ", ";
  write_double(out, cell.capture_wilson95_high);
  out << "]}";
  for (const auto& [key, member] : kStatsFields) {
    out << sep << "\"" << key << "\": ";
    write_stats(out, cell.*member);
  }
  out << sep << "\"schedule_incomplete_runs\": "
      << cell.schedule_incomplete_runs << sep
      << "\"weak_das_failures\": " << cell.weak_das_failures << sep
      << "\"strong_das_failures\": " << cell.strong_das_failures << sep
      << "\"wall_seconds\": ";
  write_double(out, cell.wall_seconds);
  if (cell.has_perf) {
    // Real-clock runs only: deterministic documents omit the block so
    // their bytes stay invariant (merge/stream rely on that).
    out << sep << "\"perf\": {\"events\": " << cell.perf_events
        << ", \"deliveries\": " << cell.perf_deliveries
        << ", \"timer_fires\": " << cell.perf_timer_fires
        << ", \"events_per_sec\": ";
    write_double(out, cell.perf_events_per_sec);
    out << '}';
  }
}

}  // namespace

const std::string* SweepJsonCell::coordinate(std::string_view name) const {
  for (const auto& [axis, value] : coordinates) {
    if (axis == name) {
      return &value;
    }
  }
  return nullptr;
}

const SweepJsonCell* SweepJson::find_cell(std::string_view label) const {
  for (const SweepJsonCell& cell : cells) {
    if (cell.label == label) {
      return &cell;
    }
  }
  return nullptr;
}

SweepJson to_sweep_json(const SweepResult& result, std::string_view name) {
  SweepJson document;
  document.schema = std::string(kSchemaV2);
  document.name = std::string(name);
  document.base_seed = result.base_seed;
  document.grid_hash = result.grid_hash;
  document.shard_index = result.shard_index;
  document.shard_count = result.shard_count;
  // Hand-rolled SweepResults (tests) may leave cells_total unset.
  document.cells_total = result.cells_total != 0 || result.cells.empty()
                             ? result.cells_total
                             : result.cells.size();
  document.threads = result.threads;
  document.distinct_worker_threads = result.distinct_worker_threads;
  document.wall_seconds = result.wall_seconds;
  document.cells.reserve(result.cells.size());
  for (const SweepCellResult& cell : result.cells) {
    document.cells.push_back(to_json_cell(cell));
  }
  return document;
}

void write_sweep_json(std::ostream& out, const SweepJson& document) {
  // Restore the caller's formatting on exit; write_double/write_string
  // adjust precision, flags and fill along the way.
  const auto saved_flags = out.flags();
  const auto saved_precision = out.precision();
  const auto saved_fill = out.fill();
  out << "{\n  \"schema\": ";
  write_string(out, kSchemaV2);
  out << ",\n  \"name\": ";
  write_string(out, document.name);
  out << ",\n  \"base_seed\": " << document.base_seed
      << ",\n  \"grid_hash\": " << document.grid_hash
      << ",\n  \"shard\": {\"index\": " << document.shard_index
      << ", \"count\": " << document.shard_count
      << ", \"cells_total\": " << document.cells_total << '}'
      << ",\n  \"threads\": " << document.threads
      << ",\n  \"distinct_worker_threads\": "
      << document.distinct_worker_threads << ",\n  \"wall_seconds\": ";
  write_double(out, document.wall_seconds);
  out << ",\n  \"cells\": [";
  for (std::size_t c = 0; c < document.cells.size(); ++c) {
    const SweepJsonCell& cell = document.cells[c];
    out << (c == 0 ? "\n" : ",\n") << "    {\n      ";
    write_cell_fields(out, cell, ",\n      ");
    out << "\n    }";
  }
  out << (document.cells.empty() ? "]" : "\n  ]") << "\n}\n";
  out.flags(saved_flags);
  out.precision(saved_precision);
  out.fill(saved_fill);
}

void write_sweep_json(std::ostream& out, const SweepResult& result,
                      std::string_view name) {
  write_sweep_json(out, to_sweep_json(result, name));
}

// ---------------------------------------------------------------------------
// JSON reading (shared strict parser: src/core/json.hpp)
// ---------------------------------------------------------------------------

namespace {

using detail::JsonParser;

SweepJsonStats parse_stats(const JsonParser::Value& value) {
  SweepJsonStats stats;
  stats.count = value.at("count").as_u64();
  stats.mean = value.at("mean").as_number();
  stats.stddev = value.at("stddev").as_number();
  stats.min = value.at("min").as_number();
  stats.max = value.at("max").as_number();
  return stats;
}

}  // namespace

namespace detail {

// One cell object — shared between the v1/v2 document reader, the
// cell-stream reader and the result cache (whose records all carry the
// same field set as v2). Declared in cell_record.hpp.
SweepJsonCell parse_cell_json(const JsonParser::Value& cell_value, bool v2,
                              std::uint64_t fallback_index) {
  SweepJsonCell cell;
  cell.index = v2 ? cell_value.at("index").as_u64() : fallback_index;
  cell.label = cell_value.at("label").as_string();
  for (const auto& [key, value] : cell_value.at("coordinates").as_object()) {
    cell.coordinates.emplace_back(key, value.as_string());
  }
  cell.cell_seed = cell_value.at("cell_seed").as_u64();
  cell.runs = static_cast<int>(cell_value.at("runs").as_number());
  if (const JsonParser::Value* config = cell_value.find("config")) {
    // Optional: absent only in documents older than the spec layer.
    cell.has_config = true;
    cell.config_topology = config->at("topology").as_string();
    cell.config_protocol = config->at("protocol").as_string();
    cell.config_attacker = config->at("attacker").as_string();
    cell.config_radio = config->at("radio").as_string();
  }
  const JsonParser::Value& capture = cell_value.at("capture");
  cell.capture_trials = capture.at("trials").as_u64();
  cell.capture_successes = capture.at("successes").as_u64();
  cell.capture_ratio = capture.at("ratio").as_number();
  const JsonParser::Array& wilson = capture.at("wilson95").as_array();
  if (wilson.size() != 2) {
    throw std::runtime_error("sweep json: wilson95 must have two entries");
  }
  cell.capture_wilson95_low = wilson[0].as_number();
  cell.capture_wilson95_high = wilson[1].as_number();
  cell.capture_time_s = parse_stats(cell_value.at("capture_time_s"));
  cell.delivery_ratio = parse_stats(cell_value.at("delivery_ratio"));
  cell.delivery_latency_s = parse_stats(cell_value.at("delivery_latency_s"));
  cell.control_messages_per_node =
      parse_stats(cell_value.at("control_messages_per_node"));
  cell.normal_messages_per_node =
      parse_stats(cell_value.at("normal_messages_per_node"));
  cell.attacker_moves = parse_stats(cell_value.at("attacker_moves"));
  if (v2) {
    cell.slot_band_span = parse_stats(cell_value.at("slot_band_span"));
    cell.schedule_density = parse_stats(cell_value.at("schedule_density"));
  }
  cell.schedule_incomplete_runs =
      static_cast<int>(cell_value.at("schedule_incomplete_runs").as_number());
  cell.weak_das_failures =
      static_cast<int>(cell_value.at("weak_das_failures").as_number());
  cell.strong_das_failures =
      static_cast<int>(cell_value.at("strong_das_failures").as_number());
  cell.wall_seconds = cell_value.at("wall_seconds").as_number();
  if (const JsonParser::Value* perf = cell_value.find("perf")) {
    // Optional: present only in real-clock documents (never under
    // --deterministic), and in no legacy document at all.
    cell.has_perf = true;
    cell.perf_events = perf->at("events").as_u64();
    cell.perf_deliveries = perf->at("deliveries").as_u64();
    cell.perf_timer_fires = perf->at("timer_fires").as_u64();
    cell.perf_events_per_sec = perf->at("events_per_sec").as_number();
  }
  return cell;
}

}  // namespace detail

SweepJson read_sweep_json(std::istream& in) {
  JsonParser parser(in);
  const JsonParser::Value root = parser.parse();

  SweepJson document;
  document.schema = root.at("schema").as_string();
  const bool v2 = document.schema == kSchemaV2;
  if (!v2 && document.schema != kSchemaV1) {
    throw std::runtime_error("sweep json: unknown schema '" + document.schema +
                             "'");
  }
  document.name = root.at("name").as_string();
  if (v2) {
    document.base_seed = root.at("base_seed").as_u64();
    document.grid_hash = root.at("grid_hash").as_u64();
    const JsonParser::Value& shard = root.at("shard");
    document.shard_index = static_cast<int>(shard.at("index").as_number());
    document.shard_count = static_cast<int>(shard.at("count").as_number());
    document.cells_total = shard.at("cells_total").as_u64();
  }
  document.threads = static_cast<int>(root.at("threads").as_number());
  if (const JsonParser::Value* distinct =
          root.find("distinct_worker_threads")) {
    document.distinct_worker_threads =
        static_cast<int>(distinct->as_number());
  }
  document.wall_seconds = root.at("wall_seconds").as_number();

  for (const JsonParser::Value& cell_value : root.at("cells").as_array()) {
    document.cells.push_back(detail::parse_cell_json(
        cell_value, v2, static_cast<std::uint64_t>(document.cells.size())));
  }
  if (!v2) {
    document.cells_total = document.cells.size();
  }
  return document;
}

// ---------------------------------------------------------------------------
// Shard merging
// ---------------------------------------------------------------------------

SweepJson merge_sweep_shards(std::vector<SweepJson> shards) {
  if (shards.empty()) {
    throw std::runtime_error("merge: no shard documents");
  }
  const int count = static_cast<int>(shards.size());

  SweepJson merged;
  merged.schema = std::string(kSchemaV2);
  merged.name = shards.front().name;
  merged.base_seed = shards.front().base_seed;
  merged.grid_hash = shards.front().grid_hash;
  merged.cells_total = shards.front().cells_total;
  merged.shard_index = 0;
  merged.shard_count = 1;

  std::set<int> seen_indices;
  for (SweepJson& shard : shards) {
    if (shard.name != merged.name) {
      throw std::runtime_error("merge: shard names differ ('" + merged.name +
                               "' vs '" + shard.name + "')");
    }
    if (shard.base_seed != merged.base_seed) {
      // Mixed seeds would silently break the common-random-numbers
      // pairing between cells that landed on different shards.
      throw std::runtime_error(
          "merge: shard base seeds differ (" +
          std::to_string(merged.base_seed) + " vs " +
          std::to_string(shard.base_seed) + ")");
    }
    if (shard.grid_hash != merged.grid_hash) {
      // Different full-grid fingerprints mean the shards were produced
      // from different grids (e.g. one run used --sd 5 or another
      // --runs value); interleaving them would fabricate an experiment
      // nobody ran.
      throw std::runtime_error(
          "merge: shard grids differ (were the shards run with identical "
          "scenario options?)");
    }
    if (shard.shard_count != count) {
      throw std::runtime_error(
          "merge: document expects " + std::to_string(shard.shard_count) +
          " shard(s) but " + std::to_string(count) + " were given");
    }
    if (!seen_indices.insert(shard.shard_index).second) {
      throw std::runtime_error("merge: duplicate shard index " +
                               std::to_string(shard.shard_index));
    }
    if (shard.shard_index < 0 || shard.shard_index >= count) {
      throw std::runtime_error("merge: shard index " +
                               std::to_string(shard.shard_index) +
                               " out of range");
    }
    if (shard.cells_total != merged.cells_total) {
      throw std::runtime_error("merge: cells_total differs across shards");
    }
    merged.threads = std::max(merged.threads, shard.threads);
    merged.distinct_worker_threads = std::max(merged.distinct_worker_threads,
                                              shard.distinct_worker_threads);
    merged.wall_seconds += shard.wall_seconds;
    for (SweepJsonCell& cell : shard.cells) {
      merged.cells.push_back(std::move(cell));
    }
  }

  std::sort(merged.cells.begin(), merged.cells.end(),
            [](const SweepJsonCell& a, const SweepJsonCell& b) {
              return a.index < b.index;
            });
  if (merged.cells.size() != merged.cells_total) {
    throw std::runtime_error(
        "merge: shards carry " + std::to_string(merged.cells.size()) +
        " cells, expected " + std::to_string(merged.cells_total));
  }
  for (std::size_t i = 0; i < merged.cells.size(); ++i) {
    if (merged.cells[i].index != i) {
      throw std::runtime_error("merge: cell index " + std::to_string(i) +
                               " is missing or duplicated");
    }
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Cell streams ("slpdas.cell.v1")
// ---------------------------------------------------------------------------

void write_cell_stream_header(std::ostream& out,
                              const CellStreamHeader& header) {
  const auto saved_flags = out.flags();
  const auto saved_fill = out.fill();
  out << "{\"schema\": ";
  write_string(out, kCellSchemaV1);
  out << ", \"name\": ";
  write_string(out, header.name);
  out << ", \"base_seed\": " << header.base_seed
      << ", \"grid_hash\": " << header.grid_hash
      << ", \"shard\": {\"index\": " << header.shard_index
      << ", \"count\": " << header.shard_count
      << ", \"cells_total\": " << header.cells_total
      << "}, \"deterministic\": "
      << (header.deterministic ? "true" : "false")
      << ", \"threads\": " << header.threads << "}\n";
  out.flags(saved_flags);
  out.fill(saved_fill);
}

void write_cell_stream_record(std::ostream& out, const SweepJsonCell& cell) {
  const auto saved_flags = out.flags();
  const auto saved_precision = out.precision();
  const auto saved_fill = out.fill();
  out << '{';
  write_cell_fields(out, cell, ", ");
  out << "}\n";
  out.flags(saved_flags);
  out.precision(saved_precision);
  out.fill(saved_fill);
}

CellStream read_cell_stream(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  CellStream stream;
  bool have_header = false;
  std::set<std::uint64_t> seen;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    if (newline == std::string::npos) {
      // No terminating newline: a torn tail from a killed writer (records
      // are single flushed writes, so only the LAST line can be torn).
      break;
    }
    const std::string line = text.substr(pos, newline - pos);
    pos = newline + 1;
    if (line.empty()) {
      continue;
    }
    std::istringstream line_in(line);
    JsonParser parser(line_in);
    const JsonParser::Value root = parser.parse();
    if (!have_header) {
      stream.header.schema = root.at("schema").as_string();
      if (stream.header.schema != kCellSchemaV1) {
        throw std::runtime_error("cell stream: unknown schema '" +
                                 stream.header.schema + "'");
      }
      stream.header.name = root.at("name").as_string();
      stream.header.base_seed = root.at("base_seed").as_u64();
      stream.header.grid_hash = root.at("grid_hash").as_u64();
      const JsonParser::Value& shard = root.at("shard");
      stream.header.shard_index =
          static_cast<int>(shard.at("index").as_number());
      stream.header.shard_count =
          static_cast<int>(shard.at("count").as_number());
      stream.header.cells_total = shard.at("cells_total").as_u64();
      if (stream.header.shard_count < 1 || stream.header.shard_index < 0 ||
          stream.header.shard_index >= stream.header.shard_count) {
        throw std::runtime_error("cell stream: invalid shard spec " +
                                 std::to_string(stream.header.shard_index) +
                                 "/" +
                                 std::to_string(stream.header.shard_count));
      }
      stream.header.deterministic = root.at("deterministic").as_bool();
      stream.header.threads = static_cast<int>(root.at("threads").as_number());
      have_header = true;
      continue;
    }
    SweepJsonCell cell = detail::parse_cell_json(root, /*v2=*/true, 0);
    if (cell.index >= stream.header.cells_total) {
      throw std::runtime_error("cell stream: cell index " +
                               std::to_string(cell.index) +
                               " lies outside the grid");
    }
    if (cell.index % static_cast<std::uint64_t>(stream.header.shard_count) !=
        static_cast<std::uint64_t>(stream.header.shard_index)) {
      throw std::runtime_error(
          "cell stream: cell " + std::to_string(cell.index) +
          " does not belong to shard " +
          std::to_string(stream.header.shard_index) + "/" +
          std::to_string(stream.header.shard_count));
    }
    if (!seen.insert(cell.index).second) {
      throw std::runtime_error("cell stream: duplicate record for cell " +
                               std::to_string(cell.index));
    }
    stream.cells.push_back(std::move(cell));
  }
  if (!have_header) {
    throw std::runtime_error("cell stream: missing header record");
  }
  return stream;
}

void verify_cell_stream_resumable(const CellStreamHeader& existing,
                                  const CellStreamHeader& expected) {
  const auto refuse = [](const char* field, const std::string& stream_has,
                         const std::string& run_wants) {
    throw std::runtime_error(
        std::string("cell stream: ") + field + " mismatch (stream has " +
        stream_has + ", this run expects " + run_wants +
        ") — the stream file belongs to a different sweep");
  };
  if (existing.name != expected.name) {
    refuse("name", "'" + existing.name + "'", "'" + expected.name + "'");
  }
  if (existing.base_seed != expected.base_seed) {
    refuse("base_seed", std::to_string(existing.base_seed),
           std::to_string(expected.base_seed));
  }
  if (existing.grid_hash != expected.grid_hash) {
    refuse("grid_hash", std::to_string(existing.grid_hash),
           std::to_string(expected.grid_hash));
  }
  if (existing.shard_index != expected.shard_index ||
      existing.shard_count != expected.shard_count) {
    refuse("shard",
           std::to_string(existing.shard_index) + "/" +
               std::to_string(existing.shard_count),
           std::to_string(expected.shard_index) + "/" +
               std::to_string(expected.shard_count));
  }
  if (existing.cells_total != expected.cells_total) {
    refuse("cells_total", std::to_string(existing.cells_total),
           std::to_string(expected.cells_total));
  }
  if (existing.deterministic != expected.deterministic) {
    // Mixing zeroed and real wall clocks in one folded document would
    // silently break the bit-reproducibility contract.
    refuse("deterministic", existing.deterministic ? "true" : "false",
           expected.deterministic ? "true" : "false");
  }
  // `threads` is deliberately not compared: seeds and aggregation are
  // pool-size independent, so a resume on different hardware is fine (the
  // fold keeps the original run's thread count).
}

SweepJson fold_cell_stream(const CellStream& stream) {
  const CellStreamHeader& header = stream.header;
  if (header.shard_count < 1 || header.shard_index < 0 ||
      header.shard_index >= header.shard_count) {
    throw std::runtime_error("cell stream: invalid shard spec " +
                             std::to_string(header.shard_index) + "/" +
                             std::to_string(header.shard_count));
  }
  SweepJson document;
  document.schema = std::string(kSchemaV2);
  document.name = header.name;
  document.base_seed = header.base_seed;
  document.grid_hash = header.grid_hash;
  document.shard_index = header.shard_index;
  document.shard_count = header.shard_count;
  document.cells_total = header.cells_total;
  document.threads = header.threads;
  document.distinct_worker_threads = 0;
  document.cells = stream.cells;
  // Records arrive in completion order; the document wants grid order.
  std::sort(document.cells.begin(), document.cells.end(),
            [](const SweepJsonCell& a, const SweepJsonCell& b) {
              return a.index < b.index;
            });
  std::size_t at = 0;
  for (std::uint64_t i = 0; i < header.cells_total; ++i) {
    if (i % static_cast<std::uint64_t>(header.shard_count) !=
        static_cast<std::uint64_t>(header.shard_index)) {
      continue;
    }
    if (at >= document.cells.size() || document.cells[at].index != i) {
      throw std::runtime_error(
          "cell stream: cell " + std::to_string(i) +
          " has no record yet — resume the run to complete the stream "
          "before folding it");
    }
    document.wall_seconds += document.cells[at].wall_seconds;
    ++at;
  }
  if (at != document.cells.size()) {
    throw std::runtime_error(
        "cell stream: carries more records than the grid has cells");
  }
  return document;
}

}  // namespace slpdas::core
