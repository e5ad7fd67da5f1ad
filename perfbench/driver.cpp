// perfbench driver: runs one benchmark workload through the slpdas public
// API and prints one JSON object (its last stdout line) with the
// end-to-end metrics, the per-layer metrics, the correctness verdict and
// the host/build context. perfbench/run.py builds this program and turns
// its output into the benchmark's result line; WORKLOADS.md explains the
// workloads and what each metric should respond to.
//
// One invocation:
//   1. repeats the untraced pipeline, once as a warm-up and then for
//      --seconds: set-ups (grid, pool, cache, stream), a cold sweep through
//      core::run_sweep (every cell simulated, stored in a fresh CellCache
//      and streamed), warm sweeps over the same cache (every cell a hit),
//      and a sweep-document / cell-stream round trip;
//   2. re-runs the same cells as a single-threaded, span-traced
//      decomposition through the layers' own entry points (TopologySpec::
//      build, RunBatch, Fork, Fork::run, aggregate_runs, to_sweep_json,
//      CellCache, the cell stream and the JSON reader/writer);
//   3. checks every document: warm == cold, folded stream == cold, reread
//      JSON == cold, every repetition == the first, decomposition == cold
//      (compared the way compare_sweeps does), plus cache counters.
//
// Usage:
//   perfbench_driver --workload grid_scale|cell_store
//                    --seed N --seconds S --work-dir DIR
//                    [--trace 0|1] [--size full|smoke] [--spans FILE]
//
// Every workload runs on one thread, the timed sweeps and the traced
// decomposition alike.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/compare.hpp"
#include "slpdas/core/experiment.hpp"
#include "slpdas/core/run_batch.hpp"
#include "slpdas/core/sweep.hpp"
#include "slpdas/core/thread_pool.hpp"
#include "slpdas/das/centralized.hpp"
#include "slpdas/rng.hpp"
#include "slpdas/verify/das_checker.hpp"
#include "slpdas/verify/safety_period.hpp"
#include "slpdas/verify/verify_schedule.hpp"
#include "slpdas/wsn/topology_spec.hpp"

namespace fs = std::filesystem;
using namespace slpdas;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of an unsorted sample (p in [0, 100]).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  /// Builds the cell list; called once per set-up, because grid expansion
  /// is part of what a sweep's set-up costs.
  std::vector<core::SweepCell> (*make_cells)(bool smoke) = nullptr;
};

core::SweepGrid::AxisValue fixed(std::string value) {
  return {std::move(value), nullptr};
}

core::SweepGrid::AxisValue topology_value(const std::string& spec, int runs) {
  const wsn::TopologySpec parsed = wsn::TopologySpec::parse(spec);
  return {spec, [parsed, runs](core::ExperimentConfig& config) {
            config.topology = parsed;
            config.runs = runs;
          }};
}

core::SweepGrid::AxisValue protocol_value(core::ProtocolKind kind,
                                          int walk_length = 10) {
  return {core::format_protocol_spec(kind, walk_length),
          [kind, walk_length](core::ExperimentConfig& config) {
            config.protocol = kind;
            config.phantom_walk_length = walk_length;
          }};
}

std::vector<core::SweepGrid::AxisValue> protocol_pair() {
  return {protocol_value(core::ProtocolKind::kProtectionlessDas),
          protocol_value(core::ProtocolKind::kSlpDas)};
}

// grid_scale: the casino-lab scaling grids, one thread, no schedule checks.
// Run counts shrink with the grid so every side costs about the same.
std::vector<core::SweepCell> grid_scale_cells(bool smoke) {
  core::ExperimentConfig base;
  base.radio = core::RadioKind::kCasinoLab;
  base.check_schedules = false;
  const std::vector<std::pair<int, int>> sides =
      smoke ? std::vector<std::pair<int, int>>{{7, 2}, {9, 1}}
            : std::vector<std::pair<int, int>>{
                  {11, 128}, {21, 24}, {31, 8}, {41, 4}};
  std::vector<core::SweepGrid::AxisValue> side_values;
  for (const auto& [side, runs] : sides) {
    side_values.push_back(topology_value("grid:" + std::to_string(side), runs));
  }
  core::SweepGrid grid(base);
  grid.axis("topology", std::move(side_values));
  grid.axis("protocol", protocol_pair(), /*seeded=*/false);
  return grid.expand();
}

// cell_store: hundreds of tiny cells (<= 49 nodes, 1-2 seeds) where the
// per-cell fixed costs and the cache / stream / JSON layers dominate.
std::vector<core::SweepCell> cell_store_cells(bool smoke) {
  core::ExperimentConfig base;
  base.radio = core::RadioKind::kCasinoLab;
  base.check_schedules = false;
  core::SweepGrid grid(base);
  if (smoke) {
    grid.axis("topology", {topology_value("grid:5", 1)});
    grid.axis("attacker", {fixed("R=1,H=0,M=1,D=first-heard")});
    grid.axis("sd", {fixed("3")});
    grid.axis("cs", {fixed("1.5")});
  } else {
    grid.axis("topology",
              {topology_value("grid:5", 2), topology_value("grid:7", 1),
               topology_value("line:12", 2), topology_value("ring:16", 1)});
    std::vector<core::SweepGrid::AxisValue> attackers;
    for (const char* spec :
         {"R=1,H=0,M=1,D=first-heard", "R=2,H=0,M=1,D=min-slot",
          "R=1,H=0,M=2,D=first-heard", "R=2,H=2,M=1,D=history-avoiding",
          "R=2,H=4,M=2,D=history-avoiding", "R=2,H=0,M=1,D=random"}) {
      const core::AttackerSpec parsed = core::AttackerSpec::parse(spec);
      attackers.push_back({spec, [parsed](core::ExperimentConfig& config) {
                             config.attacker = parsed;
                           }});
    }
    grid.axis("attacker", std::move(attackers));
    grid.axis("sd", {{"2",
                      [](core::ExperimentConfig& config) {
                        config.parameters.search_distance = 2;
                      }},
                     {"3", [](core::ExperimentConfig& config) {
                        config.parameters.search_distance = 3;
                      }}});
    std::vector<core::SweepGrid::AxisValue> factors;
    for (const double cs : {1.2, 1.5, 1.8}) {
      std::ostringstream label;
      label << cs;
      factors.push_back({label.str(), [cs](core::ExperimentConfig& config) {
                           config.parameters.safety_factor = cs;
                         }});
    }
    grid.axis("cs", std::move(factors));
  }
  grid.axis("protocol", protocol_pair(), /*seeded=*/false);
  return grid.expand();
}

const Workload kWorkloads[] = {
    {"grid_scale", grid_scale_cells},
    {"cell_store", cell_store_cells},
};

// ---------------------------------------------------------------------------
// Timing, byte-counting stream buffer (passed as SweepOptions::stream)
// ---------------------------------------------------------------------------

class CountingBuf final : public std::streambuf {
 public:
  explicit CountingBuf(std::streambuf* sink) : sink_(sink) {}

  double busy_seconds = 0.0;
  std::uint64_t bytes = 0;

 protected:
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    const Clock::time_point start = Clock::now();
    const std::streamsize written = sink_->sputn(data, count);
    busy_seconds += seconds_between(start, Clock::now());
    bytes += static_cast<std::uint64_t>(std::max<std::streamsize>(written, 0));
    return written;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
  }
  int sync() override {
    const Clock::time_point start = Clock::now();
    const int result = sink_->pubsync();
    busy_seconds += seconds_between(start, Clock::now());
    return result;
  }

 private:
  std::streambuf* sink_;
};

/// An existing output file, opened without truncation, behind a
/// CountingBuf (see prepare_set_up for why the file is created first).
struct CountedFile {
  explicit CountedFile(const fs::path& path) : counting(&file), stream(&counting) {
    if (file.open(path, std::ios::in | std::ios::out | std::ios::binary) ==
        nullptr) {
      throw std::runtime_error("cannot open " + path.string());
    }
  }
  CountedFile(const CountedFile&) = delete;
  CountedFile& operator=(const CountedFile&) = delete;

  void close() {
    stream.flush();
    file.close();
  }

  std::filebuf file;
  CountingBuf counting;
  std::ostream stream;
};

// ---------------------------------------------------------------------------
// Span tracer (benchmark-side spans around calls into each layer)
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(const char* name) {
    spans_.push_back({name, now_ns(), -1, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (stack_.empty() || stack_.back() != id) {
      throw std::logic_error("span ended out of order");
    }
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  /// Times `body` as a span named `name` and returns its result.
  template <typename Body>
  auto span(const char* name, Body&& body) {
    const int id = begin(name);
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      end(id);
    } else {
      auto result = body();
      end(id);
      return result;
    }
  }

  [[nodiscard]] double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Total duration and self time per span name. Self time is a span's
  /// duration minus its children's (children are sequential on the one
  /// traced thread, so they never overlap).
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      Totals& t = out[spans_[i].name];
      t.total_s += static_cast<double>(duration) * 1e-9;
      t.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
      ++t.count;
    }
    return out;
  }

  void write_jsonl(const fs::path& path, const std::string& trace_id) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"trace\": \"" << trace_id
          << "\"}\n";
    }
    if (!out) {
      throw std::runtime_error("cannot write spans to " + path.string());
    }
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Correctness bookkeeping
// ---------------------------------------------------------------------------

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void fail(std::uint64_t cells, const std::string& why) {
    failed += cells;
    if (notes.size() < 20) {
      notes.push_back(why);
    }
  }
  /// Checks `actual` against `reference` cell by cell (deterministic
  /// fields only, as compare_sweeps defines drift): every drifted or
  /// unmatched cell counts as failed.
  void expect_same(const core::SweepJson& reference,
                   const core::SweepJson& actual, const std::string& what) {
    attempted += actual.cells.size();
    const core::SweepComparison comparison =
        core::compare_sweeps(reference, actual);
    const std::uint64_t bad = comparison.drifted + comparison.only_a +
                              comparison.only_b;
    if (bad > 0 || comparison.identity_differs) {
      std::string why = what + ": " + std::to_string(bad) + " cell(s) differ";
      for (const core::CellComparison& cell : comparison.cells) {
        if (cell.drift || !cell.in_a || !cell.in_b) {
          why += " (first: " + cell.label +
                 (cell.first_difference.empty() ? "" : " field " +
                                                           cell.first_difference) +
                 ")";
          break;
        }
      }
      if (comparison.identity_differs) {
        why += " (sweep identity differs)";
      }
      fail(std::max<std::uint64_t>(bad, 1), why);
    }
  }
};

/// FNV-1a 64 over the document's identity and every cell's cell-stream
/// record with its position, wall clock and perf block (event counts)
/// neutralised: the bytes compare_sweeps compares, so every deterministic
/// field the library serialises is covered.
std::string result_digest(const core::SweepJson& document) {
  std::ostringstream text;
  text << document.base_seed << ';' << document.grid_hash << ';'
       << document.cells_total << '\n';
  for (const core::SweepJsonCell& cell : document.cells) {
    core::SweepJsonCell neutral = cell;
    neutral.index = 0;
    neutral.wall_seconds = 0.0;
    neutral.has_perf = false;
    neutral.perf_events = 0;
    neutral.perf_deliveries = 0;
    neutral.perf_timer_fires = 0;
    neutral.perf_events_per_sec = 0.0;
    core::write_cell_stream_record(text, neutral);
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text.str()) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

/// Per-cell exact event counts (events, deliveries, timer fires), in
/// document order. They stay out of the digest, so a change that removes
/// events keeps it, but must repeat identically within one program.
using EventCounts = std::vector<std::array<std::uint64_t, 3>>;

EventCounts event_counts(const core::SweepJson& document) {
  EventCounts counts;
  for (const core::SweepJsonCell& cell : document.cells) {
    counts.push_back(
        {cell.perf_events, cell.perf_deliveries, cell.perf_timer_fires});
  }
  return counts;
}

std::uint64_t total_runs(const core::SweepJson& document) {
  std::uint64_t runs = 0;
  for (const core::SweepJsonCell& cell : document.cells) {
    runs += static_cast<std::uint64_t>(cell.runs);
  }
  return runs;
}

// ---------------------------------------------------------------------------
// The untraced pipeline
// ---------------------------------------------------------------------------

/// Everything a sweep needs before its first cell is dispatched.
struct SetUp {
  std::unique_ptr<core::ThreadPool> pool;
  std::vector<core::SweepCell> cells;
  std::unique_ptr<core::CellCache> cache;
  std::unique_ptr<CountedFile> stream;
};

core::CellStreamHeader stream_header(const Workload& workload,
                                     std::uint64_t seed,
                                     const std::vector<core::SweepCell>& cells) {
  core::CellStreamHeader header;
  header.schema = "slpdas.cell.v1";
  header.name = workload.name;
  header.base_seed = seed;
  header.grid_hash = core::hash_sweep_grid(cells);
  header.cells_total = cells.size();
  header.threads = 1;
  return header;
}

/// Creates the cache directory and an empty `cold.jsonl` under `dir`, for
/// the next set_up to open. Creating files and directories stays outside
/// the timed set-up: on a shared ext4 volume it took from 20 us to 1 ms
/// depending on the moment, more than the rest of a set-up, while opening
/// an existing file or directory took a few us.
void prepare_set_up(const fs::path& dir) {
  fs::create_directories(dir / "cache");
  std::ofstream file(dir / "cold.jsonl", std::ios::trunc);
  if (!file) {
    throw std::runtime_error("cannot create " + (dir / "cold.jsonl").string());
  }
}

/// Expands the grid, starts the pool, opens the cache and opens the cell
/// stream (both created by prepare_set_up) and writes its header.
SetUp set_up(const Workload& workload, bool smoke, std::uint64_t seed,
             const fs::path& dir) {
  SetUp s;
  s.cells = workload.make_cells(smoke);
  s.pool = std::make_unique<core::ThreadPool>(1);
  s.cache = std::make_unique<core::CellCache>((dir / "cache").string());
  s.stream = std::make_unique<CountedFile>(dir / "cold.jsonl");
  core::write_cell_stream_header(
      s.stream->stream, stream_header(workload, seed, s.cells));
  s.stream->stream.flush();
  return s;
}

core::SweepOptions sweep_options(std::uint64_t seed, core::CellCache* cache,
                                 std::ostream* stream) {
  core::SweepOptions options;
  options.threads = 1;
  options.base_seed = seed;
  options.cache = cache;
  options.stream = stream;
  return options;
}

/// Stand-alone set-ups timed before each repetition's own, so setup_s is a
/// median over many samples spread across the whole measured window.
constexpr int kExtraSetUps = 15;

/// Warm passes repeat until they cover this long (on cell_store about as
/// long as its cold pass).
constexpr double kMinWarmSeconds = 0.25;

struct Repetition {
  std::vector<double> setup_s;
  double cold_s = 0.0;
  std::vector<double> warm_pass_s;  ///< wall of each warm pass
  double roundtrip_s = 0.0;
  std::uint64_t cells = 0;
  std::uint64_t runs = 0;
  double stream_write_s = 0.0;  ///< cold pass, inside run_sweep
  std::uint64_t stream_bytes = 0;
  core::SweepJson cold;
};

/// Runs one repetition in `dir`, a directory of its own under the run's
/// work directory `work`. Nothing is deleted until the run ends: on ext4
/// without a journal, creating a file scans past every inode of its block
/// group freed in the last ~30 s, so deleting each repetition's files made
/// every cache store of the next repetitions pay for them (5 us per create
/// after a pause, 450 us after 30 s of repetitions). The stream and
/// sweep-document files are emptied instead, which keeps their inodes.
/// The stand-alone set-ups reuse the same directories in every repetition.
Repetition run_repetition(const Workload& workload, bool smoke,
                          std::uint64_t seed, const fs::path& work,
                          const fs::path& dir, Verdict& verdict) {
  Repetition rep;
  for (int i = 0; i < kExtraSetUps; ++i) {
    const fs::path sample_dir = work / ("setup-" + std::to_string(i));
    prepare_set_up(sample_dir);
    const Clock::time_point start = Clock::now();
    const SetUp sample = set_up(workload, smoke, seed, sample_dir);
    rep.setup_s.push_back(seconds_between(start, Clock::now()));
  }
  prepare_set_up(dir);
  const Clock::time_point setup_start = Clock::now();
  SetUp s = set_up(workload, smoke, seed, dir);
  rep.setup_s.push_back(seconds_between(setup_start, Clock::now()));
  const std::size_t n = s.cells.size();

  // Cold pass: every cell is a miss, simulated, stored and streamed.
  s.stream->counting.busy_seconds = 0.0;
  s.stream->counting.bytes = 0;
  const Clock::time_point cold_start = Clock::now();
  const core::SweepResult cold = core::run_sweep(
      s.cells, sweep_options(seed, s.cache.get(), &s.stream->stream),
      *s.pool);
  rep.cold_s = seconds_between(cold_start, Clock::now());
  rep.stream_write_s = s.stream->counting.busy_seconds;
  rep.stream_bytes = s.stream->counting.bytes;
  s.stream->close();
  rep.cold = core::to_sweep_json(cold, workload.name);
  rep.cells = n;
  rep.runs = total_runs(rep.cold);
  const core::CellCacheStats after_cold = s.cache->stats();
  verdict.attempted += n;
  if (after_cold.misses != n || after_cold.hits != 0 ||
      after_cold.rejected != 0 || after_cold.stores != n ||
      after_cold.store_failures != 0) {
    verdict.fail(n, "cold pass cache counters: " +
                        std::to_string(after_cold.misses) + " misses, " +
                        std::to_string(after_cold.rejected) + " rejected, " +
                        std::to_string(after_cold.stores) + " stores of " +
                        std::to_string(n) + " cells");
  }
  for (const core::SweepJsonCell& cell : rep.cold.cells) {
    if (cell.capture_trials != static_cast<std::uint64_t>(cell.runs) ||
        cell.capture_successes > cell.capture_trials) {
      verdict.fail(1, "cell " + cell.label + " has inconsistent capture counts");
    }
  }

  // Warm passes: the same grid against the filled cache. Each pass streams
  // its records into a fresh in-memory stream, so the replay rate measures
  // the cache's read and validation path. Appending them to a file, one
  // flushed write per record, took about three times as long as the
  // lookup itself and swung with the shared host's file-system latency;
  // that path is measured by the cold pass and stream.write_s.
  std::optional<core::SweepJson> first_warm;
  std::ostringstream warm_stream;
  double warm_total_s = 0.0;
  while (rep.warm_pass_s.empty() || warm_total_s < kMinWarmSeconds) {
    warm_stream.str(std::string());
    const Clock::time_point warm_start = Clock::now();
    const core::SweepResult warm = core::run_sweep(
        s.cells, sweep_options(seed, s.cache.get(), &warm_stream),
        *s.pool);
    rep.warm_pass_s.push_back(seconds_between(warm_start, Clock::now()));
    warm_total_s += rep.warm_pass_s.back();
    if (!first_warm) {
      first_warm = core::to_sweep_json(warm, workload.name);
    }
  }
  const core::CellCacheStats after_warm = s.cache->stats();
  const std::uint64_t warm_hits = after_warm.hits - after_cold.hits;
  const std::uint64_t warm_lookups = n * rep.warm_pass_s.size();
  verdict.attempted += n;
  if (warm_hits != warm_lookups || after_warm.rejected != 0 ||
      after_warm.misses != after_cold.misses) {
    verdict.fail(n, "warm passes: " + std::to_string(warm_hits) + " hits of " +
                        std::to_string(warm_lookups) + " lookups, " +
                        std::to_string(after_warm.rejected) + " rejected");
  }
  verdict.expect_same(rep.cold, *first_warm, "warm document vs cold");

  // Round trip: the sweep document through its writer and reader, the cold
  // stream through read_cell_stream and fold_cell_stream.
  const Clock::time_point trip_start = Clock::now();
  {
    std::ofstream out(dir / "sweep.json", std::ios::trunc);
    core::write_sweep_json(out, rep.cold);
  }
  std::ifstream json_in(dir / "sweep.json");
  const core::SweepJson reread = core::read_sweep_json(json_in);
  std::ifstream stream_in(dir / "cold.jsonl");
  const core::SweepJson folded =
      core::fold_cell_stream(core::read_cell_stream(stream_in));
  rep.roundtrip_s = seconds_between(trip_start, Clock::now());
  verdict.expect_same(rep.cold, reread, "reread sweep JSON vs cold");
  verdict.expect_same(rep.cold, folded, "folded cold stream vs cold");
  fs::resize_file(dir / "cold.jsonl", 0);
  fs::resize_file(dir / "sweep.json", 0);
  return rep;
}

// ---------------------------------------------------------------------------
// The traced single-threaded decomposition
// ---------------------------------------------------------------------------

struct Decomposition {
  core::SweepJson document;
  Tracer tracer;
  int root = -1;
  double compute_s = 0.0;  ///< build + prefix + fork + runs + aggregate + release
  std::vector<double> us_per_node;
  std::uint64_t events = 0, deliveries = 0, timer_fires = 0, attacker_moves = 0;
  /// Events and fork-run seconds per grid side, for the events/s ratio.
  std::map<int, std::pair<double, double>> grid_rate;
  core::CellCacheStats cache;
  std::uint64_t cache_bytes = 0;
  std::uint64_t json_bytes = 0;
};

void decompose(const Workload& workload, bool smoke, std::uint64_t seed,
               const fs::path& dir, Verdict& verdict, Decomposition& d) {
  prepare_set_up(dir);
  Tracer& tr = d.tracer;
  d.root = tr.begin("workload");
  const std::vector<core::SweepCell> cells =
      tr.span("sweep.grid", [&] { return workload.make_cells(smoke); });
  core::CellCache cache((dir / "cache").string());
  CountedFile stream(dir / "cold.jsonl");
  const core::CellStreamHeader header = stream_header(workload, seed, cells);
  core::write_cell_stream_header(stream.stream, header);

  core::SweepResult result;
  result.base_seed = seed;
  result.grid_hash = header.grid_hash;
  result.cells_total = cells.size();
  result.threads = 1;
  result.distinct_worker_threads = 1;
  result.cells.resize(cells.size());

  const int cold_id = tr.begin("cold");
  for (std::size_t m = 0; m < cells.size(); ++m) {
    const core::SweepCell& cell = cells[m];
    const core::ExperimentConfig& config = cell.config;
    const int cell_id = tr.begin("cell");
    const Clock::time_point cell_start = Clock::now();
    core::SweepCellResult& out = result.cells[m];
    out.index = m;
    out.label = cell.label;
    out.coordinates = cell.coordinates;
    out.cell_seed = core::derive_cell_seed(
        seed, cell.seed_label.empty() ? cell.label : cell.seed_label);
    out.runs = config.runs;
    out.config_topology = config.topology.to_string();
    out.config_protocol =
        core::format_protocol_spec(config.protocol, config.phantom_walk_length);
    out.config_attacker = config.attacker.to_spec();
    out.config_radio =
        core::format_radio_spec(config.radio, config.loss_probability);
    const core::CellCacheKey key =
        core::make_cell_cache_key(config, out.cell_seed, false);
    if (tr.span("cache.lookup", [&] { return cache.lookup(key); })) {
      verdict.fail(1, "decomposition: fresh cache hit for " + cell.label);
    }

    // Held in optionals so their release is timed as its own span.
    std::optional<wsn::Topology> topology;
    std::optional<core::RunBatch> batch;
    std::optional<core::RunBatch::Fork> fork;
    const int build_id = tr.begin("wsn.build");
    topology.emplace(config.topology.build());
    tr.end(build_id);
    const int prefix_id = tr.begin("prefix.capture");
    batch.emplace(config, *topology);
    tr.end(prefix_id);
    const int fork_id = tr.begin("fork.construct");
    fork.emplace(*batch);
    tr.end(fork_id);
    double cell_compute =
        tr.seconds(build_id) + tr.seconds(prefix_id) + tr.seconds(fork_id);
    const double nodes = static_cast<double>(config.topology.node_count());
    double run_seconds = 0.0;
    std::uint64_t cell_events = 0;
    std::vector<core::RunResult> runs(static_cast<std::size_t>(config.runs));
    for (int i = 0; i < config.runs; ++i) {
      const int run_id = tr.begin("fork.run");
      runs[static_cast<std::size_t>(i)] = fork->run(
          derive_seed(out.cell_seed, static_cast<std::uint64_t>(i)));
      tr.end(run_id);
      const double seconds = tr.seconds(run_id);
      run_seconds += seconds;
      d.us_per_node.push_back(seconds * 1e6 / nodes);
      const core::RunResult& r = runs[static_cast<std::size_t>(i)];
      cell_events += r.events_executed;
      d.deliveries += r.deliveries;
      d.timer_fires += r.timer_fires;
      d.attacker_moves += static_cast<std::uint64_t>(r.attacker_moves);
    }
    d.events += cell_events;
    if (config.topology.kind == wsn::TopologySpec::Kind::kGrid) {
      auto& [events, seconds] = d.grid_rate[config.topology.width];
      events += static_cast<double>(cell_events);
      seconds += run_seconds;
    }
    const int aggregate_id = tr.begin("metrics.aggregate");
    out.result = core::aggregate_runs(runs, config.check_schedules);
    tr.end(aggregate_id);
    const int release_id = tr.begin("cell.release");
    fork.reset();
    batch.reset();
    topology.reset();
    tr.end(release_id);
    cell_compute +=
        run_seconds + tr.seconds(aggregate_id) + tr.seconds(release_id);
    d.compute_s += cell_compute;
    out.wall_seconds = seconds_between(cell_start, Clock::now());
    out.record_perf = true;

    const int json_id = tr.begin("json.cell");
    core::SweepResult one;
    one.base_seed = seed;
    one.cells = {out};
    const core::SweepJsonCell record =
        core::to_sweep_json(one, workload.name).cells.front();
    tr.end(json_id);
    tr.span("cache.store", [&] { (void)cache.store(key, record); });
    tr.span("stream.write", [&] {
      core::write_cell_stream_record(stream.stream, record);
      stream.stream.flush();
    });
    tr.end(cell_id);
    std::error_code ignored;
    d.cache_bytes += fs::file_size(cache.entry_path(key), ignored);
  }
  tr.end(cold_id);
  stream.close();
  d.document = tr.span("json.document",
                       [&] { return core::to_sweep_json(result, workload.name); });

  // Warm pass: every cell served (and re-validated) by the cache, its
  // records streamed into memory as in the untraced warm passes.
  const int warm_id = tr.begin("warm");
  std::ostringstream warm_stream;
  core::SweepJson warm = d.document;
  for (std::size_t m = 0; m < cells.size(); ++m) {
    const core::SweepCellResult& out = result.cells[m];
    const core::CellCacheKey key =
        core::make_cell_cache_key(cells[m].config, out.cell_seed, false);
    std::optional<core::SweepJsonCell> hit =
        tr.span("cache.lookup", [&] { return cache.lookup(key); });
    if (!hit) {
      verdict.fail(1, "decomposition: warm miss for " + out.label);
      continue;
    }
    tr.span("stream.write", [&] {
      core::write_cell_stream_record(warm_stream, *hit);
      warm_stream.flush();
    });
    warm.cells[m] = std::move(*hit);
  }
  tr.end(warm_id);

  const int trip_id = tr.begin("roundtrip");
  tr.span("json.write", [&] {
    std::ofstream out(dir / "sweep.json", std::ios::trunc);
    core::write_sweep_json(out, d.document);
  });
  const core::SweepJson reread = tr.span("json.read", [&] {
    std::ifstream in(dir / "sweep.json");
    return core::read_sweep_json(in);
  });
  const core::SweepJson folded = tr.span("stream.read", [&] {
    std::ifstream in(dir / "cold.jsonl");
    return core::fold_cell_stream(core::read_cell_stream(in));
  });
  tr.end(trip_id);
  tr.end(d.root);

  std::error_code ignored;
  d.json_bytes = fs::file_size(dir / "sweep.json", ignored);
  d.cache = cache.stats();
  const std::uint64_t n = cells.size();
  verdict.attempted += n;
  if (d.cache.misses != n || d.cache.hits != n || d.cache.rejected != 0 ||
      d.cache.stores != n || d.cache.store_failures != 0) {
    verdict.fail(n, "decomposition cache counters: " +
                        std::to_string(d.cache.misses) + " misses, " +
                        std::to_string(d.cache.hits) + " hits, " +
                        std::to_string(d.cache.rejected) + " rejected, " +
                        std::to_string(d.cache.stores) + " stores of " +
                        std::to_string(n) + " cells");
  }
  verdict.expect_same(d.document, warm, "decomposition warm vs cold");
  verdict.expect_same(d.document, reread, "decomposition reread JSON");
  verdict.expect_same(d.document, folded, "decomposition folded stream");
}

/// Per-call milliseconds of the Definition 2/3 checkers and Algorithm 1 on
/// the centralized DAS schedule of every distinct topology of the
/// workload, summed over topologies.
struct VerifyTimes {
  double weak_ms = 0.0;
  double strong_ms = 0.0;
  double verify_ms = 0.0;
};

template <typename Call>
double per_call_ms(Call&& call) {
  int calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (calls < 3 || elapsed < 0.002) {
    call();
    ++calls;
    elapsed = seconds_between(start, Clock::now());
  }
  return elapsed * 1e3 / calls;
}

VerifyTimes time_verification(const std::vector<core::SweepCell>& cells,
                              Verdict& verdict) {
  VerifyTimes times;
  std::map<std::string, double> seen;  // topology spec -> safety factor
  for (const core::SweepCell& cell : cells) {
    seen.emplace(cell.config.topology.to_string(),
                 cell.config.parameters.safety_factor);
  }
  for (const auto& [spec, factor] : seen) {
    const wsn::Topology topology = wsn::TopologySpec::parse(spec).build();
    const mac::Schedule schedule =
        das::build_centralized_das(topology.graph, topology.sink).schedule;
    const verify::SafetyPeriod safety = verify::compute_safety_period(
        topology.graph, topology.source, topology.sink, factor);
    verify::VerifyAttacker attacker;
    attacker.start = topology.sink;
    verdict.attempted += 1;
    if (!verify::check_weak_das(topology.graph, schedule, topology.sink).ok()) {
      verdict.fail(1, "centralized DAS schedule of " + spec + " is not weak DAS");
    }
    times.weak_ms += per_call_ms([&] {
      (void)verify::check_weak_das(topology.graph, schedule, topology.sink);
    });
    times.strong_ms += per_call_ms([&] {
      (void)verify::check_strong_das(topology.graph, schedule, topology.sink);
    });
    times.verify_ms += per_call_ms([&] {
      (void)verify::verify_schedule(topology.graph, schedule, attacker,
                                    safety.periods, topology.source);
    });
  }
  return times;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct MetricSet {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  void write(std::ostream& out) const {
    out << '{';
    for (std::size_t i = 0; i < items.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", items[i].second.first);
      out << (i == 0 ? "" : ", ") << '"' << items[i].first << "\": {\"value\": "
          << (std::isfinite(items[i].second.first) ? value : "null")
          << ", \"unit\": \"" << items[i].second.second << "\"}";
    }
    out << '}';
  }
};

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = -1.0;  ///< required
  bool trace = false;
  bool smoke = false;
  fs::path work_dir;
  fs::path spans;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") {
        throw std::invalid_argument("--size must be full or smoke");
      }
      args.smoke = value == "smoke";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.work_dir.empty()) {
    throw std::invalid_argument("--work-dir is required");
  }
  if (!(args.seconds >= 0.0)) {
    throw std::invalid_argument("--seconds is required (non-negative)");
  }
  return args;
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  fs::remove_all(args.work_dir);
  fs::create_directories(args.work_dir);
  Verdict verdict;
  std::vector<double> setups;

  // Repetitions of the untraced pipeline. The first is a warm-up: it is
  // checked and kept as the reference document, but its timings are left
  // out, so page faults, allocator growth and cold caches of the process's
  // first sweep do not weigh on one run more than on another. The timed
  // repetitions follow for --seconds.
  std::vector<Repetition> reps;
  std::string first_digest;
  EventCounts first_events;
  Clock::time_point measure_start = Clock::now();
  while (reps.size() < 2 ||
         seconds_between(measure_start, Clock::now()) < args.seconds) {
    Repetition rep = run_repetition(
        *workload, args.smoke, args.seed, args.work_dir,
        args.work_dir / ("rep-" + std::to_string(reps.size())), verdict);
    const std::string digest = result_digest(rep.cold);
    if (reps.empty()) {
      first_digest = digest;
      first_events = event_counts(rep.cold);
      measure_start = Clock::now();
    } else {
      verdict.attempted += 2 * rep.cells;
      if (digest != first_digest) {
        verdict.fail(rep.cells, "repetition " + std::to_string(reps.size()) +
                                    " result digest differs from the first");
      }
      if (event_counts(rep.cold) != first_events) {
        verdict.fail(rep.cells, "repetition " + std::to_string(reps.size()) +
                                    " event counts differ from the first");
      }
      rep.cold = core::SweepJson{};  // only the first document is kept
      setups.insert(setups.end(), rep.setup_s.begin(), rep.setup_s.end());
    }
    reps.push_back(std::move(rep));
  }
  const double peak_rss = peak_rss_mib();

  // The rates are totals over the timed repetitions (work done ÷ time
  // spent), not medians of per-pass rates: on a shared host the pass times
  // fall into a fast and a slow band that last seconds, and a median jumps
  // between the bands where a total moves with the share of each.
  std::vector<double> cold_s, warm_s, trip_s, stream_write_s, stream_bytes;
  double timed_runs = 0.0, timed_cells = 0.0, timed_cold_s = 0.0;
  double replayed_cells = 0.0, timed_warm_s = 0.0;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const Repetition& rep = reps[i];
    timed_runs += static_cast<double>(rep.runs);
    timed_cells += static_cast<double>(rep.cells);
    timed_cold_s += rep.cold_s;
    cold_s.push_back(rep.cold_s);
    for (const double pass_s : rep.warm_pass_s) {
      replayed_cells += static_cast<double>(rep.cells);
      timed_warm_s += pass_s;
      warm_s.push_back(pass_s);
    }
    trip_s.push_back(rep.roundtrip_s);
    stream_write_s.push_back(rep.stream_write_s);
    stream_bytes.push_back(static_cast<double>(rep.stream_bytes));
  }

  // trace.overhead compares the traced decomposition with the untraced
  // pipeline of the timed repetitions, both on one thread.
  const double untraced_wall =
      median(cold_s) + median(warm_s) + median(trip_s);

  // Traced decomposition of the same cells, checked against the sweep.
  Decomposition d;
  decompose(*workload, args.smoke, args.seed, args.work_dir / "traced",
            verdict, d);
  verdict.expect_same(reps.front().cold, d.document,
                      "single-thread decomposition vs run_sweep");
  verdict.attempted += reps.front().cells + 1;
  if (event_counts(d.document) != first_events) {
    verdict.fail(reps.front().cells,
                 "decomposition event counts differ from run_sweep's");
  }
  std::uint64_t document_events = 0;
  for (const auto& counts : first_events) {
    document_events += counts[0];
  }
  if (document_events != d.events) {
    verdict.fail(1, "decomposition's per-run event total " +
                        std::to_string(d.events) + " differs from the "
                        "document's " + std::to_string(document_events));
  }

  const VerifyTimes verify_times =
      time_verification(workload->make_cells(args.smoke), verdict);
  if (!args.spans.empty()) {
    d.tracer.write_jsonl(args.spans, workload->name);
  }
  fs::remove_all(args.work_dir);

  MetricSet e2e;
  e2e.add("runs_per_s", timed_runs / timed_cold_s, "runs/s");
  e2e.add("store_cells_per_s", timed_cells / timed_cold_s, "cells/s");
  e2e.add("replay_cells_per_s", replayed_cells / timed_warm_s, "cells/s");
  e2e.add("setup_s", median(setups), "s");
  e2e.add("peak_rss_mb", peak_rss, "MiB");

  const std::map<std::string, Tracer::Totals> totals = d.tracer.totals();
  const auto total_of = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const auto count_of = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double traced_wall = d.tracer.seconds(d.root);
  double ratio_large_small = 0.0;
  if (!d.grid_rate.empty()) {
    const auto& small = d.grid_rate.begin()->second;
    const auto& large = d.grid_rate.rbegin()->second;
    ratio_large_small =
        (large.first / large.second) / (small.first / small.second);
  }
  const double fork_run_s = total_of("fork.run");
  MetricSet layers;
  layers.add("wsn.build_s", total_of("wsn.build"), "s");
  layers.add("wsn.builds", count_of("wsn.build"), "count");
  layers.add("prefix.capture_s", total_of("prefix.capture"), "s");
  layers.add("prefix.captures", count_of("prefix.capture"), "count");
  layers.add("fork.construct_s", total_of("fork.construct"), "s");
  layers.add("metrics.aggregate_s", total_of("metrics.aggregate"), "s");
  layers.add("fork.run_s", fork_run_s, "s");
  layers.add("fork.run_us_per_node_p50", percentile(d.us_per_node, 50), "us");
  layers.add("fork.run_us_per_node_p99", percentile(d.us_per_node, 99), "us");
  layers.add("sim.events", static_cast<double>(d.events), "count");
  layers.add("sim.deliveries", static_cast<double>(d.deliveries), "count");
  layers.add("sim.timer_fires", static_cast<double>(d.timer_fires), "count");
  layers.add("sim.timer_fire_share",
             d.events == 0 ? 0.0
                           : static_cast<double>(d.timer_fires) /
                                 static_cast<double>(d.events),
             "fraction");
  layers.add("sim.events_per_s", static_cast<double>(d.events) / fork_run_s,
             "1/s");
  layers.add("sim.events_per_s_ratio_41_11", ratio_large_small, "ratio");
  layers.add("attacker.moves", static_cast<double>(d.attacker_moves), "count");
  layers.add("verify.check_weak_das_ms", verify_times.weak_ms, "ms");
  layers.add("verify.check_strong_das_ms", verify_times.strong_ms, "ms");
  layers.add("verify.verify_schedule_ms", verify_times.verify_ms, "ms");
  layers.add("sweep.parallel_efficiency",
             d.compute_s / median(cold_s), "fraction");
  layers.add("cache.lookup_s", total_of("cache.lookup"), "s");
  layers.add("cache.store_s", total_of("cache.store"), "s");
  layers.add("cache.hits", static_cast<double>(d.cache.hits), "count");
  layers.add("cache.misses", static_cast<double>(d.cache.misses), "count");
  layers.add("cache.rejected", static_cast<double>(d.cache.rejected), "count");
  layers.add("cache.bytes", static_cast<double>(d.cache_bytes), "bytes");
  layers.add("cache.hit_ratio",
             static_cast<double>(d.cache.hits) /
                 static_cast<double>(d.document.cells.size()),
             "fraction");
  layers.add("stream.write_s", median(stream_write_s), "s");
  layers.add("stream.bytes", median(stream_bytes), "bytes");
  layers.add("stream.read_s", total_of("stream.read"), "s");
  layers.add("json.write_s", total_of("json.write"), "s");
  layers.add("json.read_s", total_of("json.read"), "s");
  layers.add("json.bytes", static_cast<double>(d.json_bytes), "bytes");
  layers.add("trace.overhead", traced_wall / untraced_wall - 1.0, "ratio");

  // Self time per span name: these sum to the traced wall exactly.
  MetricSet self_times;
  for (const auto& [name, t] : totals) {
    self_times.add(name, t.self_s, "s");
  }

  std::ostringstream notes;
  notes << '[';
  for (std::size_t i = 0; i < verdict.notes.size(); ++i) {
    notes << (i == 0 ? "" : ", ") << '"' << json_escape(verdict.notes[i]) << '"';
  }
  notes << ']';

  std::ostringstream out;
  out << "{\"workload\": \"" << workload->name << "\", \"seed\": " << args.seed
      << ", \"size\": \"" << (args.smoke ? "smoke" : "full")
      << "\", \"repetitions\": " << reps.size() - 1
      << ", \"cells\": " << reps.front().cells
      << ", \"runs\": " << reps.front().runs
      << ", \"attempted\": " << verdict.attempted
      << ", \"failed\": " << verdict.failed << ", \"failures\": " << notes.str()
      << ", \"digest\": \"" << result_digest(reps.front().cold)
      << "\", \"traced_wall_s\": " << traced_wall
      << ", \"untraced_wall_s\": " << untraced_wall << ", \"end_to_end\": ";
  e2e.write(out);
  out << ", \"per_layer\": ";
  layers.write(out);
  out << ", \"self_s\": ";
  self_times.write(out);
  out << ", \"context\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"ndebug\": "
#ifdef NDEBUG
      << "true"
#else
      << "false"
#endif
      << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\"}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::invalid_argument& error) {
    std::cerr << "perfbench_driver: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    // A sweep, cache or stream that throws is a wrong output, not a
    // benchmark that cannot run: report it as a failed check.
    std::cout << "{\"fatal\": \"" << json_escape(error.what()) << "\"}"
              << std::endl;
    return 1;
  }
}
