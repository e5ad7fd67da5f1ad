// Shutdown-ordering contracts, exercised wide enough for TSan to check
// the teardown paths: the ThreadPool destructor racing queued and
// in-flight jobs, and run_sweep unwinding through its typed worker
// exception boundary while other cells are still computing — the pool
// must drain, completed cells must remain recorded, and the failing
// cell must be named in the rethrown error.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/sweep.hpp"
#include "slpdas/core/thread_pool.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

TEST(ThreadPoolShutdownTest, DestructorDrainsQueuedJobs) {
  // The destructor's contract is drain-then-join, not abandon: every job
  // submitted before destruction runs exactly once, even the ones still
  // queued when the destructor fires.
  std::atomic<int> executed{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 256; ++i) {
      pool.submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait_idle: destruction races the queue on purpose.
  }
  EXPECT_EQ(executed.load(), 256);
}

TEST(ThreadPoolShutdownTest, DestructorWaitsForInFlightJobs) {
  std::atomic<int> completed{0};
  std::atomic<bool> destroyed_early{false};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&completed, &destroyed_early] {
        // Long enough that the destructor certainly starts while these
        // are in flight; the flag would be visible if it returned early.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (destroyed_early.load()) {
          ADD_FAILURE() << "pool destructor returned with jobs in flight";
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  destroyed_early.store(true);
  EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPoolShutdownTest, SubmitAfterWaitIdleStillRuns) {
  // wait_idle is a fence, not a shutdown: the pool must accept and run
  // further work afterwards, repeatedly.
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  for (int round = 0; round < 8; ++round) {
    pool.submit([&executed] { executed.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(executed.load(), round + 1);
  }
}

/// A sweep where one labelled cell fails at topology-build time (width 0
/// bypasses the factory validation and throws inside the worker) while
/// the other cells are real, cheap experiments.
std::vector<SweepCell> cells_with_one_poisoned(int good_cells) {
  ExperimentConfig base;
  base.topology = wsn::TopologySpec::grid(5);
  base.parameters = test::fast_parameters(24);
  base.radio = RadioKind::kCasinoLab;
  base.runs = 2;
  base.check_schedules = false;
  SweepGrid grid(base);
  std::vector<SweepGrid::AxisValue> values;
  for (int i = 0; i < good_cells; ++i) {
    values.push_back({"good" + std::to_string(i), [](ExperimentConfig&) {}});
  }
  values.push_back({"poisoned", [](ExperimentConfig& config) {
                      wsn::TopologySpec bad;
                      bad.kind = wsn::TopologySpec::Kind::kGrid;
                      bad.width = 0;
                      bad.height = 0;
                      config.topology = bad;
                    }});
  grid.axis("cell", std::move(values));
  return grid.expand();
}

TEST(SweepShutdownTest, MidSliceExceptionNamesTheFailingCell) {
  const auto cells = cells_with_one_poisoned(/*good_cells=*/6);
  SweepOptions options;
  options.threads = 4;
  options.base_seed = 3;
  options.deterministic_timing = true;
  try {
    (void)run_sweep(cells, options);
    FAIL() << "poisoned cell did not fail the sweep";
  } catch (const std::runtime_error& error) {
    // The typed worker boundary must name the cell, not just forward
    // make_grid's message.
    EXPECT_NE(std::string(error.what()).find("cell=poisoned"),
              std::string::npos)
        << error.what();
  }
}

TEST(SweepShutdownTest, CompletedCellsAreRecordedBeforeUnwinding) {
  const auto cells = cells_with_one_poisoned(/*good_cells=*/6);
  const std::string dir = testing::TempDir() + "/slpdas_shutdown_cache";
  std::filesystem::remove_all(dir);
  CellCache cache(dir);

  std::ostringstream stream;
  CellStreamHeader header;
  header.name = "shutdown";
  header.base_seed = 3;
  header.grid_hash = hash_sweep_grid(cells);
  header.cells_total = cells.size();
  header.deterministic = true;
  header.threads = 4;
  write_cell_stream_header(stream, header);

  SweepOptions options;
  options.threads = 4;
  options.base_seed = 3;
  options.deterministic_timing = true;
  options.stream = &stream;
  options.cache = &cache;
  EXPECT_THROW((void)run_sweep(cells, options), std::runtime_error);

  // The stream holds the header plus one whole record per cell that
  // completed before the unwind — and never one for the poisoned cell,
  // which a resume must re-run (here: re-fail).
  std::istringstream reread(stream.str());
  const CellStream recorded = read_cell_stream(reread);
  EXPECT_LT(recorded.cells.size(), cells.size());
  for (const SweepJsonCell& cell : recorded.cells) {
    EXPECT_EQ(cell.label.find("poisoned"), std::string::npos) << cell.label;
  }
  // Same for the cache: completed cells stored, the failed one absent.
  EXPECT_EQ(cache.stats().stores, recorded.cells.size());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace slpdas::core
