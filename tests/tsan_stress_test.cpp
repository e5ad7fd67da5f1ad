// Concurrency stress for the sweep engine's shared mutable state: cell
// completion accounting, the single-writer stream sink, progress
// buffering and concurrent cache stores all hammered at once on a wide
// pool. The assertions are real (byte-identical documents, exact
// completion counts), but the test's main job is to give ThreadSanitizer
// a dense interleaving to chew on — CI runs it in the TSan leg alongside
// sweep/batch/shard-merge/cell-cache tests with threads >= 4.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "slpdas/core/cell_cache.hpp"
#include "slpdas/core/run_batch.hpp"
#include "slpdas/core/sweep.hpp"
#include "slpdas/core/thread_pool.hpp"
#include "slpdas/rng.hpp"
#include "test_util.hpp"

namespace slpdas::core {
namespace {

ExperimentConfig tiny_base() {
  ExperimentConfig config;
  config.topology = wsn::TopologySpec::grid(5);
  config.parameters = test::fast_parameters(24);
  config.radio = RadioKind::kCasinoLab;
  config.runs = 1;
  config.check_schedules = false;
  return config;
}

/// Many cheap cells: identical configs under distinct labels, so every
/// cell derives a different seed and finishes at a slightly different
/// time — a steady supply of concurrent completions.
std::vector<SweepCell> many_tiny_cells(int count) {
  SweepGrid grid(tiny_base());
  std::vector<SweepGrid::AxisValue> reps;
  for (int i = 0; i < count; ++i) {
    reps.push_back({std::to_string(i), [](ExperimentConfig&) {}});
  }
  grid.axis("rep", std::move(reps));
  return grid.expand();
}

TEST(TsanStressTest, ConcurrentCompletionStreamingAndCacheStores) {
  const auto cells = many_tiny_cells(16);
  const std::string dir = testing::TempDir() + "/slpdas_tsan_cache";
  std::filesystem::remove_all(dir);
  CellCache cache(dir);

  // Every shared sink at once: stream, progress and cache, 8 workers.
  std::ostringstream stream;
  CellStreamHeader header;
  header.name = "tsan_stress";
  header.base_seed = 5;
  header.grid_hash = hash_sweep_grid(cells);
  header.cells_total = cells.size();
  header.deterministic = true;
  header.threads = 8;
  write_cell_stream_header(stream, header);

  std::ostringstream progress;
  SweepOptions options;
  options.threads = 8;
  options.base_seed = 5;
  options.deterministic_timing = true;
  options.progress = &progress;
  options.progress_interval_ms = 0;  // flush eagerly: more contention
  options.stream = &stream;
  options.cache = &cache;
  const SweepResult wide = run_sweep(cells, options);
  EXPECT_EQ(wide.cells.size(), cells.size());
  EXPECT_EQ(cache.stats().stores, cells.size());

  // The folded cell records must match a single-threaded run bit for
  // bit, no matter how the 8 workers interleaved. (Whole documents
  // differ only in the honest `threads` metadata field.)
  const auto cell_records = [](const SweepResult& result) {
    std::ostringstream out;
    for (const SweepJsonCell& cell :
         to_sweep_json(result, "tsan_stress").cells) {
      write_cell_stream_record(out, cell);
    }
    return out.str();
  };
  SweepOptions narrow_options;
  narrow_options.threads = 1;
  narrow_options.base_seed = 5;
  narrow_options.deterministic_timing = true;
  const SweepResult narrow = run_sweep(cells, narrow_options);
  EXPECT_EQ(cell_records(wide), cell_records(narrow));

  // A second wide run over the now-warm cache: every cell is a
  // concurrent lookup hit, and the bytes still cannot drift.
  SweepOptions warm_options;
  warm_options.threads = 8;
  warm_options.base_seed = 5;
  warm_options.deterministic_timing = true;
  warm_options.cache = &cache;
  const SweepResult warm = run_sweep(cells, warm_options);
  EXPECT_EQ(cell_records(warm), cell_records(narrow));
  EXPECT_EQ(cache.stats().hits, cells.size());
  std::filesystem::remove_all(dir);
}

TEST(TsanStressTest, ConcurrentForksShareOnePhasePrefix) {
  // 8 threads each build a RunBatch::Fork over ONE shared batch and run
  // interleaved seeds concurrently. The contended state is the read-only
  // phase prefix — derived protocol configs, the safety BFS, and the
  // shared immutable HELLO payloads whose shared_ptr refcounts every
  // fork's processes bump at once. Forks themselves are thread-local by
  // contract; a write leaking through the shared prefix is a race for
  // TSan and a value divergence against the cold single-threaded
  // reference for this test's exact-equality check.
  ExperimentConfig config = tiny_base();
  config.protocol = ProtocolKind::kSlpDas;
  const wsn::Topology topology = config.topology.build();
  const RunBatch batch(config, topology);

  constexpr int kThreads = 8;
  constexpr int kSeedsPerThread = 3;
  constexpr int kSeeds = kThreads * kSeedsPerThread;
  constexpr std::uint64_t kBaseSeed = 7;

  std::vector<RunResult> cold;
  for (int i = 0; i < kSeeds; ++i) {
    cold.push_back(RunBatch::Fork(batch).run(derive_seed(kBaseSeed, i)));
  }

  std::vector<RunResult> forked(kSeeds);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&batch, &forked, t] {
        RunBatch::Fork fork(batch);
        // Strided seeds: every thread's fork replays seeds from all over
        // the cell's range, like the sweep slicing a cell across workers.
        for (int i = t; i < kSeeds; i += kThreads) {
          forked[static_cast<std::size_t>(i)] =
              fork.run(derive_seed(kBaseSeed, i));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  for (int i = 0; i < kSeeds; ++i) {
    SCOPED_TRACE(i);
    const RunResult& a = forked[static_cast<std::size_t>(i)];
    const RunResult& b = cold[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.captured, b.captured);
    ASSERT_EQ(a.capture_time_s.has_value(), b.capture_time_s.has_value());
    if (a.capture_time_s) {
      EXPECT_EQ(*a.capture_time_s, *b.capture_time_s);
    }
    EXPECT_EQ(a.safety_periods, b.safety_periods);
    EXPECT_EQ(a.schedule_complete, b.schedule_complete);
    EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
    EXPECT_EQ(a.delivery_latency_s, b.delivery_latency_s);
    EXPECT_EQ(a.control_messages_per_node, b.control_messages_per_node);
    EXPECT_EQ(a.normal_messages_per_node, b.normal_messages_per_node);
    EXPECT_EQ(a.attacker_moves, b.attacker_moves);
  }
}

TEST(TsanStressTest, ThreadPoolHandlesSubmissionBursts) {
  ThreadPool pool(8);
  ASSERT_EQ(pool.thread_count(), 8);
  std::atomic<int> executed{0};
  // Repeated burst/drain cycles: wait_idle must observe every completion
  // exactly once, with submissions racing the idle check.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) {
      pool.submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.wait_idle();
    EXPECT_EQ(executed.load(), (round + 1) * 64);
  }
}

TEST(TsanStressTest, ConcurrentCacheStoresAndLookupsOfOneKey) {
  const std::string dir = testing::TempDir() + "/slpdas_tsan_cache_onekey";
  std::filesystem::remove_all(dir);
  CellCache cache(dir);

  const auto cells = many_tiny_cells(1);
  SweepOptions options;
  options.threads = 1;
  options.base_seed = 5;
  options.deterministic_timing = true;
  const SweepResult seed_run = run_sweep(cells, options);
  const SweepJsonCell record = to_sweep_json(seed_run, "one").cells.at(0);
  const CellCacheKey key = make_cell_cache_key(
      cells[0].config, seed_run.cells.at(0).cell_seed, true);

  // All threads store and look up the SAME key: the tmp-file + atomic
  // rename path and the stats mutex are the contended state. Every
  // lookup that finds the entry must see a fully written record.
  std::atomic<int> validated{0};
  {
    ThreadPool pool(8);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&cache, &key, &record, &validated] {
        (void)cache.store(key, record);
        if (const auto hit = cache.lookup(key)) {
          EXPECT_EQ(hit->label, record.label);
          validated.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    pool.wait_idle();
  }
  // Stores are atomic renames of identical bytes, so after the first
  // completed store every lookup must hit.
  EXPECT_GT(validated.load(), 0);
  const CellCacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 64u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace slpdas::core
