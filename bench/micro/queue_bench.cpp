// Event queue micro benchmarks: the classic hold model (pop one event,
// push a replacement at now + delay) at a fixed steady-state occupancy,
// which is exactly the simulator's regime once a run warms up. The delay
// distribution mimics the protocol mix: mostly slot/propagation-scale
// pushes (the active-bucket fast path), a dissemination band near 0.5 s,
// and a rare source-period tail at 5.5 s that exercises bucket refills
// and the far overflow.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "slpdas/rng.hpp"
#include "slpdas/sim/event_queue.hpp"

namespace {

using slpdas::Rng;
using slpdas::sim::Event;
using slpdas::sim::EventQueue;
using slpdas::sim::SimTime;

SimTime draw_delay(Rng& rng) {
  const std::uint64_t pick = rng.uniform(100);
  if (pick < 90) {
    // Propagation/slot scale: 1..50 ms.
    return 1'000 + static_cast<SimTime>(rng.uniform(49'000));
  }
  if (pick < 99) {
    // Dissemination scale: ~0.5 s.
    return 450'000 + static_cast<SimTime>(rng.uniform(100'000));
  }
  // Source period: 5.5 s (beyond one calendar revolution).
  return 5'500'000;
}

void queue_hold_calendar(benchmark::State& state) {
  const auto occupancy = static_cast<std::size_t>(state.range(0));
  EventQueue queue;
  queue.reserve(occupancy, 0);
  Rng rng(0xb5db5d);
  SimTime now = 0;
  for (std::size_t i = 0; i < occupancy; ++i) {
    queue.push_timer(draw_delay(rng), 0, 0, i);
  }
  for (auto _ : state) {
    const Event event = queue.pop(now);
    benchmark::DoNotOptimize(event.seq_kind);
    queue.push_timer(now + draw_delay(rng), 0, 0, 0);
  }
  // One item = one pop + one push at steady occupancy.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(queue_hold_calendar)->RangeMultiplier(8)->Range(64, 32768);

}  // namespace
