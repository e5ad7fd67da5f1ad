// Tests for the deterministic typed event queue: time ordering plus FIFO
// tie-breaking across both event kinds (the property that makes runs
// reproducible), shared-message staging/release, a table of push/pop
// workloads checked pop for pop against a reference priority queue
// (covering the sorted window, the late heap, the calendar bins and the
// far list), and the simulator-level cancelled-timer skip at pop time.
#include "slpdas/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "slpdas/rng.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::sim {
namespace {

struct TestMessage final : Message {
  [[nodiscard]] const char* name() const noexcept override { return "TEST"; }
};

/// Pops every event, returning kinds in pop order and releasing the
/// message references deliveries hold.
std::vector<EventKind> drain(EventQueue& queue, SimTime& now) {
  std::vector<EventKind> kinds;
  while (!queue.empty()) {
    const Event event = queue.pop(now);
    kinds.push_back(event.kind());
    if (event.kind() == EventKind::kDelivery) {
      queue.release_message(event.delivery.message_slot);
    }
  }
  return kinds;
}

/// Pops every event, returning the timer ids in pop order.
std::vector<std::int32_t> drain_timer_ids(EventQueue& queue, SimTime& now) {
  std::vector<std::int32_t> ids;
  while (!queue.empty()) {
    ids.push_back(queue.pop(now).timer.timer_id);
  }
  return ids;
}

TEST(EventQueueTest, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.staged_message_count(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  queue.push_timer(30, 0, 3, 1);
  queue.push_timer(10, 0, 1, 1);
  queue.push_timer(20, 0, 2, 1);
  SimTime now = 0;
  EXPECT_EQ(drain_timer_ids(queue, now), (std::vector<std::int32_t>{1, 2, 3}));
  EXPECT_EQ(now, 30);
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<std::int32_t> expected;
  for (std::int32_t i = 0; i < 50; ++i) {
    queue.push_timer(5, 0, i, 1);
    expected.push_back(i);
  }
  SimTime now = 0;
  EXPECT_EQ(drain_timer_ids(queue, now), expected);
}

TEST(EventQueueTest, EqualTimesTieBreakAcrossKindsByInsertionOrder) {
  // Deliveries and timers pushed at one timestamp pop in push order — the
  // cross-kind FIFO guarantee the protocol stack relies on (e.g. a
  // reception and a period-boundary timer landing on the same microsecond
  // must not reorder between runs or refactors).
  EventQueue queue;
  const std::uint32_t slot = queue.stage_message(std::make_shared<TestMessage>());
  queue.push_delivery(7, /*from=*/0, /*to=*/1, slot);
  queue.push_timer(7, /*node=*/1, /*timer_id=*/4, /*generation=*/1);
  queue.push_timer(7, /*node=*/3, /*timer_id=*/4, /*generation=*/1);
  queue.push_delivery(7, /*from=*/0, /*to=*/2, slot);
  queue.push_timer(7, /*node=*/2, /*timer_id=*/4, /*generation=*/1);

  SimTime now = 0;
  const std::vector<EventKind> kinds = drain(queue, now);
  EXPECT_EQ(kinds,
            (std::vector<EventKind>{EventKind::kDelivery, EventKind::kTimer,
                                    EventKind::kTimer, EventKind::kDelivery,
                                    EventKind::kTimer}));
  EXPECT_EQ(now, 7);
  EXPECT_EQ(queue.staged_message_count(), 0u);
}

TEST(EventQueueTest, DeliveriesShareOneStagedMessage) {
  EventQueue queue;
  auto message = std::make_shared<TestMessage>();
  const std::uint32_t slot = queue.stage_message(message);
  queue.push_delivery(1, 0, 1, slot);
  queue.push_delivery(1, 0, 2, slot);
  queue.push_delivery(1, 0, 3, slot);
  // One reference in the slot table plus the test's own handle: pushing
  // three deliveries copies nothing.
  EXPECT_EQ(message.use_count(), 2);
  EXPECT_EQ(queue.staged_message_count(), 1u);

  SimTime now = 0;
  int popped = 0;
  while (!queue.empty()) {
    const Event event = queue.pop(now);
    ASSERT_EQ(event.kind(), EventKind::kDelivery);
    EXPECT_EQ(&queue.message(event.delivery.message_slot), message.get());
    queue.release_message(event.delivery.message_slot);
    ++popped;
  }
  EXPECT_EQ(popped, 3);
  // The last release freed the slot.
  EXPECT_EQ(queue.staged_message_count(), 0u);
  EXPECT_EQ(message.use_count(), 1);
}

TEST(EventQueueTest, NextTimeReportsHead) {
  EventQueue queue;
  queue.push_timer(42, 0, 1, 1);
  queue.push_timer(7, 0, 2, 1);
  EXPECT_EQ(queue.next_time(), 7);
}

TEST(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue queue;
  queue.push_timer(10, 0, 1, 1);
  SimTime now = 0;
  EXPECT_EQ(queue.pop(now).timer.timer_id, 1);
  queue.push_timer(15, 0, 3, 1);  // later absolute time, pushed first
  queue.push_timer(12, 0, 2, 1);  // earlier absolute time, pushed later
  EXPECT_EQ(drain_timer_ids(queue, now), (std::vector<std::int32_t>{2, 3}));
}

TEST(EventQueueTest, ResetRunReleasesPayloadsAndRestartsSequence) {
  EventQueue queue;
  auto message = std::make_shared<TestMessage>();
  const std::uint32_t slot = queue.stage_message(message);
  queue.push_delivery(1, 0, 1, slot);
  queue.push_delivery(2, 0, 2, slot);
  queue.push_timer(4, 0, 1, 1);
  // Staged but never pushed: reset_run() must free this one too.
  auto orphan = std::make_shared<TestMessage>();
  (void)queue.stage_message(orphan);
  EXPECT_EQ(message.use_count(), 2);
  EXPECT_EQ(orphan.use_count(), 2);

  queue.reset_run();
  EXPECT_TRUE(queue.empty());
  // Nothing but the test's own handles survive.
  EXPECT_EQ(queue.staged_message_count(), 0u);
  EXPECT_EQ(message.use_count(), 1);
  EXPECT_EQ(orphan.use_count(), 1);
  // The next run numbers its events from zero, like a fresh queue.
  queue.push_timer(3, 0, 1, 1);
  SimTime now = 0;
  EXPECT_EQ(queue.pop(now).sequence(), 0u);
}

TEST(EventQueueTest, RejectsNullMessage) {
  EventQueue queue;
  EXPECT_THROW((void)queue.stage_message(nullptr), std::invalid_argument);
}

TEST(EventQueueTest, ReserveKeepsOrderAndSize) {
  EventQueue queue;
  queue.push_timer(30, 0, 1, 1);
  queue.push_timer(10, 0, 1, 2);
  queue.reserve(4096, 64);
  queue.push_timer(20, 0, 1, 3);
  EXPECT_EQ(queue.size(), 3u);
  SimTime now = 0;
  EXPECT_EQ(queue.pop(now).at, 10);
  EXPECT_EQ(queue.pop(now).at, 20);
  EXPECT_EQ(queue.pop(now).at, 30);
}

// ---------------------------------------------------------------------------
// Pop order against a reference: every workload below runs through the
// queue and through std::priority_queue on the same (timestamp, sequence)
// keys, and both must pop identically. Sequence numbers advance on every
// push, so equal key streams mean bit-identical simulations.
// ---------------------------------------------------------------------------

using Key = std::pair<SimTime, std::uint64_t>;

/// Mirrors every push and pop onto a reference min-queue of keys and
/// records both pop streams.
class ReferenceCheck {
 public:
  void push(SimTime at) {
    queue_.push_timer(at, 0, 1, 0);
    reference_.emplace(at, pushed_++);
  }

  void pop() {
    EXPECT_EQ(queue_.next_time(), reference_.top().first);
    const Event event = queue_.pop(now_);
    popped_.emplace_back(event.at, event.sequence());
    expected_.push_back(reference_.top());
    reference_.pop();
  }

  void drain() {
    while (!queue_.empty()) {
      pop();
    }
    EXPECT_TRUE(reference_.empty());
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] const std::vector<Key>& popped() const { return popped_; }
  [[nodiscard]] const std::vector<Key>& expected() const { return expected_; }

 private:
  EventQueue queue_;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> reference_;
  std::uint64_t pushed_ = 0;
  SimTime now_ = 0;
  std::vector<Key> popped_;
  std::vector<Key> expected_;
};

/// One calendar revolution plus a few buckets: consecutive events this far
/// apart always sit in the far list relative to each other.
constexpr SimTime kRevolution =
    (static_cast<SimTime>(EventQueue::kNumBuckets) + 7)
    << EventQueue::kBucketShift;

/// Randomised push/pop interleaving; `draw_delay` picks each push's delay.
void random_walk(ReferenceCheck& check, std::uint64_t seed,
                 const std::function<SimTime(Rng&)>& draw_delay) {
  Rng rng(seed);
  for (int step = 0; step < 20000; ++step) {
    if (rng.uniform(100) < 60 || check.empty()) {
      check.push(check.now() + draw_delay(rng));
    } else {
      check.pop();
    }
  }
  check.drain();
}

struct OrderCase {
  std::string name;
  std::function<void(ReferenceCheck&)> run;
};

const std::vector<OrderCase>& order_cases() {
  static const std::vector<OrderCase> cases = {
      // Propagation-scale pushes, dissemination bursts, far-horizon tails
      // and duplicate timestamps, interleaved with pops.
      {"mixed_horizon_walk",
       [](ReferenceCheck& check) {
         random_walk(check, 2024, [](Rng& rng) {
           const std::uint64_t band = rng.uniform(100);
           if (band < 80) {
             return static_cast<SimTime>(rng.uniform(50'000));  // slot scale
           }
           if (band < 95) {
             return static_cast<SimTime>(rng.uniform(1'000'000));  // dissem
           }
           return static_cast<SimTime>(rng.uniform(20'000'000));  // far tail
         });
       }},
      // Delays within about one bucket: most pushes land in the active
      // bucket, many of them behind the window's tail (the late heap).
      {"same_bucket_jitter",
       [](ReferenceCheck& check) {
         random_walk(check, 7, [](Rng& rng) {
           return static_cast<SimTime>(rng.uniform(6'000));
         });
       }},
      // Descending timestamps inside one bucket: every push after the
      // first lands behind the window's tail.
      {"descending_same_bucket",
       [](ReferenceCheck& check) {
         constexpr int kEvents = 3000;
         for (int i = 0; i < kEvents; ++i) {
           check.push(static_cast<SimTime>(kEvents - i));
         }
         check.drain();
       }},
      // Events a calendar revolution apart: every refill re-anchors on the
      // far list. Each refill rescans the whole far list, so the case is
      // sized to stay fast.
      {"far_horizon_stride",
       [](ReferenceCheck& check) {
         for (int i = 0; i < 300; ++i) {
           check.push(static_cast<SimTime>(i + 1) * kRevolution);
         }
         check.drain();
       }},
      // A refill jumps the window ahead of `now` (to a later bin, then to
      // the far list); the handler of the popped event then pushes at
      // now + 1 ms, behind the new window, and those pushes must still
      // come first.
      {"push_behind_jumped_window",
       [](ReferenceCheck& check) {
         constexpr SimTime kMs = kMillisecond;
         const SimTime later_bin = 10 << EventQueue::kBucketShift;
         check.push(0);
         check.push(later_bin + 100);
         check.push(later_bin + 200);
         check.pop();  // now = 0; the window jumps to later_bin
         check.push(check.now() + kMs);
         check.push(check.now() + 2 * kMs);
         check.pop();  // now = 1 ms, from behind the window
         check.push(check.now() + kMs);  // ties the pending 2 ms push
         check.drain();

         check.push(check.now() + kMs);
         check.push(check.now() + kRevolution);
         check.pop();  // the calendar is empty: the window jumps to far
         check.push(check.now() + kMs);
         check.push(check.now() + kRevolution - kMs);
         check.drain();
       }},
  };
  return cases;
}

class EventQueueOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EventQueueOrderTest, PopsLikeAReferencePriorityQueue) {
  ReferenceCheck check;
  order_cases()[GetParam()].run(check);
  ASSERT_FALSE(check.popped().empty());
  EXPECT_EQ(check.popped(), check.expected());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EventQueueOrderTest,
    ::testing::Range<std::size_t>(0, order_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return order_cases()[info.param].name;
    });

// ---------------------------------------------------------------------------
// Cancelled-timer skip at pop (simulator-level: the generation table lives
// in the Simulator, the queue only transports the arming generation).
// ---------------------------------------------------------------------------

class CancelHalfProcess final : public Process {
 public:
  void on_start() override {
    set_timer(1, kSecond);
    set_timer(2, kSecond);
    cancel_timer(2);  // its queued expiry must be skipped at pop time
  }
  void on_timer(int timer_id) override { fired.push_back(timer_id); }
  void on_message(wsn::NodeId, const Message&) override {}

  std::vector<int> fired;
};

TEST(EventQueueSimulatorTest, CancelledTimerIsSkippedAtPopButStillPops) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<CancelHalfProcess>());
  simulator.add_process(1, std::make_unique<CancelHalfProcess>());
  simulator.run_until(10 * kSecond);
  for (wsn::NodeId n = 0; n < 2; ++n) {
    const auto& process =
        dynamic_cast<const CancelHalfProcess&>(simulator.process(n));
    EXPECT_EQ(process.fired, std::vector<int>{1});
  }
  // Both armed expiries popped (the cancelled one as a skipped no-op, so
  // event accounting is invariant under cancellation), but only the live
  // ones fired.
  EXPECT_EQ(simulator.events_executed(), 4u);
  EXPECT_EQ(simulator.timers_fired(), 2u);
}

}  // namespace
}  // namespace slpdas::sim
