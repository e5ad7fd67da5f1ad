// Tests for the discrete-event simulator: process lifecycle, broadcast
// delivery, timers (re-arm/cancel), observers, traffic accounting and
// determinism.
#include "slpdas/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "slpdas/wsn/topology.hpp"

namespace slpdas::sim {
namespace {

struct PingMessage final : Message {
  int payload = 0;
  [[nodiscard]] const char* name() const noexcept override { return "PING"; }
};

/// Re-broadcasts any received ping with a decremented TTL.
class RelayProcess final : public Process {
 public:
  void on_start() override {
    if (id() == 0) {
      set_timer(1, kSecond);
    }
  }
  void on_timer(int timer_id) override {
    if (timer_id == 1) {
      auto message = std::make_shared<PingMessage>();
      message->payload = 3;
      broadcast(std::move(message));
    }
  }
  void on_message(wsn::NodeId from, const Message& message) override {
    last_sender = from;
    const auto& ping = dynamic_cast<const PingMessage&>(message);
    received.push_back(ping.payload);
    if (ping.payload > 0) {
      auto reply = std::make_shared<PingMessage>();
      reply->payload = ping.payload - 1;
      broadcast(std::move(reply));
    }
  }

  std::vector<int> received;
  wsn::NodeId last_sender = wsn::kNoNode;
};

class SimulatorTest : public ::testing::Test {
 protected:
  wsn::Topology topology_ = wsn::make_line(3);
};

TEST_F(SimulatorTest, BroadcastReachesOnlyNeighbors) {
  Simulator simulator(topology_.graph, make_ideal_radio(), 1);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<RelayProcess>());
  }
  simulator.run_until(2 * kSecond);
  auto& p0 = dynamic_cast<RelayProcess&>(simulator.process(0));
  auto& p1 = dynamic_cast<RelayProcess&>(simulator.process(1));
  auto& p2 = dynamic_cast<RelayProcess&>(simulator.process(2));
  // 0 pings (ttl 3); 1 hears it (not 2), relays (ttl 2); both 0 and 2 hear;
  // the cascade decays to ttl 0.
  ASSERT_FALSE(p1.received.empty());
  EXPECT_EQ(p1.received.front(), 3);
  ASSERT_FALSE(p2.received.empty());
  EXPECT_EQ(p2.received.front(), 2);
  EXPECT_FALSE(p0.received.empty());  // heard the relay back
}

TEST_F(SimulatorTest, PropagationDelayAppliesToDeliveries) {
  Simulator simulator(topology_.graph, make_ideal_radio(), 1);
  simulator.set_propagation_delay(5 * kMillisecond);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<RelayProcess>());
  }
  // Stop exactly when the first broadcast has been sent but not delivered.
  simulator.run_until(kSecond + 4 * kMillisecond);
  auto& p1 = dynamic_cast<RelayProcess&>(simulator.process(1));
  EXPECT_TRUE(p1.received.empty());
  simulator.run_until(kSecond + 6 * kMillisecond);
  EXPECT_EQ(p1.received.size(), 1u);
}

TEST_F(SimulatorTest, TrafficCountersTrackSendsAndReceives) {
  Simulator simulator(topology_.graph, make_ideal_radio(), 1);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<RelayProcess>());
  }
  simulator.run_until(10 * kSecond);
  EXPECT_GT(simulator.traffic(0).sent, 0u);
  EXPECT_GT(simulator.traffic(1).received, 0u);
  EXPECT_EQ(simulator.total_sent(),
            simulator.traffic(0).sent + simulator.traffic(1).sent +
                simulator.traffic(2).sent);
  EXPECT_EQ(simulator.sends_by_type().at("PING"), simulator.total_sent());
}

TEST_F(SimulatorTest, DeterministicAcrossIdenticalRuns) {
  auto run = [&] {
    Simulator simulator(topology_.graph, make_lossy_radio(0.3), 99);
    for (wsn::NodeId n = 0; n < 3; ++n) {
      simulator.add_process(n, std::make_unique<RelayProcess>());
    }
    simulator.run_until(10 * kSecond);
    return std::pair{simulator.total_sent(), simulator.events_executed()};
  };
  EXPECT_EQ(run(), run());
}

TEST_F(SimulatorTest, LossyRadioDropsSomeDeliveries) {
  Simulator ideal(topology_.graph, make_ideal_radio(), 5);
  Simulator lossy(topology_.graph, make_lossy_radio(0.6), 5);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    ideal.add_process(n, std::make_unique<RelayProcess>());
    lossy.add_process(n, std::make_unique<RelayProcess>());
  }
  ideal.run_until(10 * kSecond);
  lossy.run_until(10 * kSecond);
  EXPECT_LT(lossy.total_sent(), ideal.total_sent());
}

struct CountingObserver final : TransmissionObserver {
  int transmissions = 0;
  void on_transmission(wsn::NodeId, const Message&, SimTime) override {
    ++transmissions;
  }
};

TEST_F(SimulatorTest, ObserverSeesEveryTransmission) {
  Simulator simulator(topology_.graph, make_lossy_radio(0.5), 3);
  CountingObserver observer;
  simulator.add_observer(&observer);
  for (wsn::NodeId n = 0; n < 3; ++n) {
    simulator.add_process(n, std::make_unique<RelayProcess>());
  }
  simulator.run_until(10 * kSecond);
  // Observers see raw transmissions regardless of per-link loss.
  EXPECT_EQ(observer.transmissions,
            static_cast<int>(simulator.total_sent()));
}

class TimerProcess final : public Process {
 public:
  void on_start() override {
    set_timer(1, kSecond);
    set_timer(2, kSecond);
    set_timer(2, 2 * kSecond);  // re-arm supersedes
    set_timer(3, kSecond);
    cancel_timer(3);
    // Cancelling timers that were NEVER armed must be a silent no-op: it
    // may not fabricate generation state (the old per-process map grew an
    // entry here) and a later arm of the same id must still fire.
    cancel_timer(4);
    cancel_timer(1000000);
    set_timer(4, kSecond);
  }
  void on_timer(int timer_id) override { fired.push_back({timer_id, now()}); }
  void on_message(wsn::NodeId, const Message&) override {}

  std::vector<std::pair<int, SimTime>> fired;
};

TEST(SimulatorTimerTest, RearmAndCancelSemantics) {
  const wsn::Topology solo = wsn::make_line(2);
  Simulator simulator(solo.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  simulator.add_process(1, std::make_unique<TimerProcess>());
  simulator.run_until(10 * kSecond);
  const auto& fired = dynamic_cast<TimerProcess&>(simulator.process(0)).fired;
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair{1, kSecond}));
  EXPECT_EQ(fired[1], (std::pair{4, kSecond}));
  EXPECT_EQ(fired[2], (std::pair{2, 2 * kSecond}));
}

class BadTimerProcess final : public Process {
 public:
  void on_start() override {
    EXPECT_THROW(set_timer(-1, kSecond), std::invalid_argument);
    EXPECT_THROW(set_timer(1, -kSecond), std::invalid_argument);
    cancel_timer(-1);  // negative ids are a no-op for cancel
    set_timer(1, kSecond);
  }
  void on_timer(int) override {
    // now() is past zero here, so the maximum delay must be rejected:
    // unchecked, now() + delay would wrap SimTime (signed overflow) and
    // sail past call_at's past-time check as a bogus early event.
    EXPECT_THROW(set_timer(1, std::numeric_limits<SimTime>::max()),
                 std::overflow_error);
    // The largest still-representable delay remains accepted.
    set_timer(2, std::numeric_limits<SimTime>::max() - now());
    ran = true;
  }
  void on_message(wsn::NodeId, const Message&) override {}

  bool ran = false;
};

TEST(SimulatorTimerTest, RejectsBadTimerArguments) {
  const wsn::Topology solo = wsn::make_line(2);
  Simulator simulator(solo.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<BadTimerProcess>());
  simulator.add_process(1, std::make_unique<BadTimerProcess>());
  simulator.run_until(2 * kSecond);
  EXPECT_TRUE(dynamic_cast<BadTimerProcess&>(simulator.process(0)).ran);
}

TEST(SimulatorApiTest, RegistrationErrors) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  EXPECT_THROW(simulator.add_process(5, std::make_unique<TimerProcess>()),
               std::out_of_range);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  EXPECT_THROW(simulator.add_process(0, std::make_unique<TimerProcess>()),
               std::logic_error);
  EXPECT_THROW(simulator.add_process(1, nullptr), std::invalid_argument);
  EXPECT_THROW(simulator.add_observer(nullptr), std::invalid_argument);
  EXPECT_THROW((void)simulator.process(1), std::out_of_range);
  EXPECT_THROW(Simulator(line.graph, nullptr, 1), std::invalid_argument);
}

TEST(SimulatorApiTest, CallAtRejectsPast) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  simulator.add_process(1, std::make_unique<TimerProcess>());
  simulator.run_until(kSecond);
  EXPECT_THROW(simulator.call_at(0, [] {}), std::invalid_argument);
}

TEST(SimulatorApiTest, CallAfterRejectsOverflowingDelay) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  simulator.add_process(1, std::make_unique<TimerProcess>());
  simulator.run_until(kSecond);  // now > 0, so max delay wraps
  EXPECT_THROW(simulator.call_after(std::numeric_limits<SimTime>::max(), [] {}),
               std::overflow_error);
  // A far-future but representable callback is still fine.
  simulator.call_after(std::numeric_limits<SimTime>::max() - simulator.now(),
                       [] {});
}

TEST(SimulatorApiTest, StopHaltsRun) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  simulator.add_process(1, std::make_unique<TimerProcess>());
  simulator.call_after(kSecond / 2, [&] { simulator.stop(); });
  simulator.run_until(10 * kSecond);
  EXPECT_TRUE(simulator.stopped());
  EXPECT_EQ(simulator.now(), kSecond / 2);
}

TEST(SimulatorApiTest, RunUntilAdvancesClockToEnd) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  simulator.add_process(1, std::make_unique<TimerProcess>());
  simulator.run_until(5 * kSecond);
  EXPECT_EQ(simulator.now(), 5 * kSecond);
}

}  // namespace
}  // namespace slpdas::sim
