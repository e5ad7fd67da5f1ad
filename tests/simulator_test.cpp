// Tests for the discrete-event simulator: process lifecycle, broadcast
// delivery, timers (re-arm/cancel), the frame clock's tick order,
// observers, traffic accounting and determinism.
#include "slpdas/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
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
  EXPECT_EQ(simulator.sent_of("PING"), simulator.total_sent());
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
    // unchecked, now() + delay would wrap SimTime (signed overflow) into
    // a bogus early expiry.
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

/// Broadcasts from a timer armed at the very end of representable time,
/// where the arrival time now() + propagation delay cannot exist.
class LastInstantBroadcaster final : public Process {
 public:
  void on_start() override {
    if (id() == 0) {
      set_timer(1, std::numeric_limits<SimTime>::max());
    }
  }
  void on_timer(int) override {
    EXPECT_THROW(broadcast(std::make_shared<PingMessage>()),
                 std::overflow_error);
    ran = true;
  }
  void on_message(wsn::NodeId, const Message&) override {}

  bool ran = false;
};

TEST(SimulatorTimerTest, BroadcastRejectsOverflowingArrival) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<LastInstantBroadcaster>());
  simulator.add_process(1, std::make_unique<LastInstantBroadcaster>());
  simulator.run_until(std::numeric_limits<SimTime>::max());
  EXPECT_TRUE(
      dynamic_cast<LastInstantBroadcaster&>(simulator.process(0)).ran);
  // The rejected broadcast sent and queued nothing.
  EXPECT_EQ(simulator.total_sent(), 0u);
  EXPECT_EQ(simulator.deliveries_executed(), 0u);
}

/// Stops the whole simulation from a timer half a second in.
class StoppingProcess final : public Process {
 public:
  void on_start() override {
    if (id() == 0) {
      set_timer(1, kSecond / 2);
    }
  }
  void on_timer(int) override { simulator().stop(); }
  void on_message(wsn::NodeId, const Message&) override {}
};

TEST(SimulatorApiTest, StopHaltsRun) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<StoppingProcess>());
  simulator.add_process(1, std::make_unique<TimerProcess>());
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

// ---- frame clock -----------------------------------------------------------

constexpr SimTime kFrame = kSecond;
constexpr SimTime kWindow = 200 * kMillisecond;

/// What ran, where and when, in execution order, across every process.
struct TickLog {
  struct Entry {
    std::string what;  ///< "start", "window", "timer" or "message"
    wsn::NodeId node;
    SimTime at;
    std::int64_t frame = -1;  ///< on_frame_start's argument, else -1
    bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> entries;

  /// The entries of one instant, in order.
  [[nodiscard]] std::vector<Entry> at(SimTime when) const {
    std::vector<Entry> out;
    for (const Entry& entry : entries) {
      if (entry.at == when) {
        out.push_back(entry);
      }
    }
    return out;
  }
};

/// Joins the frame clock and logs every hook, timer and reception. The
/// optional actions let one node arm a timer or broadcast at set points.
class FrameProcess final : public Process {
 public:
  explicit FrameProcess(TickLog& log) : log_(log) {}

  void on_start() override {
    join_frame_clock(kFrame, kWindow);
    if (start_timer_delay >= 0) {
      set_timer(1, start_timer_delay);
    }
  }
  void on_frame_start(std::int64_t frame) override {
    log_.entries.push_back({"start", id(), now(), frame});
    if (frame == 0 && frame_timer_delay >= 0) {
      set_timer(2, frame_timer_delay);
    }
  }
  void on_window_end() override {
    log_.entries.push_back({"window", id(), now()});
  }
  void on_timer(int timer_id) override {
    log_.entries.push_back({"timer", id(), now()});
    if (timer_id == 2 && broadcast_from_timer) {
      broadcast(std::make_shared<PingMessage>());
    }
  }
  void on_message(wsn::NodeId, const Message&) override {
    log_.entries.push_back({"message", id(), now()});
  }
  void reset_run() override {}

  SimTime start_timer_delay = -1;  ///< timer 1, armed in on_start
  SimTime frame_timer_delay = -1;  ///< timer 2, armed in on_frame_start(0)
  bool broadcast_from_timer = false;

 private:
  TickLog& log_;
};

class FrameClockTest : public ::testing::Test {
 protected:
  /// A 3-node line whose every node runs a FrameProcess; node 0's is
  /// returned for the test to configure before the run starts.
  FrameProcess& populate(Simulator& simulator) {
    for (wsn::NodeId n = 2; n >= 0; --n) {  // registration order is moot
      simulator.add_process(n, std::make_unique<FrameProcess>(log_));
    }
    return dynamic_cast<FrameProcess&>(simulator.process(0));
  }

  wsn::Topology line_ = wsn::make_line(3);
  TickLog log_;
};

TEST_F(FrameClockTest, FrameStartRunsBeforeAZeroDelayTimerArmedInTheTick) {
  Simulator simulator(line_.graph, make_ideal_radio(), 1);
  populate(simulator).frame_timer_delay = 0;
  simulator.run_until(kWindow / 2);
  const std::vector<TickLog::Entry> expected{{"start", 0, 0, 0},
                                             {"start", 1, 0, 0},
                                             {"start", 2, 0, 0},
                                             {"timer", 0, 0}};
  EXPECT_EQ(log_.at(0), expected);
}

TEST_F(FrameClockTest, FrameStartRunsBeforeADeliveryLandingOnTheBoundary) {
  // Node 0 broadcasts at 100 ms with a 900 ms propagation delay, so its
  // reception lands exactly on T_1 — queued long before the frame-1 tick
  // would be if ticks took queue sequence numbers.
  Simulator simulator(line_.graph, make_ideal_radio(), 1);
  simulator.set_propagation_delay(kFrame - 100 * kMillisecond);
  FrameProcess& node0 = populate(simulator);
  node0.frame_timer_delay = 100 * kMillisecond;
  node0.broadcast_from_timer = true;
  simulator.run_until(kFrame);
  const std::vector<TickLog::Entry> expected{{"start", 0, kFrame, 1},
                                             {"start", 1, kFrame, 1},
                                             {"start", 2, kFrame, 1},
                                             {"message", 1, kFrame}};
  EXPECT_EQ(log_.at(kFrame), expected);
}

TEST_F(FrameClockTest, WindowEndRunsBeforeATimerDueAtTheSameInstant) {
  // Armed in on_start, before any tick ran: a sequence-numbered window
  // tick would have been queued after it.
  Simulator simulator(line_.graph, make_ideal_radio(), 1);
  populate(simulator).start_timer_delay = kWindow;
  simulator.run_until(kWindow);
  const std::vector<TickLog::Entry> expected{{"window", 0, kWindow},
                                             {"window", 1, kWindow},
                                             {"window", 2, kWindow},
                                             {"timer", 0, kWindow}};
  EXPECT_EQ(log_.at(kWindow), expected);
}

TEST_F(FrameClockTest, HooksRunInNodeIdOrderEveryTick) {
  Simulator simulator(line_.graph, make_ideal_radio(), 1);
  populate(simulator);
  simulator.run_until(2 * kFrame + kWindow);
  std::vector<TickLog::Entry> expected;
  for (std::int64_t frame = 0; frame <= 2; ++frame) {
    const SimTime start = frame * kFrame;
    for (wsn::NodeId n = 0; n < 3; ++n) {
      expected.push_back({"start", n, start, frame});
    }
    for (wsn::NodeId n = 0; n < 3; ++n) {
      expected.push_back({"window", n, start + kWindow});
    }
  }
  EXPECT_EQ(log_.entries, expected);
  // One executed event per tick, whatever it calls; ticks are not timers.
  EXPECT_EQ(simulator.events_executed(), 6u);
  EXPECT_EQ(simulator.timers_fired(), 0u);
}

/// Exercises the join rules from inside on_start, and the no-broadcast
/// contract from inside a hook.
class JoinRulesProcess final : public Process {
 public:
  void on_start() override {
    EXPECT_THROW(join_frame_clock(0, 0), std::invalid_argument);
    EXPECT_THROW(join_frame_clock(kFrame, kFrame), std::invalid_argument);
    EXPECT_THROW(join_frame_clock(kFrame, -1), std::invalid_argument);
    join_frame_clock(kFrame, kWindow);
    join_frame_clock(kFrame, kWindow);  // a repeat join is a no-op
    EXPECT_THROW(join_frame_clock(2 * kFrame, kWindow),
                 std::invalid_argument);
    EXPECT_THROW(join_frame_clock(kFrame, kWindow / 2),
                 std::invalid_argument);
    set_timer(1, kWindow / 2);
  }
  void on_frame_start(std::int64_t) override {
    ++frame_starts;
    EXPECT_THROW(broadcast(std::make_shared<PingMessage>()),
                 std::logic_error);
  }
  void on_timer(int) override {
    EXPECT_THROW(join_frame_clock(kFrame, kWindow), std::logic_error);
  }
  void on_message(wsn::NodeId, const Message&) override {}

  int frame_starts = 0;
};

TEST(FrameClockRulesTest, ConflictingJoinsThrowAndRepeatJoinsAreNoOps) {
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<JoinRulesProcess>());
  simulator.add_process(1, std::make_unique<JoinRulesProcess>());
  simulator.run_until(kFrame + kWindow);
  for (wsn::NodeId n = 0; n < 2; ++n) {
    EXPECT_EQ(
        dynamic_cast<JoinRulesProcess&>(simulator.process(n)).frame_starts,
        2);
  }
  EXPECT_EQ(simulator.total_sent(), 0u);
}

TEST_F(FrameClockTest, ResetRunRestartsTheClockAtFrameZero) {
  Simulator simulator(line_.graph, make_ideal_radio(), 1);
  populate(simulator);
  simulator.run_until(2 * kFrame + kFrame / 2);
  log_.entries.clear();
  simulator.reset_run(2);
  EXPECT_EQ(simulator.now(), 0);
  simulator.run_until(kFrame / 2);
  std::vector<TickLog::Entry> expected;
  for (wsn::NodeId n = 0; n < 3; ++n) {
    expected.push_back({"start", n, 0, 0});
  }
  for (wsn::NodeId n = 0; n < 3; ++n) {
    expected.push_back({"window", n, kWindow});
  }
  EXPECT_EQ(log_.entries, expected);
  EXPECT_EQ(simulator.events_executed(), 2u);
}

TEST(FrameClockRulesTest, NoJoinedProcessMeansNoTicks) {
  // TimerProcess never joins: every executed event is one of its ten
  // queued expiries (five arms per node, stale ones included), and
  // run_until still lands the clock on `end`.
  const wsn::Topology line = wsn::make_line(2);
  Simulator simulator(line.graph, make_ideal_radio(), 1);
  simulator.add_process(0, std::make_unique<TimerProcess>());
  simulator.add_process(1, std::make_unique<TimerProcess>());
  EXPECT_EQ(simulator.run_until(10 * kSecond), 10u);
  EXPECT_EQ(simulator.events_executed(), 10u);
  EXPECT_EQ(simulator.timers_fired(), 6u);
  EXPECT_EQ(simulator.now(), 10 * kSecond);
  EXPECT_EQ(simulator.run_until(20 * kSecond), 0u);
  EXPECT_EQ(simulator.now(), 20 * kSecond);
}

}  // namespace
}  // namespace slpdas::sim
