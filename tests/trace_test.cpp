// Tests for the transmission trace recorder, including the protocol-level
// timing property it was built to check: data transmissions happen inside
// the sender's own TDMA slot.
#include "slpdas/sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "slpdas/das/protocol.hpp"
#include "test_util.hpp"

namespace slpdas::sim {
namespace {

using test::fast_parameters;
using test::make_protectionless_net;

TEST(TraceRecorderTest, RecordsAllTransmissionsByDefault) {
  auto net = make_protectionless_net(wsn::make_line(3), fast_parameters(12), 1);
  TraceRecorder recorder(net.params.frame());
  net.simulator->add_observer(&recorder);
  net.simulator->run_until(net.setup_end());
  EXPECT_EQ(recorder.size(), net.simulator->total_sent());
}

TEST(TraceRecorderTest, TypeFilterSelects) {
  auto net = make_protectionless_net(wsn::make_line(3), fast_parameters(12), 2);
  TraceRecorder recorder(net.params.frame());
  recorder.set_type_filter("HELLO");
  net.simulator->add_observer(&recorder);
  net.simulator->run_until(net.setup_end());
  EXPECT_EQ(recorder.size(), net.simulator->sent_of(das::HelloMessage::kName));
  for (const TraceEntry& entry : recorder.entries()) {
    EXPECT_EQ(entry.type, "HELLO");
  }
}

TEST(TraceRecorderTest, StartTimeCutsPrefix) {
  auto net = make_protectionless_net(wsn::make_line(3), fast_parameters(12), 3);
  TraceRecorder recorder(net.params.frame());
  recorder.set_start_time(net.setup_end());
  net.simulator->add_observer(&recorder);
  net.simulator->run_until(net.setup_end() + 2 * net.period());
  for (const TraceEntry& entry : recorder.entries()) {
    EXPECT_GE(entry.at, net.setup_end());
  }
  EXPECT_GT(recorder.size(), 0u);
}

TEST(TraceRecorderTest, DataTransmissionsLandInOwnSlot) {
  // The property the recorder exists for: every NORMAL message fires in
  // the slot its sender holds in the extracted schedule.
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 4);
  TraceRecorder recorder(net.params.frame());
  recorder.set_type_filter("NORMAL");
  recorder.set_start_time(net.setup_end());
  net.simulator->add_observer(&recorder);
  net.simulator->run_until(net.setup_end() + 3 * net.period());
  const auto schedule = das::extract_schedule(*net.simulator);
  ASSERT_GT(recorder.size(), 0u);
  for (const TraceEntry& entry : recorder.entries()) {
    EXPECT_EQ(entry.slot,
              net.params.frame().clamp_slot(schedule.slot(entry.sender)))
        << "sender " << entry.sender;
  }
}

TEST(TraceRecorderTest, PeriodSliceAndPerNodeCounts) {
  auto net = make_protectionless_net(wsn::make_grid(3), fast_parameters(12), 5);
  TraceRecorder recorder(net.params.frame());
  recorder.set_type_filter("NORMAL");
  net.simulator->add_observer(&recorder);
  const int periods = 12 + 3;
  net.simulator->run_until(periods * net.period());
  const auto slice = recorder.period_slice(12);
  EXPECT_EQ(slice.size(), 8u);  // every non-sink node once
  const auto counts = recorder.sends_per_node(9);
  for (wsn::NodeId n = 0; n < 9; ++n) {
    if (n == net.topology.sink) {
      EXPECT_EQ(counts[static_cast<std::size_t>(n)], 0u);
    } else {
      EXPECT_EQ(counts[static_cast<std::size_t>(n)], 3u) << "node " << n;
    }
  }
}

TEST(TraceRecorderTest, CsvDump) {
  auto net = make_protectionless_net(wsn::make_line(3), fast_parameters(12), 6);
  TraceRecorder recorder(net.params.frame());
  net.simulator->add_observer(&recorder);
  net.simulator->run_until(2 * net.period());
  std::ostringstream out;
  recorder.write_csv(out);
  EXPECT_NE(out.str().find("at_us,sender,type,period,slot\n"),
            std::string::npos);
  EXPECT_NE(out.str().find("HELLO"), std::string::npos);
}

TEST(TraceRecorderTest, ClearResets) {
  auto net = make_protectionless_net(wsn::make_line(3), fast_parameters(12), 7);
  TraceRecorder recorder(net.params.frame());
  net.simulator->add_observer(&recorder);
  net.simulator->run_until(net.period());
  EXPECT_GT(recorder.size(), 0u);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
}

}  // namespace
}  // namespace slpdas::sim
