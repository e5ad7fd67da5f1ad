// Tests for the distributed Phase 1 DAS protocol (paper Figure 2):
// convergence, slot ordering, collision freedom and data-phase
// convergecast on small topologies.
#include <gtest/gtest.h>

#include "slpdas/verify/das_checker.hpp"
#include "slpdas/wsn/paths.hpp"
#include "test_util.hpp"

namespace slpdas::das {
namespace {

using test::fast_parameters;
using test::make_protectionless_net;
using test::run_setup;

TEST(Phase1Test, SinkInitialisesItself) {
  auto net = make_protectionless_net(wsn::make_line(3), fast_parameters(12), 1);
  run_setup(net);
  auto& sink = net.node(net.topology.sink);
  EXPECT_TRUE(sink.slot_assigned());
  EXPECT_EQ(sink.slot(), 100);  // Delta
  EXPECT_EQ(sink.hop(), 0);
  EXPECT_EQ(sink.parent(), wsn::kNoNode);
}

TEST(Phase1Test, AllNodesAssignedAfterSetup) {
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 2);
  run_setup(net);
  const mac::Schedule schedule = extract_schedule(*net.simulator);
  EXPECT_TRUE(schedule.complete());
}

TEST(Phase1Test, HopsMatchBfsDistances) {
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 3);
  run_setup(net);
  const auto distances =
      wsn::bfs_distances(net.topology.graph, net.topology.sink);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    EXPECT_EQ(net.node(n).hop(), distances[static_cast<std::size_t>(n)])
        << "node " << n;
  }
}

TEST(Phase1Test, ParentsAreCloserNeighbors) {
  auto net = make_protectionless_net(wsn::make_grid(7), fast_parameters(), 4);
  run_setup(net);
  const auto distances =
      wsn::bfs_distances(net.topology.graph, net.topology.sink);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    if (n == net.topology.sink) {
      continue;
    }
    const wsn::NodeId parent = net.node(n).parent();
    ASSERT_NE(parent, wsn::kNoNode) << "node " << n;
    EXPECT_TRUE(net.topology.graph.has_edge(n, parent));
    EXPECT_EQ(distances[static_cast<std::size_t>(parent)],
              distances[static_cast<std::size_t>(n)] - 1);
  }
}

TEST(Phase1Test, ChildrenTransmitBeforeParents) {
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 5);
  run_setup(net);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    if (n == net.topology.sink) {
      continue;
    }
    auto& process = net.node(n);
    auto& parent = net.node(process.parent());
    EXPECT_LT(process.slot(), parent.slot()) << "node " << n;
  }
}

TEST(Phase1Test, ScheduleIsWeakDasOnGrid) {
  // The distributed protocol guarantees weak DAS (Definition 3); strong DAS
  // (every shortest-path neighbour later) needs the centralized scheduler.
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 6);
  run_setup(net);
  const auto schedule = extract_schedule(*net.simulator);
  const auto weak = verify::check_weak_das(net.topology.graph, schedule,
                                           net.topology.sink);
  EXPECT_TRUE(weak.ok()) << weak.summary();
}

TEST(Phase1Test, ScheduleIsNonColliding) {
  auto net = make_protectionless_net(wsn::make_grid(7), fast_parameters(), 7);
  run_setup(net);
  const auto schedule = extract_schedule(*net.simulator);
  const auto result = verify::check_noncolliding(net.topology.graph, schedule,
                                                 net.topology.sink);
  EXPECT_TRUE(result.ok()) << result.summary();
}

TEST(Phase1Test, SlotsStayWithinFrameOnPaperGrid) {
  auto net = make_protectionless_net(wsn::make_grid(11), fast_parameters(32), 8);
  run_setup(net);
  const auto schedule = extract_schedule(*net.simulator);
  ASSERT_TRUE(schedule.complete());
  EXPECT_GE(schedule.min_slot(), 1);
  EXPECT_LE(schedule.max_slot(), 100);
}

TEST(Phase1Test, ChildrenSetsMatchParentClaims) {
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 9);
  run_setup(net);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    for (wsn::NodeId child : net.node(n).children()) {
      EXPECT_EQ(net.node(child).parent(), n)
          << "node " << n << " claims child " << child;
    }
  }
}

TEST(Phase1Test, DataPhaseDeliversSourceDataEveryPeriod) {
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(), 10);
  const int data_periods = 12;
  net.simulator->run_until(net.setup_end() +
                           data_periods * net.period());
  const auto& source = net.node(net.topology.source);
  const auto& sink = net.node(net.topology.sink);
  EXPECT_GE(source.generated_count(),
            static_cast<std::uint64_t>(data_periods - 1));
  // DAS convergecast: each datum flows leaf->sink within one period, so the
  // sink should have nearly everything (the last period may be in flight).
  EXPECT_GE(sink.delivered_count(), source.generated_count() - 2);
}

TEST(Phase1Test, EveryNodeTransmitsOncePerDataPeriod) {
  auto net = make_protectionless_net(wsn::make_grid(3), fast_parameters(), 11);
  run_setup(net);
  const auto sent_before = net.simulator->sends_by_type();
  const auto normal_before = sent_before.contains("NORMAL")
                                 ? sent_before.at("NORMAL")
                                 : std::uint64_t{0};
  net.simulator->run_until(net.setup_end() + 4 * net.period());
  const auto normal_after = net.simulator->sends_by_type().at("NORMAL");
  // 8 non-sink nodes x 4 periods.
  EXPECT_EQ(normal_after - normal_before, 32u);
}

TEST(Phase1Test, DisseminationTrafficIsBounded) {
  auto net = make_protectionless_net(wsn::make_grid(5), fast_parameters(40), 12);
  run_setup(net);
  const auto dissem = net.simulator->sends_by_type().at("DISSEM");
  // Each state change re-arms at most DT dissem sends; with a stable setup
  // the total is far below nodes x periods (here 25 x 40 = 1000).
  EXPECT_LT(dissem, 500u);
  // And HELLO traffic is exactly nodes x NDP.
  EXPECT_EQ(net.simulator->sends_by_type().at("HELLO"),
            static_cast<std::uint64_t>(25 * 3));
}

TEST(Phase1Test, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    auto net =
        make_protectionless_net(wsn::make_grid(5), fast_parameters(), seed);
    run_setup(net);
    return extract_schedule(*net.simulator);
  };
  EXPECT_EQ(run(77), run(77));
}

TEST(Phase1Test, DifferentSeedsGiveDifferentSiblingOrder) {
  // The discovery-order ranking must vary across seeds (this is what makes
  // the attacker's gradient endpoint random run to run).
  std::set<std::string> schedules;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto net =
        make_protectionless_net(wsn::make_grid(5), fast_parameters(), seed);
    run_setup(net);
    schedules.insert(extract_schedule(*net.simulator).to_string());
  }
  EXPECT_GT(schedules.size(), 1u);
}

TEST(Phase1Test, ExtractParentsMatchesProcesses) {
  auto net = make_protectionless_net(wsn::make_line(5), fast_parameters(), 13);
  run_setup(net);
  const auto parents = extract_parents(*net.simulator);
  for (wsn::NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(parents[static_cast<std::size_t>(n)], net.node(n).parent());
  }
}

TEST(Phase1Test, ConfigValidation) {
  DasConfig config;
  config.neighbor_discovery_periods = 0;
  EXPECT_THROW(ProtectionlessDas(config, 0, 1), std::invalid_argument);
  config = {};
  config.minimum_setup_periods = config.neighbor_discovery_periods;
  EXPECT_THROW(ProtectionlessDas(config, 0, 1), std::invalid_argument);
  // process:: runs at the window-end tick, which a zero window never has.
  config = {};
  config.frame.dissem_period = 0;
  EXPECT_THROW(ProtectionlessDas(config, 0, 1), std::invalid_argument);
}

class Phase1TopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(Phase1TopologySweep, WeakDasOnGridsOfVaryingSize) {
  const int side = GetParam();
  auto net = make_protectionless_net(
      wsn::make_grid(side), fast_parameters(side * 2 + 10), 17);
  run_setup(net);
  const auto schedule = extract_schedule(*net.simulator);
  EXPECT_TRUE(schedule.complete());
  const auto weak = verify::check_weak_das(net.topology.graph, schedule,
                                           net.topology.sink);
  EXPECT_TRUE(weak.ok()) << weak.summary();
}

INSTANTIATE_TEST_SUITE_P(GridSizes, Phase1TopologySweep,
                         ::testing::Values(3, 5, 7, 9, 11));

}  // namespace
}  // namespace slpdas::das
