// Tests for the per-node id window that sizes the DAS tables (Ninfo,
// Others, the neighbour mirror): on topologies whose CG(n) ids are not
// contiguous the window must still hold every node a process learns
// about, so full setup reproduces the schedule and parents pinned below,
// and ids outside the window must read as unassigned.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace slpdas::das {
namespace {

/// Exposes the protected Ninfo lookup (SLP-DAS, which is final, inherits
/// it unchanged).
class ProbeDas : public ProtectionlessDas {
 public:
  using ProtectionlessDas::ProtectionlessDas;
  using ProtectionlessDas::info_of;
};

/// A 10-cycle with scrambled ids, 0-4-5-6-9-8-7-3-2-1-0, plus node 10
/// hanging off node 5. Node 5's 1-hop ids are {4, 6, 10}; its 2-hop ids 0
/// and 9 lie below and above all of them, so its window is the whole id
/// range while node 10's is [4, 10] and node 8's is [3, 9].
wsn::Topology scrambled_cycle() {
  wsn::Topology topology;
  topology.graph = wsn::Graph(11);
  for (const auto& [a, b] : {std::pair{0, 4}, {4, 5}, {5, 6}, {6, 9}, {9, 8},
                             {8, 7}, {7, 3}, {3, 2}, {2, 1}, {1, 0}, {5, 10}}) {
    topology.graph.add_edge(a, b);
  }
  topology.positions.resize(11);
  for (std::size_t i = 0; i < topology.positions.size(); ++i) {
    topology.positions[i] = {4.5 * static_cast<double>(i), 0.0};
  }
  topology.sink = 5;
  topology.source = 7;
  return topology;
}

wsn::Topology small_udisk() {
  wsn::UnitDiskParams params;
  params.node_count = 30;
  params.area_side = 40.0;
  params.radio_range = 12.0;
  params.seed = 3;
  return wsn::make_random_unit_disk(params);
}

const core::Parameters kParams = test::fast_parameters(40);

test::TestNet make_net(wsn::Topology topology, bool slp, std::uint64_t seed) {
  return slp ? test::make_slp_net(std::move(topology), kParams, seed)
             : test::make_protectionless_net(std::move(topology), kParams,
                                             seed);
}

/// FNV-1a over every node's (slot, parent) after setup.
std::uint64_t fingerprint(const sim::Simulator& simulator) {
  const mac::Schedule schedule = extract_schedule(simulator);
  const std::vector<wsn::NodeId> parents = extract_parents(simulator);
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::int64_t value) {
    hash = (hash ^ static_cast<std::uint64_t>(value)) * 1099511628211ULL;
  };
  for (wsn::NodeId n = 0; n < schedule.node_count(); ++n) {
    mix(schedule.slot(n));
    mix(parents[static_cast<std::size_t>(n)]);
  }
  return hash;
}

wsn::Topology ring12() { return wsn::make_ring(12); }

struct WindowCase {
  const char* name;
  wsn::Topology (*topology)();
  bool slp;
  /// Fingerprints of seed 11 from a fresh simulator, then of seed 12 after
  /// reset_run on the same one (the window must survive the reset).
  std::uint64_t first;
  std::uint64_t second;
};

class DasWindowTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(DasWindowTest, SetupMatchesPinnedScheduleAcrossReset) {
  const WindowCase& c = GetParam();
  test::TestNet net = make_net(c.topology(), c.slp, 11);
  test::run_setup(net);
  EXPECT_TRUE(extract_schedule(*net.simulator).complete());
  EXPECT_EQ(fingerprint(*net.simulator), c.first);

  net.simulator->reset_run(12);
  test::run_setup(net);
  EXPECT_TRUE(extract_schedule(*net.simulator).complete());
  EXPECT_EQ(fingerprint(*net.simulator), c.second);
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialWindows, DasWindowTest,
    ::testing::Values(
        WindowCase{"ring_das", ring12, false,
                   0x430ca6825a5b178bULL, 0x00d8897b1e234f8fULL},
        WindowCase{"ring_slp", ring12, true,
                   0x43100c825a5dfab4ULL, 0x00d8897b1e234f8fULL},
        WindowCase{"scrambled_das", scrambled_cycle, false,
                   0x660bbf4e352e10d4ULL, 0x660bbf4e352e10d4ULL},
        WindowCase{"scrambled_slp", scrambled_cycle, true,
                   0xce28faed836a5c40ULL, 0xce28faed836a5c40ULL},
        WindowCase{"udisk_das", small_udisk, false,
                   0xb37ba490a1176095ULL, 0x839338d5ba485869ULL},
        WindowCase{"udisk_slp", small_udisk, true,
                   0xb37ba490a1176095ULL, 0xea7111f2107c818fULL}),
    [](const ::testing::TestParamInfo<WindowCase>& info) {
      return std::string(info.param.name);
    });

TEST(DasWindowLookupTest, IdsOutsideTheWindowReadUnassigned) {
  for (wsn::Topology (*build)() : {ring12, scrambled_cycle, small_udisk}) {
    wsn::Topology topology = build();
    const wsn::NodeId n = topology.graph.node_count();
    test::TestNet net{std::move(topology), nullptr, kParams};
    net.simulator = std::make_unique<sim::Simulator>(
        net.topology.graph, sim::make_ideal_radio(), 11);
    net.simulator->set_propagation_delay(sim::kMillisecond / 2);
    for (wsn::NodeId node = 0; node < n; ++node) {
      net.simulator->add_process(
          node, std::make_unique<ProbeDas>(kParams.das_config(),
                                           net.topology.sink,
                                           net.topology.source));
    }
    test::run_setup(net);
    for (wsn::NodeId node = 0; node < n; ++node) {
      const auto& probe = dynamic_cast<const ProbeDas&>(net.node(node));
      for (const wsn::NodeId outside : {wsn::kNoNode, -5, n + 3}) {
        EXPECT_FALSE(probe.info_of(outside).assigned())
            << "node " << node << " about " << outside;
      }
      // Inside the window the lookup still answers: every node knows its
      // own slot, and every non-sink node its parent's.
      EXPECT_EQ(probe.info_of(node).slot, probe.slot());
      if (probe.parent() != wsn::kNoNode) {
        EXPECT_TRUE(probe.info_of(probe.parent()).assigned())
            << "node " << node;
      }
    }
  }
}

}  // namespace
}  // namespace slpdas::das
