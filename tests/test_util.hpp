// Shared helpers for protocol-level tests: build a simulator running the
// protectionless or SLP protocol on a topology with fast (test-sized)
// timing, and run it through its setup phase; run one seed of an
// experiment config from scratch.
#pragma once

#include <cstdint>
#include <memory>

#include "slpdas/core/parameters.hpp"
#include "slpdas/core/run_batch.hpp"
#include "slpdas/das/protocol.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/slp/slp_das.hpp"
#include "slpdas/wsn/topology.hpp"

namespace slpdas::test {

/// Table I values shrunk for unit tests: short slots, few setup periods.
/// `setup_periods` must exceed discovery + network radius + a few rounds.
inline core::Parameters fast_parameters(int setup_periods = 24,
                                        int slots = 100) {
  core::Parameters params;
  params.slot_period_s = 0.002;
  params.dissem_period_s = 0.05;
  params.slots = slots;
  params.minimum_setup_periods = setup_periods;
  params.neighbor_discovery_periods = 3;
  params.dissemination_timeout = 5;
  params.search_start_period = setup_periods * 2 / 3;
  return params;
}

struct TestNet {
  wsn::Topology topology;
  std::unique_ptr<sim::Simulator> simulator;
  core::Parameters params;

  [[nodiscard]] sim::SimTime period() const {
    return params.frame().period();
  }
  [[nodiscard]] sim::SimTime setup_end() const {
    return static_cast<sim::SimTime>(params.minimum_setup_periods) * period();
  }
  [[nodiscard]] das::ProtectionlessDas& node(wsn::NodeId id) {
    return dynamic_cast<das::ProtectionlessDas&>(simulator->process(id));
  }
  [[nodiscard]] slp::SlpDas& slp_node(wsn::NodeId id) {
    return dynamic_cast<slp::SlpDas&>(simulator->process(id));
  }
};

inline TestNet make_protectionless_net(
    wsn::Topology topology, const core::Parameters& params,
    std::uint64_t seed, std::unique_ptr<sim::RadioModel> radio = nullptr) {
  TestNet net{std::move(topology), nullptr, params};
  net.simulator = std::make_unique<sim::Simulator>(
      net.topology.graph, radio ? std::move(radio) : sim::make_ideal_radio(),
      seed);
  net.simulator->set_propagation_delay(sim::kMillisecond / 2);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    net.simulator->add_process(
        n, std::make_unique<das::ProtectionlessDas>(
               params.das_config(), net.topology.sink, net.topology.source));
  }
  return net;
}

inline TestNet make_slp_net(wsn::Topology topology,
                            const core::Parameters& params, std::uint64_t seed,
                            std::unique_ptr<sim::RadioModel> radio = nullptr) {
  TestNet net{std::move(topology), nullptr, params};
  net.simulator = std::make_unique<sim::Simulator>(
      net.topology.graph, radio ? std::move(radio) : sim::make_ideal_radio(),
      seed);
  net.simulator->set_propagation_delay(sim::kMillisecond / 2);
  const slp::SlpConfig config = params.slp_config(net.topology);
  for (wsn::NodeId n = 0; n < net.topology.graph.node_count(); ++n) {
    net.simulator->add_process(
        n, std::make_unique<slp::SlpDas>(config, net.topology.sink,
                                         net.topology.source));
  }
  return net;
}

/// Runs the network through its full setup phase (periods [0, MSP)).
inline void run_setup(TestNet& net) {
  net.simulator->run_until(net.setup_end());
}

/// One seeded run of `config` from scratch: its own topology, batch and
/// Fork, so nothing another run did can reach it. Deterministic in
/// (config, seed).
inline core::RunResult run_seed(const core::ExperimentConfig& config,
                                std::uint64_t seed) {
  const wsn::Topology topology = config.topology.build();
  const core::RunBatch batch(config, topology);
  return core::RunBatch::Fork(batch).run(seed);
}

}  // namespace slpdas::test
