#include "slpdas/core/run_batch.hpp"

#include <memory>

#include "slpdas/mac/schedule_io.hpp"
#include "slpdas/rng.hpp"
#include "slpdas/verify/das_checker.hpp"

namespace slpdas::core {

namespace {

/// Delivery ratio and latency of one run, read from the source's and the
/// sink's `Protocol` process.
template <typename Protocol>
void read_delivery(const sim::Simulator& simulator,
                   const wsn::Topology& topology, RunResult& result) {
  const auto& source =
      dynamic_cast<const Protocol&>(simulator.process(topology.source));
  const auto& sink =
      dynamic_cast<const Protocol&>(simulator.process(topology.sink));
  const std::uint64_t generated = source.generated_count();
  if (generated > 0) {
    result.delivery_ratio = static_cast<double>(sink.delivered_count()) /
                            static_cast<double>(generated);
    result.delivery_latency_s = sink.mean_delivery_latency_s();
  }
}

}  // namespace

RunBatch::RunBatch(const ExperimentConfig& config,
                   const wsn::Topology& topology)
    : config_(config),
      topology_(topology),
      prefix_(PhasePrefix::capture(config, topology)) {}

RunBatch::Fork::Fork(const RunBatch& batch)
    : batch_(batch),
      // Seed 0 is a placeholder: run() always reset_run()s to the real
      // seed before stepping, and reseeding is exactly the construction
      // path of the RNG.
      simulator_(batch.topology_.graph, make_radio(batch.config_), 0),
      eavesdropper_(simulator_, batch.prefix_.das.frame,
                    batch.config_.attacker.build(batch.topology_.sink),
                    batch.topology_.source) {
  const wsn::Topology& topology = batch.topology_;
  const PhasePrefix& prefix = batch.prefix_;
  for (wsn::NodeId node = 0; node < topology.graph.node_count(); ++node) {
    switch (batch.config_.protocol) {
      case ProtocolKind::kSlpDas:
        simulator_.add_process(
            node, std::make_unique<slp::SlpDas>(prefix.slp, topology.sink,
                                                topology.source,
                                                prefix.das_hello));
        break;
      case ProtocolKind::kPhantomRouting:
        simulator_.add_process(node, std::make_unique<phantom::PhantomRouting>(
                                         prefix.phantom, topology.sink,
                                         topology.source,
                                         prefix.phantom_hello));
        break;
      case ProtocolKind::kProtectionlessDas:
        simulator_.add_process(node, std::make_unique<das::ProtectionlessDas>(
                                         prefix.das, topology.sink,
                                         topology.source, prefix.das_hello));
        break;
    }
  }
}

RunResult RunBatch::Fork::run(std::uint64_t seed) {
  simulator_.reset_run(seed);
  eavesdropper_.reset_run();

  const wsn::Topology& topology = batch_.topology_;
  const PhasePrefix& prefix = batch_.prefix_;
  const wsn::Graph& graph = topology.graph;

  // ---- setup phase: periods [0, MSP) --------------------------------------
  simulator_.run_until(prefix.activation);

  RunResult result;
  if (!prefix.is_phantom) {
    const mac::Schedule schedule = das::extract_schedule(simulator_);
    result.schedule_complete = schedule.complete();
    if (result.schedule_complete) {
      const mac::ScheduleStats stats = mac::compute_stats(schedule);
      result.schedule_slot_span = stats.span;
      result.schedule_density = stats.density;
    }
    if (batch_.config_.check_schedules) {
      result.weak_das_ok =
          verify::check_weak_das(graph, schedule, topology.sink).ok();
      result.strong_das_ok =
          verify::check_strong_das(graph, schedule, topology.sink).ok();
    }
  }
  // ---- data phase + attacker ----------------------------------------------
  result.safety_periods = prefix.safety.periods;
  result.source_sink_distance = prefix.safety.source_sink_distance;

  eavesdropper_.activate(prefix.activation);
  simulator_.run_until(prefix.run_end);

  if (eavesdropper_.captured() &&
      *eavesdropper_.capture_time() <= prefix.safety_end) {
    result.captured = true;
    result.capture_time_s =
        sim::to_seconds(*eavesdropper_.capture_time() - prefix.activation);
  }
  result.attacker_moves = eavesdropper_.moves_made();

  // ---- metrics ------------------------------------------------------------
  const auto node_count = static_cast<double>(graph.node_count());
  result.normal_messages_per_node =
      static_cast<double>(simulator_.sent_of("NORMAL")) / node_count;
  result.control_messages_per_node =
      static_cast<double>(simulator_.sent_of("HELLO") +
                          simulator_.sent_of("DISSEM") +
                          simulator_.sent_of("SEARCH") +
                          simulator_.sent_of("CHANGE") +
                          simulator_.sent_of("BEACON")) /
      node_count;

  if (prefix.is_phantom) {
    read_delivery<phantom::PhantomRouting>(simulator_, topology, result);
  } else {
    read_delivery<das::ProtectionlessDas>(simulator_, topology, result);
  }
  result.events_executed = simulator_.events_executed();
  result.deliveries = simulator_.deliveries_executed();
  result.timer_fires = simulator_.timers_fired();
  return result;
}

void RunBatch::run_range(std::uint64_t base_seed, int first, int last,
                         RunResult* out) const {
  // One fork per call: concurrent run_range calls on the same batch (the
  // sweep slicing one cell across workers) each get their own simulator.
  Fork fork(*this);
  for (int run = first; run < last; ++run) {
    out[run - first] =
        fork.run(derive_seed(base_seed, static_cast<std::uint64_t>(run)));
  }
}

}  // namespace slpdas::core
