// Cell-granular batched run execution with phase-prefix forking.
//
// A sweep cell executes the same configuration under N seeds. Before this
// layer existed, every (cell, run) pair was an independent task that
// re-derived everything the seed does NOT influence: the DAS/SLP/phantom
// protocol configs, the safety-period BFS over the topology, and the
// activation/upper-bound time arithmetic. RunBatch hoists all of that
// into one core::PhasePrefix per cell — computed once per
// (config, topology) and shared read-only by every seed.
//
// On top of the prefix sits the FORK: a Fork owns one Simulator (with its
// processes, attacker runtime, event-queue capacity and node-state arena)
// and replays seed after seed through Simulator::reset_run, so seed N+1
// starts from warm capacity with zero construction and, in steady state,
// zero heap allocation. Per-run outputs land in caller-provided dense
// RunResult arrays (one contiguous slot per seed), so a cell's results
// stay cache-dense no matter how its seed range was sliced across
// workers.
//
// Fork::run is the only code that executes a seed: run_range drives it
// for one slice of a cell, the sweep's execute stage drives run_range for
// every cell (run_experiment included, as a one-cell sweep).
//
// Determinism contract: Fork::run(seed) is a pure function of (config,
// topology, seed), whatever the Fork ran before — everything in the
// prefix is itself a pure function of (config, topology), and reset_run
// rewinds every per-run mutable field to its just-constructed value. A
// fresh Fork's first run is therefore the cold reference: batch_test
// pins a reused Fork (seeds reversed, interleaved and replayed) against a
// fresh Fork per seed for every registered scenario's cells, and the
// golden fingerprints pin both to the values the original cold-simulator
// path produced.
#pragma once

#include <cstdint>

#include "slpdas/attacker/runtime.hpp"
#include "slpdas/core/experiment.hpp"
#include "slpdas/core/phase_prefix.hpp"
#include "slpdas/sim/simulator.hpp"

namespace slpdas::core {

class RunBatch {
 public:
  /// Captures the phase prefix of `config` against `topology`. Both must
  /// outlive the batch and `topology` must be config.topology.build()'s
  /// result — a mismatched graph silently simulates a different
  /// experiment. Throws std::invalid_argument on an invalid source/sink.
  RunBatch(const ExperimentConfig& config, const wsn::Topology& topology);

  /// One forked execution context: a Simulator + attacker runtime built
  /// once from the batch's phase prefix, then reset (not reconstructed)
  /// between seeds. NOT thread-safe — each worker builds its own Fork
  /// over the shared immutable batch; any number of Forks may run
  /// concurrently.
  class Fork {
   public:
    explicit Fork(const RunBatch& batch);

    /// Executes one seeded run from the warm prefix snapshot: drives the
    /// simulator through setup, activation and the data phase, and
    /// extracts the RunResult. Bit-identical to a fresh Fork's run(seed),
    /// in any seed order.
    [[nodiscard]] RunResult run(std::uint64_t seed);

   private:
    const RunBatch& batch_;
    sim::Simulator simulator_;
    attacker::AttackerRuntime eavesdropper_;
  };

  /// Executes run indices [first, last) back-to-back through one local
  /// Fork, seeding run i with derive_seed(base_seed, i) and writing run
  /// i's result to out[i - first]. `out` must have room for last - first
  /// results. Thread-safe: the Fork is local to the call, so concurrent
  /// run_range calls on one batch (the sweep slicing a cell across
  /// workers) never share mutable state.
  void run_range(std::uint64_t base_seed, int first, int last,
                 RunResult* out) const;

 private:
  const ExperimentConfig& config_;
  const wsn::Topology& topology_;
  PhasePrefix prefix_;
};

}  // namespace slpdas::core
