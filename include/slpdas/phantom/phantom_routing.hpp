// Phantom routing — the canonical ROUTING-layer SLP baseline
// (Kamat et al., ICDCS 2005; the paper's reference [4]).
//
// The paper positions MAC-level SLP against routing-level techniques
// "with typically high message overhead"; this module implements the
// representative routing technique so the comparison can actually be run
// (the `cmp_phantom` scenario). Protocol:
//
//   setup:       HELLO beacons (neighbour discovery) followed by a sink
//                BEACON flood that gives every node its hop distance.
//   data phase:  each source datum first takes a RANDOM WALK of `h` hops
//                (never immediately backtracking, biased away from the
//                sink), then the walk endpoint — the "phantom source" —
//                FLOODS the message to the whole network, reaching the
//                sink. The eavesdropper backtracks flood transmissions,
//                but they lead it to the phantom, not the real source.
//
// Data messages are labelled "NORMAL" so the same (R,H,M,s0,D) attacker
// runtime traces them unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "slpdas/sim/simulator.hpp"

namespace slpdas::phantom {

struct PhantomConfig {
  /// Source data period; kept equal to the DAS TDMA period (Table I's
  /// 5.5 s) so capture-ratio comparisons share a clock.
  sim::SimTime period = sim::from_seconds(5.5);
  int hello_periods = 3;   ///< neighbour discovery periods
  int setup_periods = 80;  ///< data phase starts here (MSP-equivalent)
  int walk_length = 10;    ///< h: random-walk hops before flooding
  /// Forwarding jitter per hop (CSMA stand-in); must be small enough that
  /// walk + flood complete within one period.
  sim::SimTime forward_delay_max = 30 * sim::kMillisecond;
};

/// Wire messages (local to this protocol).
struct PhantomHello final : sim::Message {
  static constexpr char kName[] = "HELLO";
  [[nodiscard]] const char* name() const noexcept override { return kName; }
};

struct PhantomBeacon final : sim::Message {
  static constexpr char kName[] = "BEACON";
  int hops_from_sink = 0;
  [[nodiscard]] const char* name() const noexcept override { return kName; }
};

struct PhantomData final : sim::Message {
  static constexpr char kName[] = "NORMAL";
  std::uint64_t seq = 0;
  int walk_ttl = 0;               ///< hops of random walk remaining
  bool flooding = false;          ///< true once the phantom starts the flood
  wsn::NodeId walk_target = wsn::kNoNode;  ///< addressed walker (walk phase)
  /// Name is NORMAL on purpose: this is the data traffic the eavesdropper
  /// traces, indistinguishable from any other payload (Section I:
  /// encrypted content, observable context).
  [[nodiscard]] const char* name() const noexcept override { return kName; }
};

class PhantomRouting final : public sim::Process {
 public:
  /// `shared_hello` optionally supplies the immutable HELLO payload (shared
  /// across nodes and seeds); when null the process builds its own.
  PhantomRouting(const PhantomConfig& config, wsn::NodeId sink,
                 wsn::NodeId source, sim::MessagePtr shared_hello = nullptr);

  [[nodiscard]] bool is_sink() const noexcept { return id() == sink_; }
  [[nodiscard]] bool is_source() const noexcept { return id() == source_; }
  [[nodiscard]] int hops_from_sink() const noexcept { return hops_from_sink_; }

  /// On the source: number of data messages generated.
  [[nodiscard]] std::uint64_t generated_count() const noexcept {
    return generated_;
  }
  /// On the sink: distinct sequence numbers received.
  [[nodiscard]] std::uint64_t delivered_count() const noexcept {
    return static_cast<std::uint64_t>(delivered_seqs_.size());
  }
  /// On the sink: mean end-to-end latency (seconds); 0 if none delivered.
  [[nodiscard]] double mean_delivery_latency_s() const noexcept {
    return latency_count_ == 0
               ? 0.0
               : sim::to_seconds(latency_sum_ /
                                 static_cast<sim::SimTime>(latency_count_));
  }

  void on_start() override;
  /// Period boundary (the simulator's frame clock): discovery beacons, the
  /// sink's gradient flood, one source datum per data period. Arms timers
  /// only (the frame-clock hook contract).
  void on_frame_start(std::int64_t frame) override;
  void on_timer(int timer_id) override;
  void on_message(wsn::NodeId from, const sim::Message& message) override;
  void reset_run() override;

 private:
  enum Timer : int {
    kHelloTimer = 1,
    kBeaconTimer,
    kGenerateTimer,
    kForwardTimer,
  };

  void handle_data(wsn::NodeId from, const PhantomData& message);
  void schedule_forward(PhantomData next);

  PhantomConfig config_;
  wsn::NodeId sink_;
  wsn::NodeId source_;

  int period_index_ = -1;
  std::vector<wsn::NodeId> neighbors_;  // discovery order
  /// HELLO beacons are immutable and payload-free: build one, re-broadcast
  /// it every discovery period (no per-send allocation).
  sim::MessagePtr hello_message_;
  std::map<wsn::NodeId, int> neighbor_hops_;  // from overheard beacons
  int hops_from_sink_ = -1;
  bool beacon_pending_ = false;

  std::uint64_t generated_ = 0;
  std::set<std::uint64_t> seen_seqs_;       // flood duplicate suppression
  std::set<std::uint64_t> delivered_seqs_;  // sink only
  sim::SimTime latency_sum_ = 0;
  std::uint64_t latency_count_ = 0;
  std::vector<PhantomData> outbox_;  // messages awaiting the forward timer
};

}  // namespace slpdas::phantom
