// Wire messages of the DAS / SLP-DAS protocol family (paper Figures 2-4).
//
//  * Hello   — neighbour discovery beacons (Table I: NDP periods).
//  * Dissem  — Phase 1 state dissemination <DISSEM, Normal, i, Ninfo, par>.
//  * Search  — Phase 2 node-locator <SEARCH, i, aNode, dist>.
//  * Change  — Phase 3 slot refinement <CHANGE, i, aNode, nSlot, dist>.
//  * Normal  — data-phase payload broadcast in the node's TDMA slot; the
//              messages the eavesdropper traces.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "slpdas/mac/schedule.hpp"
#include "slpdas/sim/message.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::das {

/// Per-node DAS state snapshot carried in dissemination messages: the
/// paper's Ninfo entry (hop, slot).
struct NodeInfo {
  int hop = -1;                      ///< -1 = unknown (the paper's bottom)
  mac::SlotId slot = mac::kNoSlot;

  [[nodiscard]] bool assigned() const noexcept { return slot != mac::kNoSlot; }
  [[nodiscard]] bool operator==(const NodeInfo&) const = default;
};

struct HelloMessage final : sim::Message {
  static constexpr char kName[] = "HELLO";
  [[nodiscard]] const char* name() const noexcept override { return kName; }
};

struct DissemMessage final : sim::Message {
  static constexpr char kName[] = "DISSEM";
  bool normal = true;      ///< paper's Normal flag; false = update phase
  wsn::NodeId sender = wsn::kNoNode;
  wsn::NodeId parent = wsn::kNoNode;  ///< sender's chosen parent (or kNoNode)
  /// Sender's view of itself and its 1-hop neighbours: (node, info) pairs.
  /// Receivers thereby learn (up to) their 2-hop neighbourhood.
  std::vector<std::pair<wsn::NodeId, NodeInfo>> ninfo;

  [[nodiscard]] const char* name() const noexcept override { return kName; }
};

struct SearchMessage final : sim::Message {
  static constexpr char kName[] = "SEARCH";
  wsn::NodeId sender = wsn::kNoNode;
  wsn::NodeId target = wsn::kNoNode;  ///< the paper's aNode
  int dist = 0;                       ///< hops left to travel (SD countdown)

  [[nodiscard]] const char* name() const noexcept override { return kName; }
};

struct ChangeMessage final : sim::Message {
  static constexpr char kName[] = "CHANGE";
  wsn::NodeId sender = wsn::kNoNode;
  wsn::NodeId target = wsn::kNoNode;  ///< the paper's aNode
  mac::SlotId new_slot = 0;           ///< the paper's nSlot
  int dist = 0;                       ///< decoy hops left (CL countdown)

  [[nodiscard]] const char* name() const noexcept override { return kName; }
};

struct NormalMessage final : sim::Message {
  static constexpr char kName[] = "NORMAL";
  wsn::NodeId sender = wsn::kNoNode;
  /// Highest source sequence number aggregated into this broadcast;
  /// 0 = no source data seen yet (padding traffic).
  std::uint64_t aggregated_seq = 0;

  [[nodiscard]] const char* name() const noexcept override { return kName; }
};

}  // namespace slpdas::das
