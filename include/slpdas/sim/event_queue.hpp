// Deterministic, typed discrete-event queue.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), so a run is a pure function of
// the seed and configuration — the property TOSSIM does not give and the
// main reason we built our own simulator (DESIGN.md section 2).
//
// Events are a tagged value type rather than std::function closures, so
// the hot path — message delivery and timer expiry, millions of events
// per experiment — executes with zero per-event heap allocation:
//
//   * Delivery{from, to, message_slot}: one broadcast stages its shared
//     Message once in a slot table and pushes one POD entry per receiver;
//     the slot's reference count frees the payload after the last
//     delivery executes (so a broadcast costs one shared_ptr copy total,
//     not one per receiver).
//   * Timer{node, timer_id, generation}: armed timers carry the arming
//     generation; the simulator compares it against its dense per-node
//     generation table at pop time, so cancelling or re-arming a timer
//     never allocates and a stale expiry is skipped for free.
//
// Ordering structure: a calendar queue. The simulator's event mix is
// dominated by short horizons (propagation delay ~1 ms, slot period
// 50 ms), so events are binned by time into fixed-width buckets
// (kBucketWidth = 4096 µs, one arithmetic shift) and only the bucket
// currently being drained is kept ordered:
//
//   * `near_` — the active bucket's events, sorted ascending by
//     (timestamp, sequence); pops read the next entry through a
//     consumed-prefix cursor, O(1). A push into the active bucket at or
//     past the window's tail (the overwhelmingly common case: arrival =
//     now + propagation delay) appends in O(1).
//   * `late_` — a small 4-ary min-heap for the remaining active-bucket
//     pushes, the ones that land behind the window's tail. pop and
//     next_time take the smaller of the window head and the heap top, so
//     an out-of-order push costs O(log k) in the few events it competes
//     with instead of a tail shift. Each late event is earlier than the
//     window's tail, so the heap always drains before the window does.
//   * `buckets_` — a power-of-two circular array of kNumBuckets unsorted
//     bins covering the next kNumBuckets * kBucketWidth ≈ 4.2 s of
//     simulated time past the active bucket; push is an O(1) append plus
//     one occupancy-bitmap bit. When the window drains, the bitmap is
//     scanned (16 words) for the next occupied bin, which is copied into
//     `near_` and sorted once — O(k log k) amortised over its k events.
//   * `far_` — the unsorted overflow for events beyond the bucket
//     horizon. When the calendar runs dry the earliest far bucket becomes
//     the new active window and `far_` is re-partitioned in one pass.
//
// Every key (timestamp, sequence) is unique and all three levels emit
// them in strictly ascending order, so the pop order is that of any
// exact priority queue and golden document fingerprints do not move.
//
// The far list assumes horizons of at most a few calendar revolutions:
// every timer the protocols arm lies within one source period (5.5 s) of
// `now`, so a far event is rescanned at most a couple of times. A
// workload that only the raw API can build — thousands of pending events
// each a revolution apart — rescans the whole far list once per pop and
// goes quadratic. No scenario produces it, and the queue has no fallback
// for it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "slpdas/sim/message.hpp"
#include "slpdas/sim/time.hpp"
#include "slpdas/wsn/graph.hpp"

namespace slpdas::sim {

enum class EventKind : std::uint8_t { kDelivery, kTimer };

/// One radio reception: `to` receives the broadcast `from` sent. The
/// shared payload lives in the queue's message slot table.
struct DeliveryEvent {
  wsn::NodeId from;
  wsn::NodeId to;
  std::uint32_t message_slot;
};

/// One armed timer expiry. Fires only if the owner's generation for this
/// timer id still equals `generation` when the event pops (the Simulator
/// performs that check); re-arming or cancelling bumps the generation and
/// thereby invalidates every pending expiry.
struct TimerEvent {
  wsn::NodeId node;
  std::int32_t timer_id;
  std::uint64_t generation;
};

/// A queued event. Trivially copyable by design: bucket refills and heap
/// sifts are memcpy-grade moves, and pop hands the entry back by value.
/// The sequence number and kind tag share one word (kind in the low bit),
/// so the tie-break comparison is a single integer compare and the whole
/// entry is 32 bytes.
struct Event {
  SimTime at = 0;
  std::uint64_t seq_kind = 0;  ///< (insertion sequence << 1) | kind
  union {
    DeliveryEvent delivery;
    TimerEvent timer;
  };

  [[nodiscard]] EventKind kind() const noexcept {
    return static_cast<EventKind>(seq_kind & 1u);
  }
  [[nodiscard]] std::uint64_t sequence() const noexcept {
    return seq_kind >> 1;
  }
};

class EventQueue {
 public:
  /// "No slot" sentinel for the message slot table.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// log2 of the bucket width in SimTime ticks (microseconds): 4096 µs.
  /// A few propagation delays wide, so a broadcast's receptions usually
  /// land in the active bucket (an O(1) append at the sorted window's
  /// tail) and window refills stay rare; measured fastest on perf_sim
  /// against 1024/2048/8192/16384 µs alternatives.
  static constexpr int kBucketShift = 12;
  /// Number of calendar bins (power of two); the calendar spans
  /// kNumBuckets << kBucketShift ≈ 4.2 s past the active bucket.
  static constexpr std::size_t kNumBuckets = 1024;

  /// Pre-sizes internal storage for a simulation expected to keep up to
  /// `pending_events` events in flight with up to `staged_messages`
  /// concurrently staged broadcast payloads, so steady-state operation
  /// reaches its high-water capacity up front instead of reallocating
  /// mid-run. Callable any time; never shrinks.
  void reserve(std::size_t pending_events, std::size_t staged_messages) {
    near_.reserve(pending_events);
    late_.reserve(pending_events);
    far_.reserve(pending_events);
    // Every bin gets a floor capacity: the periodic-timer trickle that
    // cycles through all bins each calendar revolution then never
    // triggers a first-touch allocation. Burst bins (whole-network slot
    // broadcasts) grow once to their own high water and stay.
    const std::size_t per_bucket =
        std::max<std::size_t>(8, pending_events / 64);
    for (auto& bucket : buckets_) {
      bucket.reserve(per_bucket);
    }
    messages_.reserve(staged_messages);
    free_messages_.reserve(staged_messages);
  }

  // -- staging shared payloads ----------------------------------------------

  /// Stages a broadcast payload in the slot table with zero references and
  /// returns its slot. Each push_delivery for the slot adds a reference;
  /// each release_message drops one, and the last drop frees the slot. A
  /// staged slot with no deliveries pushed stays live until reset_run()
  /// frees it — callers avoid even that by staging lazily, on the first
  /// delivered receiver.
  [[nodiscard]] std::uint32_t stage_message(MessagePtr message) {
    if (!message) {
      throw std::invalid_argument("EventQueue::stage_message: null message");
    }
    std::uint32_t slot;
    if (free_messages_.empty()) {
      slot = static_cast<std::uint32_t>(messages_.size());
      messages_.emplace_back();
    } else {
      slot = free_messages_.back();
      free_messages_.pop_back();
    }
    messages_[slot].message = std::move(message);
    messages_[slot].references = 0;
    return slot;
  }

  /// The staged payload of `slot`. The reference stays valid across queue
  /// mutations (the Message object itself never moves), for the duration
  /// of the delivery being executed.
  [[nodiscard]] const Message& message(std::uint32_t slot) const {
    return *messages_[slot].message;
  }

  /// Drops one reference from `slot`; the last drop releases the payload
  /// and recycles the slot. Call once per popped delivery, after the
  /// receiver ran.
  void release_message(std::uint32_t slot) {
    MessageSlot& staged = messages_[slot];
    if (--staged.references == 0) {
      staged.message.reset();
      free_messages_.push_back(slot);
    }
  }

  /// Number of staged messages still referenced by queued or in-flight
  /// deliveries (observability for tests).
  [[nodiscard]] std::size_t staged_message_count() const noexcept {
    return messages_.size() - free_messages_.size();
  }

  // -- pushing --------------------------------------------------------------

  /// Enqueues one reception of the payload staged in `message_slot`.
  /// `at` may equal the current head time but must never be in the past
  /// relative to the last popped event; the Simulator enforces that
  /// invariant (here and for timers).
  void push_delivery(SimTime at, wsn::NodeId from, wsn::NodeId to,
                     std::uint32_t message_slot) {
    ++messages_[message_slot].references;
    Event event;
    event.at = at;
    event.seq_kind = next_seq_kind(EventKind::kDelivery);
    event.delivery = DeliveryEvent{from, to, message_slot};
    push_event(event);
  }

  /// Enqueues a timer expiry carrying its arming generation.
  void push_timer(SimTime at, wsn::NodeId node, std::int32_t timer_id,
                  std::uint64_t generation) {
    Event event;
    event.at = at;
    event.seq_kind = next_seq_kind(EventKind::kTimer);
    event.timer = TimerEvent{node, timer_id, generation};
    push_event(event);
  }

  // -- popping --------------------------------------------------------------

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Timestamp of the next event; undefined when empty. O(1): refill()
  /// re-establishes a non-empty window after every pop that drains it,
  /// so the head is always materialised.
  [[nodiscard]] SimTime next_time() const {
    if (late_.empty()) {
      return near_[near_pos_].at;
    }
    return std::min(near_[near_pos_].at, late_.front().at);
  }

  /// Removes and returns the next event by value, advancing `now` to its
  /// timestamp. Delivery events still hold their message reference (the
  /// caller releases it after dispatch).
  [[nodiscard]] Event pop(SimTime& now) {
    --size_;
    Event top;
    if (late_.empty() || priority(near_[near_pos_]) < priority(late_.front())) {
      top = near_[near_pos_++];
    } else {
      top = pop_late();
    }
    now = top.at;
    if (near_pos_ == near_.size() && size_ != 0) {
      refill();
    }
    return top;
  }

  /// Rewinds the queue to its just-constructed state while RETAINING every
  /// capacity a previous run grew (calendar bins, the sorted window, the
  /// late heap, the payload slot tables): pending events and every staged
  /// payload are dropped, but nothing is shrunk, so the next run reaches
  /// its steady state with zero allocations. The sequence counter and the
  /// calendar anchor restart from zero. This is what makes a forked run
  /// bit-identical to a cold-constructed one.
  void reset_run() {
    for (auto& bucket : buckets_) {
      bucket.clear();
    }
    near_.clear();
    near_pos_ = 0;
    late_.clear();
    far_.clear();
    occupancy_.fill(0);
    // Destroys every payload still staged, including ones whose
    // deliveries were still queued.
    messages_.clear();
    free_messages_.clear();
    size_ = 0;
    next_sequence_ = 0;
    active_bucket_ = 0;
    far_boundary_ = static_cast<std::int64_t>(kNumBuckets);
  }

 private:
  struct MessageSlot {
    MessagePtr message;
    std::uint32_t references = 0;
  };

  static constexpr std::size_t kBucketMask = kNumBuckets - 1;
  static_assert((kNumBuckets & kBucketMask) == 0, "power of two");
  static_assert(kNumBuckets % 64 == 0, "bitmap words cover whole buckets");

  /// Total priority of an event as one 128-bit integer: timestamp in the
  /// high word (timestamps are never negative), insertion sequence in the
  /// low word. One branchless compare instead of a two-level branch —
  /// the comparison loops run on data-dependent values, so avoiding the
  /// mispredictions is worth more than the wide arithmetic costs.
  [[nodiscard]] static unsigned __int128 priority(const Event& event) noexcept {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(event.at))
            << 64) |
           event.seq_kind;
  }

  [[nodiscard]] std::uint64_t next_seq_kind(EventKind kind) noexcept {
    return (next_sequence_++ << 1) | static_cast<std::uint64_t>(kind);
  }

  [[nodiscard]] static std::int64_t bucket_of(SimTime at) noexcept {
    return static_cast<std::int64_t>(at) >> kBucketShift;
  }

  /// Routes one new event into whichever level owns its timestamp.
  void push_event(const Event& event) {
    ++size_;
    if (size_ == 1) {
      // Empty queue: re-anchor the calendar on this event. The bins are
      // all empty, so moving the window wholesale is free and keeps the
      // common run-up (first push after a drain) an O(1) append.
      active_bucket_ = bucket_of(event.at);
      far_boundary_ = active_bucket_ + static_cast<std::int64_t>(kNumBuckets);
      near_.clear();
      near_pos_ = 0;
      near_.push_back(event);
      return;
    }
    const std::int64_t bucket = bucket_of(event.at);
    if (bucket <= active_bucket_) {
      // A non-empty queue always has a non-empty window (possibly fully
      // consumed). The new sequence number is the largest yet, so a
      // timestamp at or past the tail's keeps the window sorted.
      if (event.at >= near_.back().at) {
        near_.push_back(event);
      } else {
        push_late(event);
      }
      return;
    }
    if (bucket < far_boundary_) {
      const auto slot = static_cast<std::size_t>(bucket) & kBucketMask;
      buckets_[slot].push_back(event);
      occupancy_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      return;
    }
    far_.push_back(event);
  }

  /// Re-establishes the sorted window once it drains (the late heap has
  /// then drained too): advance to the next occupied bin, or re-anchor the
  /// calendar on the earliest far event when a whole revolution is empty.
  void refill() {
    near_.clear();
    near_pos_ = 0;
    const std::int64_t next = find_next_occupied();
    if (next >= 0) {
      active_bucket_ = next;
      const auto slot = static_cast<std::size_t>(next) & kBucketMask;
      auto& bucket = buckets_[slot];
      near_.assign(bucket.begin(), bucket.end());
      bucket.clear();  // keeps its capacity for the next revolution
      occupancy_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
      sort_near();
      return;
    }
    // Calendar empty: every pending event sits in far_.
    std::int64_t earliest = bucket_of(far_.front().at);
    for (const Event& event : far_) {
      earliest = std::min(earliest, bucket_of(event.at));
    }
    active_bucket_ = earliest;
    far_boundary_ = earliest + static_cast<std::int64_t>(kNumBuckets);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
      const Event event = far_[i];
      const std::int64_t bucket = bucket_of(event.at);
      if (bucket == active_bucket_) {
        near_.push_back(event);
      } else if (bucket < far_boundary_) {
        const auto slot = static_cast<std::size_t>(bucket) & kBucketMask;
        buckets_[slot].push_back(event);
        occupancy_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      } else {
        far_[keep++] = event;
      }
    }
    far_.resize(keep);
    sort_near();
  }

  void sort_near() {
    std::sort(near_.begin(), near_.end(), [](const Event& a, const Event& b) {
      return priority(a) < priority(b);
    });
  }

  /// First occupied bin strictly past the active bucket, or -1 when the
  /// calendar is empty. Bin slots alias absolute buckets modulo
  /// kNumBuckets, and occupied buckets all lie in (active, far_boundary)
  /// — a window shorter than one revolution — so within the scan range
  /// each set bit identifies its absolute bucket uniquely.
  [[nodiscard]] std::int64_t find_next_occupied() const noexcept {
    std::int64_t bucket = active_bucket_ + 1;
    while (bucket < far_boundary_) {
      const auto slot = static_cast<std::size_t>(bucket) & kBucketMask;
      const std::uint64_t word = occupancy_[slot >> 6] >> (slot & 63);
      if (word != 0) {
        const std::int64_t found = bucket + std::countr_zero(word);
        return found < far_boundary_ ? found : -1;
      }
      bucket += 64 - static_cast<std::int64_t>(slot & 63);
    }
    return -1;
  }

  /// 4-ary sift-up insertion into the late heap (hole-based: one copy per
  /// level, not a swap).
  void push_late(const Event& event) {
    const unsigned __int128 key = priority(event);
    std::size_t hole = late_.size();
    late_.push_back(event);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> 2;
      if (priority(late_[parent]) < key) {
        break;
      }
      late_[hole] = late_[parent];
      hole = parent;
    }
    late_[hole] = event;
  }

  /// Removes the late heap's minimum: the former tail sifts down from the
  /// root, the min-of-four-children selection on branchless 128-bit keys.
  [[nodiscard]] Event pop_late() {
    const Event top = late_.front();
    const Event tail = late_.back();
    late_.pop_back();
    const std::size_t size = late_.size();
    if (size == 0) {
      return top;
    }
    const unsigned __int128 tail_key = priority(tail);
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first_child = (hole << 2) + 1;
      if (first_child >= size) {
        break;
      }
      std::size_t best = first_child;
      unsigned __int128 best_key = priority(late_[first_child]);
      const std::size_t end_child = std::min(first_child + 4, size);
      for (std::size_t child = first_child + 1; child < end_child; ++child) {
        const unsigned __int128 key = priority(late_[child]);
        const bool earlier = key < best_key;
        best = earlier ? child : best;
        best_key = earlier ? key : best_key;
      }
      if (tail_key < best_key) {
        break;
      }
      late_[hole] = late_[best];
      hole = best;
    }
    late_[hole] = tail;
    return top;
  }

  std::size_t size_ = 0;
  std::uint64_t next_sequence_ = 0;

  // `near_` is sorted ascending with a consumed prefix [0, near_pos_);
  // together with `late_` it holds every pending event in a bucket <=
  // active. Every late event was pushed behind the window's tail, and the
  // tail only grows, so the window never drains before the heap does. `buckets_` hold unsorted events in (active, far_boundary);
  // `far_` everything at or past far_boundary_. far_boundary_ -
  // active_bucket_ never exceeds kNumBuckets, so a bin aliases at most
  // one live bucket.
  std::vector<Event> near_;
  std::size_t near_pos_ = 0;
  std::vector<Event> late_;
  std::array<std::vector<Event>, kNumBuckets> buckets_;
  std::array<std::uint64_t, kNumBuckets / 64> occupancy_{};
  std::vector<Event> far_;
  std::int64_t active_bucket_ = 0;
  std::int64_t far_boundary_ = static_cast<std::int64_t>(kNumBuckets);

  // Payload slot table.
  std::vector<MessageSlot> messages_;
  std::vector<std::uint32_t> free_messages_;
};

}  // namespace slpdas::sim
