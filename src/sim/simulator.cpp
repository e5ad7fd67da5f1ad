#include "slpdas/sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace slpdas::sim {

// ---------------------------------------------------------------- Process

void Process::broadcast(MessagePtr message) {
  if (simulator_ == nullptr) {
    throw std::logic_error("Process::broadcast before registration");
  }
  if (!message) {
    throw std::invalid_argument("Process::broadcast: null message");
  }
  if (simulator_->in_tick_) {
    throw std::logic_error(
        "Process::broadcast: frame-clock hooks must not broadcast");
  }
  simulator_->do_broadcast(id_, std::move(message));
}

void Process::join_frame_clock(SimTime period, SimTime window) {
  if (simulator_ == nullptr) {
    throw std::logic_error("Process::join_frame_clock before registration");
  }
  simulator_->join_frame_clock(*this, period, window);
}

SimTime Process::now() const { return simulator_->now(); }

Rng& Process::rng() { return simulator_->rng(); }

const wsn::Graph& Process::graph() const { return simulator_->graph(); }

void Process::reset_run() {
  throw std::logic_error(
      "Process::reset_run: this process type has not declared its "
      "seed-independent state and cannot be forked between seeds");
}

// -------------------------------------------------------------- Simulator

Simulator::Simulator(const wsn::Graph& graph, std::unique_ptr<RadioModel> radio,
                     std::uint64_t seed)
    : graph_(graph), radio_(std::move(radio)), rng_(seed) {
  if (!radio_) {
    throw std::invalid_argument("Simulator: null radio model");
  }
  const auto nodes = static_cast<std::size_t>(graph.node_count());
  processes_.resize(nodes);
  traffic_.resize(nodes);
  // One flat generation table sized for every timer id the shipped
  // protocols use, so arming a timer mid-run never grows anything.
  timer_generations_.assign(nodes * timer_stride_, 0);
  // Virtual-dispatch bypass for the default noise model (see
  // radio_delivered): resolved once here, never changes afterwards.
  casino_ = dynamic_cast<CasinoLabNoise*>(radio_.get());
  // Pre-size the event queue for this topology's steady state: pending
  // events scale with in-flight broadcasts (≈ degree per sender, the
  // whole network in one dissemination slot) plus the one or two timers a
  // node keeps armed within a frame (frame boundaries are clock ticks, not
  // queued); staged payloads with concurrent senders. The budget has
  // headroom over that occupancy and is kept as is: it sets the queue's
  // memory footprint, which the peak-RSS measurements track.
  queue_.reserve(64 + 8 * nodes, 16 + nodes);
  frame_members_.reserve(nodes);
  send_counters_.reserve(8);
}

void Simulator::add_process(wsn::NodeId node, std::unique_ptr<Process> process) {
  if (!graph_.contains(node)) {
    throw std::out_of_range("Simulator::add_process: node out of range");
  }
  if (!process) {
    throw std::invalid_argument("Simulator::add_process: null process");
  }
  auto& slot = processes_[static_cast<std::size_t>(node)];
  if (slot) {
    throw std::logic_error("Simulator::add_process: node already has a process");
  }
  process->simulator_ = this;
  process->id_ = node;
  slot = std::move(process);
}

void Simulator::add_observer(TransmissionObserver* observer) {
  if (observer == nullptr) {
    throw std::invalid_argument("Simulator::add_observer: null observer");
  }
  observers_.push_back(observer);
}

void Simulator::grow_timer_table(int timer_id) {
  const std::size_t new_stride =
      std::bit_ceil(static_cast<std::size_t>(timer_id) + 1);
  const std::size_t nodes = timer_generations_.size() / timer_stride_;
  std::vector<std::uint64_t> wider(nodes * new_stride, 0);
  for (std::size_t node = 0; node < nodes; ++node) {
    for (std::size_t id = 0; id < timer_stride_; ++id) {
      wider[node * new_stride + id] =
          timer_generations_[node * timer_stride_ + id];
    }
  }
  timer_generations_ = std::move(wider);
  timer_stride_ = new_stride;
}

void Simulator::join_frame_clock(Process& process, SimTime period,
                                 SimTime window) {
  if (!starting_) {
    throw std::logic_error(
        "Process::join_frame_clock: join from on_start only");
  }
  if (period <= 0 || window < 0 || window >= period) {
    throw std::invalid_argument(
        "Process::join_frame_clock: need 0 < period and 0 <= window < "
        "period");
  }
  if (frame_period_ == 0) {
    frame_period_ = period;
    frame_window_ = window;
  } else if (period != frame_period_ || window != frame_window_) {
    throw std::invalid_argument(
        "Process::join_frame_clock: geometry conflicts with the frame clock "
        "other processes joined");
  }
  // on_start runs in node order, so appending keeps node-id order; a
  // process joining twice is already the last member.
  if (frame_members_.empty() || frame_members_.back() != &process) {
    frame_members_.push_back(&process);
  }
}

void Simulator::run_frame_tick() {
  now_ = next_tick_;
  in_tick_ = true;
  if (window_end_next_) {
    for (Process* process : frame_members_) {
      process->on_window_end();
    }
    window_end_next_ = false;
  } else {
    for (Process* process : frame_members_) {
      process->on_frame_start(frame_index_);
    }
    window_end_next_ = frame_window_ > 0;
  }
  in_tick_ = false;
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  if (window_end_next_) {
    if (now_ > kMax - frame_window_) {
      throw std::overflow_error("Simulator: frame clock overflows SimTime");
    }
    next_tick_ = now_ + frame_window_;
    return;
  }
  if (frame_index_ + 1 > kMax / frame_period_) {
    throw std::overflow_error("Simulator: frame clock overflows SimTime");
  }
  ++frame_index_;
  next_tick_ = frame_index_ * frame_period_;
}

void Simulator::set_propagation_delay(SimTime delay) {
  if (delay < 0) {
    throw std::invalid_argument("Simulator: negative propagation delay");
  }
  propagation_delay_ = delay;
}

Process& Simulator::process(wsn::NodeId node) {
  if (!graph_.contains(node) || !processes_[static_cast<std::size_t>(node)]) {
    throw std::out_of_range("Simulator::process: no process for node");
  }
  return *processes_[static_cast<std::size_t>(node)];
}

const Process& Simulator::process(wsn::NodeId node) const {
  if (!graph_.contains(node) || !processes_[static_cast<std::size_t>(node)]) {
    throw std::out_of_range("Simulator::process: no process for node");
  }
  return *processes_[static_cast<std::size_t>(node)];
}

const TrafficCounters& Simulator::traffic(wsn::NodeId node) const {
  if (!graph_.contains(node)) {
    throw std::out_of_range("Simulator::traffic: node out of range");
  }
  return traffic_[static_cast<std::size_t>(node)];
}

void Simulator::count_send(const char* name) {
  for (SendCounter& entry : send_counters_) {
    if (entry.name == name) {
      ++entry.count;
      return;
    }
  }
  send_counters_.push_back(SendCounter{name, 1});
}

std::uint64_t Simulator::sent_of(const char* name) const noexcept {
  std::uint64_t total = 0;
  for (const SendCounter& entry : send_counters_) {
    // Pointer identity first (the common case: one static kName per
    // class), text compare as the fallback for duplicated name strings.
    if (entry.name == name || std::strcmp(entry.name, name) == 0) {
      total += entry.count;
    }
  }
  return total;
}

void Simulator::reset_run(std::uint64_t seed) {
  queue_.reset_run();
  rng_.reseed(seed);
  now_ = 0;
  started_ = false;
  starting_ = false;
  stopped_ = false;
  frame_period_ = 0;
  frame_window_ = 0;
  frame_members_.clear();
  frame_index_ = 0;
  next_tick_ = 0;
  window_end_next_ = false;
  in_tick_ = false;
  events_executed_ = 0;
  deliveries_executed_ = 0;
  timers_fired_ = 0;
  total_sent_ = 0;
  std::fill(traffic_.begin(), traffic_.end(), TrafficCounters{});
  std::fill(timer_generations_.begin(), timer_generations_.end(), 0);
  send_counters_.clear();
  arena_.begin_run();
  radio_->reset_run();
  for (auto& process : processes_) {
    if (process) {
      process->reset_run();
    }
  }
}

void Simulator::do_broadcast(wsn::NodeId from, MessagePtr message) {
  if (now_ > std::numeric_limits<SimTime>::max() - propagation_delay_) {
    // Unchecked, now_ + propagation_delay_ would wrap SimTime (signed
    // overflow is UB) into deliveries scheduled in the past.
    throw std::overflow_error("Process::broadcast: arrival overflows SimTime");
  }
  auto& counters = traffic_[static_cast<std::size_t>(from)];
  ++counters.sent;
  ++total_sent_;
  count_send(message->name());

  for (TransmissionObserver* observer : observers_) {
    observer->on_transmission(from, *message, now_);
  }

  // One staged payload shared by every receiver; each push is one POD
  // queue entry — no per-receiver closure, no per-receiver refcount churn.
  // The slot is staged lazily so an all-lost broadcast stages nothing,
  // and radio decisions stay in neighbour order (the rng draw order the
  // determinism contract pins).
  const SimTime arrival = now_ + propagation_delay_;
  std::uint32_t slot = EventQueue::kNoSlot;
  for (wsn::NodeId to : graph_.neighbors(from)) {
    if (!radio_delivered(from, to, now_)) {
      continue;
    }
    if (slot == EventQueue::kNoSlot) {
      slot = queue_.stage_message(std::move(message));
    }
    queue_.push_delivery(arrival, from, to, slot);
  }
}

bool Simulator::step(SimTime end) {
  if (!started_) {
    started_ = true;
    starting_ = true;
    for (auto& process : processes_) {
      if (process) {
        process->on_start();
      }
    }
    starting_ = false;
  }
  if (stopped_) {
    return false;
  }
  if (frame_period_ > 0 &&
      (queue_.empty() || next_tick_ <= queue_.next_time())) {
    // The tick is first at its instant. Protocols arm timers less than
    // one frame ahead, so everything queued for T_k was armed after the
    // T_{k-1} tick, and tick-first is the order a per-node boundary timer
    // armed at T_{k-1} would have had.
    if (next_tick_ > end) {
      return false;
    }
    run_frame_tick();
    ++events_executed_;
    return true;
  }
  if (queue_.empty() || queue_.next_time() > end) {
    return false;
  }
  const Event event = queue_.pop(now_);
  switch (event.kind()) {
    case EventKind::kDelivery: {
      const auto to = static_cast<std::size_t>(event.delivery.to);
      ++traffic_[to].received;
      if (auto& receiver = processes_[to]) {
        receiver->on_message(event.delivery.from,
                             queue_.message(event.delivery.message_slot));
      }
      queue_.release_message(event.delivery.message_slot);
      ++deliveries_executed_;
      break;
    }
    case EventKind::kTimer: {
      const auto timer_id = static_cast<std::size_t>(event.timer.timer_id);
      // A stale generation means the timer was re-armed or cancelled after
      // this expiry was pushed: skip it. It still counts as an executed
      // event (exactly as the old closure-based no-op expiry did). An
      // armed timer's id is always < timer_stride_ (arm_timer grows the
      // table first), so the indexed load needs no bounds check.
      if (timer_generations_[static_cast<std::size_t>(event.timer.node) *
                                 timer_stride_ +
                             timer_id] == event.timer.generation) {
        ++timers_fired_;
        processes_[static_cast<std::size_t>(event.timer.node)]->on_timer(
            event.timer.timer_id);
      }
      break;
    }
  }
  ++events_executed_;
  return true;
}

std::uint64_t Simulator::run_until(SimTime end) {
  std::uint64_t executed = 0;
  while (step(end)) {
    ++executed;
  }
  // Unless stopped, step() returned false because nothing is due by `end`.
  if (!stopped_) {
    now_ = end;
  }
  return executed;
}

}  // namespace slpdas::sim
