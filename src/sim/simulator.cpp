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
  simulator_->do_broadcast(id_, std::move(message));
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
  // whole network in one dissemination slot) plus one armed timer set
  // per node; staged payloads with concurrent senders.
  queue_.reserve(64 + 8 * nodes, 16 + nodes);
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

void Simulator::call_at(SimTime at, std::function<void()> action) {
  if (at < now_) {
    throw std::invalid_argument("Simulator::call_at: time in the past");
  }
  queue_.push_control(at, std::move(action));
}

void Simulator::call_after(SimTime delay, std::function<void()> action) {
  if (delay > 0 && now_ > std::numeric_limits<SimTime>::max() - delay) {
    // Unchecked, now_ + delay would wrap negative (signed overflow is UB)
    // and sail PAST the call_at past-time check as a bogus early event.
    throw std::overflow_error("Simulator::call_after: delay overflows SimTime");
  }
  call_at(now_ + delay, std::move(action));
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

const std::unordered_map<std::string, std::uint64_t>&
Simulator::sends_by_type() const {
  sends_by_type_.clear();
  for (const SendCounter& entry : send_counters_) {
    // += rather than =: two message classes are allowed to share a name
    // string with distinct pointers (e.g. the same kName text defined in
    // two translation units).
    sends_by_type_[entry.name] += entry.count;
  }
  return sends_by_type_;
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
  stopped_ = false;
  events_executed_ = 0;
  deliveries_executed_ = 0;
  timers_fired_ = 0;
  total_sent_ = 0;
  std::fill(traffic_.begin(), traffic_.end(), TrafficCounters{});
  std::fill(timer_generations_.begin(), timer_generations_.end(), 0);
  send_counters_.clear();
  sends_by_type_.clear();
  arena_.begin_run();
  radio_->reset_run();
  for (auto& process : processes_) {
    if (process) {
      process->reset_run();
    }
  }
}

void Simulator::do_broadcast(wsn::NodeId from, MessagePtr message) {
  auto& counters = traffic_[static_cast<std::size_t>(from)];
  ++counters.sent;
  ++total_sent_;
  count_send(message->name());

  for (TransmissionObserver* observer : observers_) {
    observer->on_transmission(from, *message, now_);
  }

  // One staged payload shared by every receiver; each push is one POD
  // heap entry — no per-receiver closure, no per-receiver refcount churn.
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
    for (auto& process : processes_) {
      if (process) {
        process->on_start();
      }
    }
  }
  if (stopped_ || queue_.empty() || queue_.next_time() > end) {
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
    case EventKind::kControl: {
      const EventQueue::Action action =
          queue_.take_control(event.control.callback_slot);
      action();
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
  if (!stopped_ && (queue_.empty() || queue_.next_time() > end)) {
    now_ = end;
  }
  return executed;
}

}  // namespace slpdas::sim
