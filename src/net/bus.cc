#include "net/bus.h"

#include "util/log.h"

namespace simba::net {

MessageBus::MessageBus(sim::Simulator& sim)
    : sim_(sim), rng_(sim.make_rng("net.bus")) {
  intern("");  // Address{}: the empty name, never attached
}

Address MessageBus::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto address = static_cast<Address>(endpoints_.size());
  endpoints_.push_back(Endpoint{std::string(name), nullptr});
  ids_.emplace(name, address);
  return address;
}

void MessageBus::attach(Address address, Handler handler) {
  Endpoint& endpoint = endpoints_[index(address)];
  endpoint.handler = std::move(handler);
  endpoint.state = Endpoint::State::kAttached;
}

void MessageBus::detach(Address address) {
  Endpoint& endpoint = endpoints_[index(address)];
  if (endpoint.state != Endpoint::State::kAttached) return;
  endpoint.handler = nullptr;
  endpoint.state = Endpoint::State::kDetached;
}

void MessageBus::set_link(std::string_view from, std::string_view to,
                          LinkModel model) {
  links_[pair_key(intern(from), intern(to))] = model;
}

void MessageBus::partition(std::string_view a, std::string_view b) {
  partitions_[unordered_key(intern(a), intern(b))]++;
}

void MessageBus::heal(std::string_view a, std::string_view b) {
  const auto it = partitions_.find(unordered_key(intern(a), intern(b)));
  if (it == partitions_.end()) {
    // Never partitioned (or already fully healed): a no-op, so the
    // nesting count cannot underflow into a permanently-severed link.
    stats_.bump("heal.unmatched");
    return;
  }
  if (--it->second <= 0) partitions_.erase(it);
}

void MessageBus::set_chaos(const sim::NetChaosConfig& config, Rng rng) {
  chaos_ = config;
  chaos_rng_.emplace(std::move(rng));
}

std::string MessageBus::trace_id(const Message& message) const {
  // Mirrors the core wire headers (core/alert.cc "alert_id",
  // core/delivery_engine.h wire::kAckFor). The bus sits below core in
  // the layering DAG, so the keys are repeated here rather than
  // included; both ends are pinned by the golden-trace tests.
  auto it = message.headers.find("alert_id");
  if (it == message.headers.end()) it = message.headers.find("simba_ack_for");
  return it == message.headers.end() ? std::string() : it->second;
}

void MessageBus::trace_event(const Message& message, const char* stage,
                             std::string detail) {
  if (trace_ == nullptr) return;
  // Only alert-correlated traffic: logins, pings, and presence would
  // drown the lifecycle trace (and the golden files) in keepalive
  // noise.
  std::string id = trace_id(message);
  if (id.empty()) return;
  trace_->emit(std::move(id), "bus", stage, sim_.now(), std::move(detail));
}

const LinkModel& MessageBus::link_for(Address from, Address to) const {
  if (links_.empty()) return default_link_;
  const auto it = links_.find(pair_key(from, to));
  return it == links_.end() ? default_link_ : it->second;
}

const char* MessageBus::deliver_label(const char* type) {
  for (const auto& [known, label] : deliver_labels_) {
    if (known == type) return label;
  }
  const char* label =
      label_interner_.intern(std::string("net.deliver:") + type);
  deliver_labels_.emplace_back(type, label);
  return label;
}

std::uint64_t MessageBus::send(Message&& message) {
  message.id = next_id_++;
  message.sent_at = sim_.now();
  stats_.bump("sent");
  if (traced(message)) {
    trace_event(message, "send",
                std::string(message.type) + " " + route(message));
  }

  if (partitioned(message.from, message.to)) {
    stats_.bump("dropped.partition");
    trace_event(message, "drop", "partition");
    SIMBA_LOG_DEBUG("net", "partition drop " + route(message));
    return message.id;
  }
  if (pending_bound_ != 0 && pending() >= pending_bound_) {
    // Transport queue full: the message is shed before transmission,
    // with explicit accounting. Not terminal for an alert — the sender
    // side sees no ack and falls back, exactly as for a loss.
    stats_.bump("pending.shed");
    trace_event(message, "shed", "pending bound");
    SIMBA_LOG_DEBUG("net", "pending-bound shed " + route(message));
    return message.id;
  }
  const LinkModel& link = link_for(message.from, message.to);
  if (rng_.chance(link.loss_probability)) {
    stats_.bump("dropped.loss");
    trace_event(message, "drop", "loss");
    SIMBA_LOG_DEBUG("net", "loss drop " + route(message));
    return message.id;
  }
  Duration latency = link.sample_latency(rng_);
  const std::uint64_t id = message.id;

  // Chaos message faults (sim/chaos.h). All dice roll on the dedicated
  // chaos stream, in a fixed order, so a chaos world's benign stream
  // stays aligned with its control's.
  bool late_loss = false;
  if (chaos_rng_ && chaos_.any()) {
    const TimePoint now = sim_.now();
    if (chaos_.delay_spike.active_at(now) &&
        chaos_rng_->chance(chaos_.delay_spike.probability)) {
      latency += chaos_rng_->lognormal_duration(chaos_.delay_spike.magnitude,
                                                chaos_.delay_spike.sigma);
      stats_.bump("chaos.delay_spike");
      if (tracing()) trace_event(message, "delay_spike", message.type);
    }
    if (chaos_.reorder.active_at(now) &&
        chaos_rng_->chance(chaos_.reorder.probability)) {
      // Reordering via delay: holding this message back lets later
      // sends on the link overtake it.
      latency += chaos_rng_->uniform_duration(Duration::zero(),
                                              chaos_.reorder.magnitude);
      stats_.bump("chaos.reorder");
      if (tracing()) trace_event(message, "reorder", message.type);
    }
    if (chaos_.late_loss.active_at(now) &&
        chaos_rng_->chance(chaos_.late_loss.probability)) {
      late_loss = true;  // dies at arrival time, not now
    }
    if (chaos_.duplicate.active_at(now) &&
        chaos_rng_->chance(chaos_.duplicate.probability)) {
      // At-least-once transport: a second arrival of the same message
      // (same id) with its own independently-sampled latency.
      stats_.bump("chaos.duplicate");
      if (tracing()) trace_event(message, "duplicate", message.type);
      schedule_delivery(Message(message), link.sample_latency(*chaos_rng_),
                        /*chaos_late_loss=*/false);
    }
  }
  schedule_delivery(std::move(message), latency, late_loss);
  return id;
}

std::uint32_t MessageBus::acquire_inflight(Message&& message) {
  if (!inflight_free_.empty()) {
    const std::uint32_t slot = inflight_free_.back();
    inflight_free_.pop_back();
    inflight_pool_[slot] = std::move(message);
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(inflight_pool_.size());
  inflight_pool_.push_back(std::move(message));
  return slot;
}

void MessageBus::recycle_inflight(std::uint32_t slot) {
  // Drop references to the payload now rather than at reuse time, so
  // a quiet link is not pinning its last message's body.
  Message& message = inflight_pool_[slot];
  message.body.clear();
  message.headers.clear();
  inflight_free_.push_back(slot);
}

void MessageBus::schedule_delivery(Message&& message, Duration latency,
                                   bool chaos_late_loss) {
  const char* label = deliver_label(message.type);
  const std::uint32_t slot = acquire_inflight(std::move(message));
  // (this, slot, flag) is trivially copyable and 16 B, so
  // std::function stores it inline: scheduling an arrival allocates
  // nothing beyond the pooled slot itself.
  // simba-lint: label(one per message type; the protocol bounds the set)
  sim_.after(latency,
             [this, slot, chaos_late_loss] { arrive(slot, chaos_late_loss); },
             label);
}

void MessageBus::arrive(std::uint32_t slot, bool chaos_late_loss) {
  {
    // Scoped: the reference must not outlive the handler call below,
    // which may send and grow the pool (deque references hold, but the
    // recycle after this block must be the slot's last touch).
    const Message& message = inflight_pool_[slot];
    // Partition state and endpoint liveness are re-checked at arrival
    // time: a link that failed mid-flight loses the message.
    const Endpoint::State state = endpoints_[index(message.to)].state;
    if (partitioned(message.from, message.to)) {
      stats_.bump("dropped.partition");
      trace_event(message, "drop", "partition_at_arrival");
    } else if (chaos_late_loss) {
      stats_.bump("dropped.chaos_late_loss");
      trace_event(message, "drop", "chaos_late_loss");
      SIMBA_LOG_DEBUG("net", "chaos late loss " + route(message));
    } else if (state != Endpoint::State::kAttached) {
      const bool undeliverable = state == Endpoint::State::kDetached;
      stats_.bump(undeliverable ? CounterName("dropped.undeliverable")
                                : CounterName("dropped.unreachable"));
      trace_event(message, "drop",
                  undeliverable ? "undeliverable" : "unreachable");
      SIMBA_LOG_DEBUG("net", "no endpoint " + name(message.to));
    } else {
      stats_.bump("delivered");
      if (traced(message)) {
        std::string id = trace_id(message);
        if (!id.empty()) {
          trace_->emit(std::move(id), "bus", "deliver", message.sent_at,
                       sim_.now(), message.type);
        }
      }
      // The handler runs from this frame, not from the table: it may
      // detach or re-attach its own address, or attach new ones and so
      // grow the table, without destroying or moving itself. It goes
      // back unless its call attached a replacement or detached it.
      Handler handler = std::move(endpoints_[index(message.to)].handler);
      handler(message);
      Endpoint& endpoint = endpoints_[index(message.to)];
      if (endpoint.state == Endpoint::State::kAttached && !endpoint.handler) {
        endpoint.handler = std::move(handler);
      }
    }
  }
  recycle_inflight(slot);
}

}  // namespace simba::net
