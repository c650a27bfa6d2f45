#include "core/delivery_engine.h"

#include "util/log.h"
#include "util/strings.h"

namespace simba::core {

const char* to_string(DeliveryPriority priority) {
  switch (priority) {
    case DeliveryPriority::kCritical:
      return "critical";
    case DeliveryPriority::kNormal:
      return "normal";
    case DeliveryPriority::kDigest:
      return "digest";
  }
  return "unknown";
}

DeliveryEngine::DeliveryEngine(sim::Simulator& sim, automation::ImManager* im,
                               automation::EmailManager* email,
                               DeliveryEngineOptions options)
    : sim_(sim), im_(im), email_(email), options_(options) {}

DeliveryEngine::~DeliveryEngine() {
  // Outstanding sends and block timers may still fire after this
  // incarnation's engine is gone; their callbacks check the token.
  *alive_ = false;
}

void DeliveryEngine::deliver(const Alert& alert, const AddressBook& addresses,
                             const DeliveryMode& mode, DoneCallback done,
                             DeliveryPriority priority) {
  Delivery d;
  d.id = next_delivery_++;
  d.alert = alert;
  d.addresses = addresses;
  d.mode = mode;
  d.done = std::move(done);
  d.priority = priority;
  d.started_at = sim_.now();
  if (traced()) trace_event(d, "start", "mode " + mode.name());
  if (options_.max_concurrent <= 0) {
    // Unlimited concurrency: dispatch immediately, exactly the
    // pre-lane behavior (no extra events, no queue residency).
    dispatch(std::move(d));
    return;
  }
  if (active_ < options_.max_concurrent && queued() == 0) {
    dispatch(std::move(d));
    return;
  }
  const std::size_t lane =
      options_.priority_lanes ? static_cast<std::size_t>(priority) : 0;
  if (options_.lane_bound != 0 && lanes_[lane].size() >= options_.lane_bound) {
    // Lane full: shed with explicit accounting. `done` still fires so
    // upstream conservation sees the outcome.
    stats_.bump("deliveries_shed");
    stats_.add(std::string("lanes.shed.") + to_string(priority));
    if (traced()) {
      trace_event(d, "shed",
                  strformat("%s lane full (%zu queued)", to_string(priority),
                            lanes_[lane].size()));
    }
    DeliveryOutcome outcome;
    outcome.shed = true;
    outcome.completed_at = sim_.now();
    outcome.detail = std::string(to_string(priority)) + " lane full";
    if (d.done) d.done(outcome);
    return;
  }
  stats_.add(std::string("lanes.enqueued.") + to_string(priority));
  if (traced()) {
    trace_event(d, "enqueue",
                strformat("%s lane, %zu ahead", to_string(priority),
                          lanes_[lane].size()));
  }
  lanes_[lane].push_back(std::move(d));
  pump();
}

void DeliveryEngine::dispatch(Delivery d) {
  const std::uint64_t id = d.id;
  if (options_.max_concurrent > 0) ++active_;
  deliveries_.emplace(id, std::move(d));
  stats_.bump("deliveries_started");
  run_block(id);
}

void DeliveryEngine::pump() {
  if (pumping_) return;
  pumping_ = true;
  while (active_ < options_.max_concurrent) {
    std::size_t lane = 0;
    while (lane < 3 && lanes_[lane].empty()) ++lane;
    if (lane == 3) break;
    Delivery d = std::move(lanes_[lane].front());
    lanes_[lane].pop_front();
    if (traced()) {
      trace_event(d, "dequeue",
                  strformat("%s lane, waited %s", to_string(d.priority),
                            format_duration(sim_.now() - d.started_at).c_str()));
    }
    dispatch(std::move(d));
  }
  pumping_ = false;
}

std::size_t DeliveryEngine::queued() const {
  return lanes_[0].size() + lanes_[1].size() + lanes_[2].size();
}

void DeliveryEngine::trace_event(const Delivery& d, const char* stage,
                                 std::string detail) {
  if (trace_ == nullptr) return;
  trace_->emit(d.alert.id, "delivery", stage, sim_.now(), std::move(detail));
}

void DeliveryEngine::run_block(std::uint64_t delivery_id) {
  auto it = deliveries_.find(delivery_id);
  if (it == deliveries_.end()) return;
  Delivery& d = it->second;
  if (d.block_index >= d.mode.blocks().size()) {
    finish(delivery_id, false, "all blocks exhausted");
    return;
  }
  const DeliveryBlock& block = d.mode.blocks()[d.block_index];
  const std::size_t block_index = d.block_index;

  // Collect the actions that can run: enabled addresses only.
  std::vector<const DeliveryAction*> runnable;
  for (const auto& action : block.actions) {
    const Address* address = d.addresses.find(action.address_name);
    if (address == nullptr) {
      stats_.bump("actions.unknown_address");
      if (traced()) {
        trace_event(d, "action_skip",
                    action.address_name + ": unknown address");
      }
      continue;
    }
    if (!address->enabled) {
      stats_.bump("actions.disabled_address");
      if (traced()) {
        trace_event(d, "action_skip", action.address_name + ": disabled");
      }
      continue;
    }
    runnable.push_back(&action);
  }
  if (runnable.empty()) {
    // "Any delivery block that contains [only disabled] actions will
    // automatically fail and fall back to the next backup block."
    stats_.bump("blocks.all_disabled");
    if (traced()) {
      trace_event(d, "block_skip",
                  strformat("block %zu: no runnable action", block_index));
    }
    d.block_index++;
    run_block(delivery_id);
    return;
  }
  d.block_started_at = sim_.now();
  if (traced()) {
    trace_event(d, "block_start",
                strformat("block %zu: %zu action(s)", block_index,
                          runnable.size()));
  }

  d.actions_pending = static_cast<int>(runnable.size());
  d.acks_outstanding = 0;
  d.weak_successes = 0;
  d.block_awaits_ack = false;
  for (const auto* a : runnable) {
    if (a->require_ack) d.block_awaits_ack = true;
  }
  d.block_timer = sim_.after(
      block.timeout,
      [this, alive = alive_, delivery_id, block_index] {
        if (!*alive) return;
        auto dit = deliveries_.find(delivery_id);
        if (dit == deliveries_.end()) return;
        if (dit->second.block_index != block_index) return;  // stale
        dit->second.block_timer = 0;
        if (dit->second.weak_successes > 0) {
          // The ack never came, but a weak channel accepted the alert:
          // complete on that rather than duplicating via fallback.
          stats_.bump("blocks.completed_weak");
          finish(delivery_id, true, "weak success (relay accepted; no ack)");
          return;
        }
        stats_.bump("blocks.timed_out");
        if (traced()) {
          trace_event(dit->second, "block_timeout",
                      strformat("block %zu", block_index));
        }
        advance_block(delivery_id);
      },
      "delivery.block_timeout");

  // Copy the actions: start_action callbacks can mutate the map.
  std::vector<DeliveryAction> actions;
  actions.reserve(runnable.size());
  for (const auto* a : runnable) actions.push_back(*a);
  for (const auto& action : actions) {
    // The delivery may already have completed (a synchronous email
    // success finishes the block immediately).
    if (deliveries_.find(delivery_id) == deliveries_.end()) break;
    if (deliveries_.at(delivery_id).block_index != block_index) break;
    start_action(delivery_id, action, block_index);
  }
}

void DeliveryEngine::start_action(std::uint64_t delivery_id,
                                  const DeliveryAction& action,
                                  std::size_t block_index) {
  auto it = deliveries_.find(delivery_id);
  if (it == deliveries_.end()) return;
  Delivery& d = it->second;
  const Address* address = d.addresses.find(action.address_name);
  if (address == nullptr) {
    action_failed(delivery_id, block_index, "address vanished");
    return;
  }

  switch (address->type) {
    case CommType::kIm: {
      if (im_ == nullptr) {
        stats_.bump("actions.no_im_channel");
        action_failed(delivery_id, block_index, "no IM channel");
        return;
      }
      auto headers = alert_headers(d.alert);
      headers[wire::kKind] = wire::kKindAlert;
      if (action.require_ack) {
        // std::string{} rvalue: sidesteps a GCC 12 -Werror=restrict
        // false positive on the const char* assign path at -O2.
        headers[wire::kRequiresAck] = std::string("1");
        // Register the waiter before sending: the ack can beat the
        // send-completion callback.
        ack_waiters_[d.alert.id + "|" + address->value] = delivery_id;
        d.acks_outstanding++;
      }
      const std::string to_user = address->value;
      const bool require_ack = action.require_ack;
      im_->send_im(
          to_user, d.alert.subject + "\n" + d.alert.body, std::move(headers),
          [this, alive = alive_, delivery_id, block_index, to_user, require_ack,
           alert_id = d.alert.id](Status status) {
            if (!*alive) return;
            auto dit = deliveries_.find(delivery_id);
            if (dit == deliveries_.end()) return;
            if (dit->second.block_index != block_index) return;  // stale
            if (!status.ok()) {
              if (require_ack) {
                ack_waiters_.erase(alert_id + "|" + to_user);
                dit->second.acks_outstanding--;
              }
              stats_.bump("actions.im_send_failed");
              action_failed(delivery_id, block_index, status.error());
              return;
            }
            dit->second.messages_sent++;
            stats_.bump("messages.im");
            if (require_ack) {
              // Accepted; the action now rides on the ack. The pending
              // slot converts into the outstanding-ack slot.
              dit->second.actions_pending--;
              stats_.bump("actions.im_waiting_ack");
              if (traced()) {
                trace_event(dit->second, "action",
                            "im accepted; awaiting ack from " + to_user);
              }
            } else {
              action_succeeded(delivery_id, block_index, "im accepted");
            }
          });
      break;
    }
    case CommType::kEmail:
    case CommType::kSms: {
      if (email_ == nullptr) {
        stats_.bump("actions.no_email_channel");
        action_failed(delivery_id, block_index, "no email channel");
        return;
      }
      // SMS rides the email channel: mail to the phone's SMS address
      // at the carrier gateway (Section 1's privacy-sensitive address).
      email::Email mail;
      mail.to = address->value;
      mail.subject = d.alert.subject;
      mail.body = d.alert.body;
      mail.high_importance = d.alert.high_importance;
      mail.headers = alert_headers(d.alert);
      const Status status = email_->send_email(std::move(mail));
      if (status.ok()) {
        auto dit = deliveries_.find(delivery_id);
        if (dit == deliveries_.end()) return;
        Delivery& del = dit->second;
        del.messages_sent++;
        stats_.bump(address->type == CommType::kSms
                        ? CounterName("messages.sms")
                        : CounterName("messages.email"));
        if (del.block_awaits_ack) {
          // Weak success: remembered, but the block keeps waiting for
          // the strong (acknowledged) signal until its timeout.
          del.weak_successes++;
          del.actions_pending--;
          stats_.bump("actions.weak_success");
          trace_event(del, "action", "relay accepted (weak)");
        } else {
          action_succeeded(delivery_id, block_index, "relay accepted");
        }
      } else {
        stats_.bump("actions.email_send_failed");
        action_failed(delivery_id, block_index, status.error());
      }
      break;
    }
  }
}

void DeliveryEngine::action_failed(std::uint64_t delivery_id,
                                   std::size_t block_index,
                                   const std::string& reason) {
  auto it = deliveries_.find(delivery_id);
  if (it == deliveries_.end()) return;
  Delivery& d = it->second;
  if (d.block_index != block_index) return;
  SIMBA_LOG_DEBUG("delivery", "action failed: " + reason);
  trace_event(d, "action_fail", reason);
  d.actions_pending--;
  if (d.actions_pending <= 0 && d.acks_outstanding <= 0) {
    // No strong signal can arrive any more. Complete on any weak
    // success; otherwise fall back early rather than waiting out the
    // timer.
    if (d.weak_successes > 0) {
      stats_.bump("blocks.completed_weak");
      finish(delivery_id, true, "weak success (relay accepted)");
    } else {
      advance_block(delivery_id);
    }
  }
}

void DeliveryEngine::action_succeeded(std::uint64_t delivery_id,
                                      std::size_t block_index,
                                      const std::string& how) {
  auto it = deliveries_.find(delivery_id);
  if (it == deliveries_.end()) return;
  Delivery& d = it->second;
  if (d.block_index != block_index) return;
  trace_event(d, "action", how);
  finish(delivery_id, true, how);
}

void DeliveryEngine::advance_block(std::uint64_t delivery_id) {
  auto it = deliveries_.find(delivery_id);
  if (it == deliveries_.end()) return;
  Delivery& d = it->second;
  if (d.block_timer != 0) {
    sim_.cancel(d.block_timer);
    d.block_timer = 0;
  }
  // Abandon any acks still outstanding for the old block.
  for (auto ait = ack_waiters_.begin(); ait != ack_waiters_.end();) {
    if (ait->second == delivery_id) {
      ait = ack_waiters_.erase(ait);
    } else {
      ++ait;
    }
  }
  d.acks_outstanding = 0;
  if (trace_ != nullptr) {
    trace_->emit(d.alert.id, "delivery", "block", d.block_started_at,
                 sim_.now(),
                 strformat("block %zu failed; fallback", d.block_index));
  }
  d.block_index++;
  stats_.bump("blocks.fallback");
  run_block(delivery_id);
}

void DeliveryEngine::finish(std::uint64_t delivery_id, bool delivered,
                            const std::string& detail) {
  auto it = deliveries_.find(delivery_id);
  if (it == deliveries_.end()) return;
  Delivery d = std::move(it->second);
  deliveries_.erase(it);
  if (d.block_timer != 0) sim_.cancel(d.block_timer);
  for (auto ait = ack_waiters_.begin(); ait != ack_waiters_.end();) {
    if (ait->second == delivery_id) {
      ait = ack_waiters_.erase(ait);
    } else {
      ++ait;
    }
  }
  DeliveryOutcome outcome;
  outcome.delivered = delivered;
  outcome.block_used = delivered ? static_cast<int>(d.block_index) : -1;
  outcome.messages_sent = d.messages_sent;
  outcome.completed_at = sim_.now();
  outcome.detail = detail;
  stats_.bump(delivered ? CounterName("deliveries_succeeded")
                        : CounterName("deliveries_failed"));
  if (trace_ != nullptr) {
    if (delivered) {
      trace_->emit(d.alert.id, "delivery", "block", d.block_started_at,
                   sim_.now(),
                   strformat("block %d succeeded", outcome.block_used));
    }
    trace_->emit(d.alert.id, "delivery", "deliver", d.started_at, sim_.now(),
                 delivered ? strformat("block %d: %s", outcome.block_used,
                                       detail.c_str())
                           : "failed: " + detail);
  }
  if (d.done) d.done(outcome);
  if (options_.max_concurrent > 0) {
    --active_;
    pump();
  }
}

bool DeliveryEngine::handle_incoming(const im::ImMessage& message) {
  const auto kind = message.headers.find(wire::kKind);
  if (kind == message.headers.end() || kind->second != wire::kKindAck) {
    return false;
  }
  const auto ack_for = message.headers.find(wire::kAckFor);
  if (ack_for == message.headers.end()) return false;
  const std::string key = ack_for->second + "|" + message.from_user;
  const auto waiter = ack_waiters_.find(key);
  if (waiter == ack_waiters_.end()) {
    stats_.bump("acks.unmatched");
    if (trace_ != nullptr) {
      trace_->emit(ack_for->second, "delivery", "ack", sim_.now(),
                   "unmatched ack from " + message.from_user);
    }
    return true;  // it was an ack, just not one we still want
  }
  const std::uint64_t delivery_id = waiter->second;
  ack_waiters_.erase(waiter);
  auto it = deliveries_.find(delivery_id);
  if (it == deliveries_.end()) return true;
  it->second.acks_outstanding--;
  stats_.bump("acks.received");
  if (traced()) trace_event(it->second, "ack", "from " + message.from_user);
  action_succeeded(delivery_id, it->second.block_index, "ack received");
  return true;
}

}  // namespace simba::core
