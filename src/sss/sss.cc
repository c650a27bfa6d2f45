#include "sss/sss.h"

#include <algorithm>

#include "util/log.h"

namespace simba::sss {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kCreated: return "created";
    case EventKind::kUpdated: return "updated";
    case EventKind::kRefreshed: return "refreshed";
    case EventKind::kTimedOut: return "timed_out";
    case EventKind::kDeleted: return "deleted";
  }
  return "?";
}

SssServer::SssServer(sim::Simulator& sim, std::string node_name)
    : sim_(sim), node_(std::move(node_name)) {}

SssServer::~SssServer() {
  for (auto& [name, event] : timeout_events_) sim_.cancel(event);
}

Status SssServer::define_type(const std::string& type) {
  if (type.empty()) return Status::failure("empty type name");
  types_.insert(type);
  return Status::success();
}

bool SssServer::has_type(const std::string& type) const {
  return types_.count(type) > 0;
}

std::vector<std::string> SssServer::types() const {
  return {types_.begin(), types_.end()};
}

Status SssServer::create(const std::string& type, const std::string& name,
                         const std::string& value, Duration refresh_period,
                         int max_missed_refreshes) {
  if (!has_type(type)) return Status::failure("undefined type " + type);
  if (name.empty()) return Status::failure("empty variable name");
  if (variables_.count(name) > 0) {
    return Status::failure("variable exists: " + name);
  }
  if (refresh_period < Duration::zero() || max_missed_refreshes < 0) {
    return Status::failure("bad refresh parameters for " + name);
  }
  Variable v;
  v.type = type;
  v.name = name;
  v.value = value;
  v.refresh_period = refresh_period;
  v.max_missed_refreshes = max_missed_refreshes;
  v.last_refresh = sim_.now();
  v.version = 1;
  v.origin = node_;
  variables_[name] = v;
  stats_.bump("creates");
  emit(EventKind::kCreated, v);
  arm_timeout(name);
  replicate(v);
  return Status::success();
}

Status SssServer::write(const std::string& name, const std::string& value) {
  const auto it = variables_.find(name);
  if (it == variables_.end()) return Status::failure("no variable " + name);
  Variable& v = it->second;
  const bool changed = v.value != value || v.timed_out;
  v.value = value;
  v.last_refresh = sim_.now();
  v.timed_out = false;
  v.version++;
  v.origin = node_;
  stats_.bump("writes");
  emit(changed ? EventKind::kUpdated : EventKind::kRefreshed, v);
  arm_timeout(name);
  replicate(v);
  return Status::success();
}

Status SssServer::refresh(const std::string& name) {
  const auto it = variables_.find(name);
  if (it == variables_.end()) return Status::failure("no variable " + name);
  Variable& v = it->second;
  const bool was_timed_out = v.timed_out;
  v.last_refresh = sim_.now();
  v.timed_out = false;
  v.version++;
  v.origin = node_;
  stats_.bump("refreshes");
  emit(was_timed_out ? EventKind::kUpdated : EventKind::kRefreshed, v);
  arm_timeout(name);
  replicate(v);
  return Status::success();
}

Result<Variable> SssServer::read(const std::string& name) const {
  const auto it = variables_.find(name);
  if (it == variables_.end()) return make_error("no variable " + name);
  return it->second;
}

Status SssServer::remove(const std::string& name) {
  const auto it = variables_.find(name);
  if (it == variables_.end()) return Status::failure("no variable " + name);
  const Variable snapshot = it->second;
  const auto timeout = timeout_events_.find(name);
  if (timeout != timeout_events_.end()) {
    sim_.cancel(timeout->second);
    timeout_events_.erase(timeout);
  }
  variables_.erase(it);
  stats_.bump("removes");
  emit(EventKind::kDeleted, snapshot);
  return Status::success();
}

std::vector<std::string> SssServer::variable_names() const {
  std::vector<std::string> out;
  out.reserve(variables_.size());
  for (const auto& [name, v] : variables_) out.push_back(name);
  return out;
}

SubscriptionId SssServer::subscribe_variable(
    const std::string& name, std::function<void(const Event&)> cb) {
  subscriptions_.push_back(
      Subscription{next_sub_, /*by_type=*/false, name, std::move(cb)});
  return next_sub_++;
}

SubscriptionId SssServer::subscribe_type(const std::string& type,
                                         std::function<void(const Event&)> cb) {
  subscriptions_.push_back(
      Subscription{next_sub_, /*by_type=*/true, type, std::move(cb)});
  return next_sub_++;
}

void SssServer::unsubscribe(SubscriptionId id) {
  subscriptions_.erase(
      std::remove_if(subscriptions_.begin(), subscriptions_.end(),
                     [id](const Subscription& s) { return s.id == id; }),
      subscriptions_.end());
}

void SssServer::emit(EventKind kind, const Variable& variable) {
  Event event{kind, variable, sim_.now()};
  stats_.add(std::string("events.") + to_string(kind));
  // Copy the subscription list: callbacks may (un)subscribe.
  const auto subs = subscriptions_;
  for (const auto& s : subs) {
    const bool match =
        s.by_type ? s.key == variable.type : s.key == variable.name;
    if (match && s.callback) s.callback(event);
  }
}

void SssServer::arm_timeout(const std::string& name) {
  const auto existing = timeout_events_.find(name);
  if (existing != timeout_events_.end()) {
    sim_.cancel(existing->second);
    timeout_events_.erase(existing);
  }
  const auto it = variables_.find(name);
  if (it == variables_.end()) return;
  const Variable& v = it->second;
  if (v.refresh_period <= Duration::zero()) return;
  // The variable times out after max_missed+1 periods with no refresh.
  const Duration grace = v.refresh_period * (v.max_missed_refreshes + 1);
  const std::uint64_t armed_version = v.version;
  const TimePoint armed_refresh = v.last_refresh;
  timeout_events_[name] = sim_.after(
      grace,
      [this, name, armed_version, armed_refresh] {
        on_timeout_deadline(name, armed_version, armed_refresh);
      },
      "sss.timeout");
}

void SssServer::on_timeout_deadline(const std::string& name,
                                    std::uint64_t version,
                                    TimePoint armed_refresh) {
  timeout_events_.erase(name);
  const auto it = variables_.find(name);
  if (it == variables_.end()) return;
  Variable& v = it->second;
  // A refresh since arming means this deadline is stale.
  if (v.version != version || v.last_refresh != armed_refresh) return;
  if (v.timed_out) return;
  v.timed_out = true;
  stats_.bump("timeouts");
  SIMBA_LOG_DEBUG("sss." + node_, "variable timed out: " + name);
  emit(EventKind::kTimedOut, v);
}

bool SssServer::apply_remote(const Variable& remote) {
  // Make sure the type exists locally (replication carries schema).
  types_.insert(remote.type);
  auto it = variables_.find(remote.name);
  if (it == variables_.end()) {
    variables_[remote.name] = remote;
    variables_[remote.name].last_refresh = sim_.now();
    stats_.bump("replica_creates");
    emit(EventKind::kCreated, variables_[remote.name]);
    arm_timeout(remote.name);
    return true;
  }
  Variable& local = it->second;
  const bool remote_wins =
      remote.version > local.version ||
      (remote.version == local.version && remote.origin > local.origin);
  if (!remote_wins) {
    stats_.bump("replica_stale");
    return false;
  }
  const bool changed = local.value != remote.value || local.timed_out;
  local.value = remote.value;
  local.version = remote.version;
  local.origin = remote.origin;
  local.last_refresh = sim_.now();
  local.timed_out = false;
  stats_.bump("replica_updates");
  emit(changed ? EventKind::kUpdated : EventKind::kRefreshed, local);
  arm_timeout(remote.name);
  return true;
}

void SssServer::replicate(const Variable& variable) {
  if (group_ != nullptr) group_->multicast(*this, variable);
}

SssReplicationGroup::SssReplicationGroup(sim::Simulator& sim,
                                         MediumModel medium)
    : sim_(sim), medium_(medium), rng_(sim.make_rng("sss.replication")) {}

void SssReplicationGroup::join(SssServer& server) {
  members_.push_back(&server);
  server.group_ = this;
}

void SssReplicationGroup::multicast(const SssServer& from,
                                    const Variable& variable) {
  for (SssServer* member : members_) {
    if (member == &from) continue;
    if (rng_.chance(medium_.loss_probability)) {
      stats_.bump("lost");
      continue;
    }
    const Duration latency =
        medium_.base_latency +
        rng_.uniform_duration(Duration::zero(), medium_.jitter);
    stats_.bump("sent");
    sim_.after(
        latency,
        [member, variable] { member->apply_remote(variable); },
        "sss.replicate");
  }
}

}  // namespace simba::sss
