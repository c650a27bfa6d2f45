#include "im/im_server.h"

#include "util/log.h"

namespace simba::im {
namespace {

// The fields of a login.err or send.err reply.
net::Message refusal(const char* reason) {
  net::Message m;
  m.reason = reason;
  return m;
}

}  // namespace

ImServer::ImServer(sim::Simulator& sim, net::MessageBus& bus,
                   std::string address)
    : sim_(sim),
      bus_(bus),
      address_(std::move(address)),
      bus_address_(bus.intern(address_)),
      rng_(sim.make_rng("im.server." + address_)) {
  bus_.attach(bus_address_, [this](const net::Message& m) { handle(m); });
}

void ImServer::register_account(const std::string& user) {
  accounts_.insert(user);
}

bool ImServer::has_account(const std::string& user) const {
  return accounts_.contains(user);
}

bool ImServer::online(const std::string& user) const {
  return sessions_.count(user) > 0;
}

void ImServer::set_outage_plan(sim::OutagePlan plan) {
  outages_ = std::move(plan);
  // Sessions die the moment an outage begins, whether or not traffic
  // flows during it: after recovery everyone must re-login.
  for (const auto& o : outages_.outages()) {
    if (o.start < sim_.now()) continue;
    sim_.at(o.start, [this] { drop_all_sessions(); }, "im.outage_begin");
  }
}

bool ImServer::down() const { return outages_.down_at(sim_.now()); }

void ImServer::force_logout(const std::string& user) {
  const auto it = sessions_.find(user);
  if (it == sessions_.end()) return;
  const net::Address client = it->second.client_address;
  if (it->second.reset_event != 0) sim_.cancel(it->second.reset_event);
  sessions_.erase(it);
  stats_.bump("forced_logouts");
  SIMBA_LOG_DEBUG("im.server", "forced logout of " + user);
  net::Message note;
  note.from = bus_address_;
  note.to = client;
  note.type = proto::kLoggedOut;
  note.user = user;
  bus_.send(std::move(note));
}

void ImServer::drop_all_sessions() {
  if (sessions_.empty()) return;
  stats_.bump("session_drops", static_cast<std::int64_t>(sessions_.size()));
  for (const auto& [user, session] : sessions_.sorted_items()) {
    if (session.reset_event != 0) sim_.cancel(session.reset_event);
  }
  sessions_.clear();
  log_debug("im.server", "all sessions dropped (outage begin)");
}

void ImServer::arm_session_reset(const std::string& user) {
  if (session_reset_mtbf_ <= Duration::zero()) return;
  auto it = sessions_.find(user);
  if (it == sessions_.end()) return;
  it->second.reset_event = sim_.after(
      rng_.exponential_duration(session_reset_mtbf_),
      [this, user] { force_logout(user); }, "im.session_reset");
}

void ImServer::reply(const net::Message& request, const char* type,
                     net::Message&& fields) {
  fields.from = bus_address_;
  fields.to = request.from;
  fields.type = type;
  fields.in_reply_to = request.id;
  bus_.send(std::move(fields));
}

void ImServer::handle(const net::Message& m) {
  if (down()) {
    // Silent: the service is unreachable; clients see timeouts.
    stats_.bump("ignored_while_down");
    return;
  }
  if (m.type == proto::kLogin) {
    handle_login(m);
  } else if (m.type == proto::kLogout) {
    const auto it = sessions_.find(m.user);
    if (it != sessions_.end()) {
      if (it->second.reset_event != 0) sim_.cancel(it->second.reset_event);
      sessions_.erase(it);
    }
    stats_.bump("logouts");
  } else if (m.type == proto::kPing) {
    const auto it = sessions_.find(m.user);
    net::Message pong;
    pong.valid = it != sessions_.end() && it->second.epoch == m.epoch;
    reply(m, proto::kPong, std::move(pong));
    stats_.bump("pings");
  } else if (m.type == proto::kSend) {
    handle_send(m);
  } else {
    stats_.bump("unknown_messages");
  }
}

void ImServer::handle_login(const net::Message& m) {
  const std::string& user = m.user;
  if (!has_account(user)) {
    reply(m, proto::kLoginErr, refusal("no such account"));
    stats_.bump("login_rejected");
    return;
  }
  Session session;
  session.epoch = next_epoch_++;
  session.client_address = m.from;
  // Re-login replaces any existing session.
  const auto it = sessions_.find(user);
  if (it != sessions_.end() && it->second.reset_event != 0) {
    sim_.cancel(it->second.reset_event);
  }
  sessions_[user] = session;
  stats_.bump("logins");
  net::Message ok;
  ok.user = user;
  ok.epoch = session.epoch;
  reply(m, proto::kLoginOk, std::move(ok));
  arm_session_reset(user);
}

void ImServer::handle_send(const net::Message& m) {
  const auto sender = sessions_.find(m.user);
  if (sender == sessions_.end() || sender->second.epoch != m.epoch) {
    reply(m, proto::kSendErr, refusal("not logged in"));
    stats_.bump("send_rejected.no_session");
    return;
  }
  const auto recipient = sessions_.find(m.to_user);
  if (recipient == sessions_.end()) {
    reply(m, proto::kSendErr, refusal("recipient offline"));
    stats_.bump("send_rejected.offline");
    return;
  }
  net::Message out;
  out.from = bus_address_;
  out.to = recipient->second.client_address;
  out.type = proto::kDeliver;
  out.user = m.user;
  out.to_user = m.to_user;
  out.headers = m.headers;
  out.body = m.body;
  bus_.send(std::move(out));
  reply(m, proto::kSendOk);
  stats_.bump("sends");
}

}  // namespace simba::im
