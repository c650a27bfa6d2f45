#include "im/im_client.h"

#include <iterator>
#include <string_view>

#include "util/log.h"

namespace simba::im {
namespace {

// RPC timeout for login/ping/send against the IM service. The paper's
// one-way IM time is sub-second; this bounds outage stalls.
constexpr Duration kRpcTimeout = seconds(10);

// login.err and send.err name their cause; one without reads "unknown".
const char* reason_of(const net::Message& m) {
  return m.reason != nullptr ? m.reason : "unknown";
}

}  // namespace

ImClientApp::ImClientApp(sim::Simulator& sim, gui::Desktop& desktop,
                         net::MessageBus& bus, std::string_view server_address,
                         std::string user, gui::FaultProfile profile,
                         ImClientConfig config)
    : gui::ClientApp(sim, desktop, "im_client." + user, std::move(profile)),
      bus_(bus),
      user_(std::move(user)),
      bus_address_(bus.intern("im.client." + user_)),
      server_address_(bus.intern(server_address)),
      config_(config) {}

ImClientApp::~ImClientApp() { bus_.detach(bus_address_); }

void ImClientApp::on_launch() {
  logged_in_ = false;
  epoch_ = 0;
  inbox_.clear();
  bus_.attach(bus_address_, [this](const net::Message& m) { handle_bus(m); });
}

void ImClientApp::on_kill() {
  bus_.detach(bus_address_);
  logged_in_ = false;
  // Pending automation calls observe the process's death.
  auto pending = std::move(pending_);
  pending_.clear();
  for (const auto& [id, rpc] : pending.sorted_items()) {
    if (rpc.timeout_event != 0) sim().cancel(rpc.timeout_event);
    if (rpc.done) rpc.done(Status::failure(name() + ": client terminated"));
  }
}

bool ImClientApp::is_logged_in() {
  if (!running()) return false;
  const Status gate = begin_operation("is_logged_in");
  if (!gate.ok()) return false;
  return logged_in_;
}

net::Message ImClientApp::to_server(const char* type) const {
  net::Message m;
  m.from = bus_address_;
  m.to = server_address_;
  m.type = type;
  m.user = user_;
  return m;
}

void ImClientApp::send_rpc(net::Message&& request,
                           std::function<void(Status)> done,
                           const char* what) {
  const std::uint64_t id = bus_.send(std::move(request));
  // (this, id) is trivially copyable and 16 B, so std::function stores
  // it inline: arming the timeout allocates no closure.
  const sim::EventId timeout =
      sim().after(kRpcTimeout, [this, id] { time_out(id); }, "im.rpc_timeout");
  pending_.emplace(id, PendingRpc{std::move(done), timeout, what});
}

void ImClientApp::time_out(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  auto done_cb = std::move(it->second.done);
  const char* what = it->second.what;
  pending_.erase(it);
  stats().bump("rpc_timeouts");
  if (done_cb) {
    done_cb(Status::failure(name() + ": " + what +
                            " timed out (service unreachable?)"));
  }
}

void ImClientApp::complete_rpc(std::uint64_t request_id, Status status) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  if (it->second.timeout_event != 0) sim().cancel(it->second.timeout_event);
  auto done_cb = std::move(it->second.done);
  pending_.erase(it);
  if (done_cb) done_cb(std::move(status));
}

void ImClientApp::login(std::function<void(Status)> done) {
  const Status gate = begin_operation("login");
  if (!gate.ok()) {
    if (done) done(gate);
    return;
  }
  send_rpc(to_server(proto::kLogin), std::move(done), "login");
}

void ImClientApp::logout() {
  const Status gate = begin_operation("logout");
  if (!gate.ok()) return;
  if (!logged_in_) return;
  bus_.send(to_server(proto::kLogout));
  logged_in_ = false;
  epoch_ = 0;
}

void ImClientApp::verify_connection(std::function<void(Status)> done) {
  const Status gate = begin_operation("verify_connection");
  if (!gate.ok()) {
    if (done) done(gate);
    return;
  }
  if (!logged_in_) {
    if (done) done(Status::failure(name() + ": not signed in"));
    return;
  }
  // Note: an invalid pong flips logged_in_ in handle_bus; a mere RPC
  // timeout does NOT — one lost packet is not evidence of a dropped
  // session, and treating it as one would cause spurious re-logins.
  net::Message ping = to_server(proto::kPing);
  ping.epoch = epoch_;
  send_rpc(std::move(ping), std::move(done), "ping");
}

void ImClientApp::send_im(const std::string& to_user, const std::string& body,
                          util::FlatMap<std::string, std::string> headers,
                          std::function<void(Status)> done) {
  const Status gate = begin_operation("send_im");
  if (!gate.ok()) {
    if (done) done(gate);
    return;
  }
  if (!logged_in_) {
    if (done) done(Status::failure(name() + ": not signed in"));
    return;
  }
  net::Message send = to_server(proto::kSend);
  send.to_user = to_user;
  send.epoch = epoch_;
  send.headers = std::move(headers);
  send.body = body;
  send_rpc(std::move(send), std::move(done), "send");
}

std::vector<ImMessage> ImClientApp::fetch_unread() {
  const Status gate = begin_operation("fetch_unread");
  if (!gate.ok()) return {};
  std::vector<ImMessage> out(std::make_move_iterator(inbox_.begin()),
                             std::make_move_iterator(inbox_.end()));
  inbox_.clear();
  return out;
}

void ImClientApp::handle_bus(const net::Message& m) {
  if (state() != gui::ProcessState::kRunning) {
    // A hung process does not pump its message loop.
    stats().bump("messages_dropped_while_hung");
    return;
  }
  if (m.type == proto::kDeliver) {
    ImMessage im;
    im.from_user = m.user;
    im.to_user = m.to_user;
    im.body = m.body;
    im.headers = m.headers;
    inbox_.push_back(std::move(im));
    stats().bump("messages_received");
    // The new-message event can be lost (blocked by a modal dialog or
    // plain dropped); the message stays unread in the window, where
    // self-stabilization sweeps will find it.
    const bool blocked = desktop().any_blocking(name());
    if (!blocked && !rng().chance(config_.event_loss_probability)) {
      if (new_message_event_) new_message_event_();
    } else {
      stats().bump("new_message_events_lost");
    }
    return;
  }
  if (m.type == proto::kLoggedOut) {
    logged_in_ = false;
    stats().bump("logged_out_notices");
    return;
  }
  if (m.in_reply_to == 0) {
    // Every server reply names its request (bus ids start at 1). One
    // that names none is malformed and must not touch the session.
    stats().bump("unrequested_replies");
    return;
  }
  if (m.type == proto::kLoginOk) {
    logged_in_ = true;
    epoch_ = m.epoch;
    complete_rpc(m.in_reply_to, Status::success());
  } else if (m.type == proto::kLoginErr) {
    complete_rpc(m.in_reply_to, Status::failure(std::string("login rejected: ") +
                                                reason_of(m)));
  } else if (m.type == proto::kPong) {
    if (!m.valid) logged_in_ = false;
    complete_rpc(m.in_reply_to, m.valid ? Status::success()
                                        : Status::failure("session invalid"));
  } else if (m.type == proto::kSendOk) {
    complete_rpc(m.in_reply_to, Status::success());
  } else if (m.type == proto::kSendErr) {
    if (std::string_view(reason_of(m)) == "not logged in") logged_in_ = false;
    complete_rpc(m.in_reply_to,
                 Status::failure(std::string("send failed: ") + reason_of(m)));
  }
}

}  // namespace simba::im
