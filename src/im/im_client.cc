#include "im/im_client.h"

#include "util/log.h"

namespace simba::im {
namespace {

// RPC timeout for login/ping/send against the IM service. The paper's
// one-way IM time is sub-second; this bounds outage stalls.
constexpr Duration kRpcTimeout = seconds(10);

}  // namespace

ImClientApp::ImClientApp(sim::Simulator& sim, gui::Desktop& desktop,
                         net::MessageBus& bus, std::string server_address,
                         std::string user, gui::FaultProfile profile,
                         ImClientConfig config)
    : gui::ClientApp(sim, desktop, "im_client." + user, std::move(profile)),
      bus_(bus),
      server_address_(std::move(server_address)),
      user_(std::move(user)),
      bus_address_("im.client." + user_),
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

std::uint64_t ImClientApp::send_rpc(const std::string& type,
                                    util::FlatMap<std::string, std::string> headers,
                                    std::string body,
                                    std::function<void(Status)> done,
                                    const std::string& timeout_what) {
  net::Message m;
  m.from = bus_address_;
  m.to = server_address_;
  m.type = type;
  m.headers = std::move(headers);
  m.body = std::move(body);
  const std::uint64_t id = bus_.send(std::move(m));
  PendingRpc rpc;
  rpc.done = std::move(done);
  rpc.timeout_event = sim().after(
      kRpcTimeout,
      [this, id, timeout_what] {
        const auto it = pending_.find(id);
        if (it == pending_.end()) return;
        auto done_cb = std::move(it->second.done);
        pending_.erase(it);
        stats().bump("rpc_timeouts");
        if (done_cb) {
          done_cb(Status::failure(name() + ": " + timeout_what +
                                  " timed out (service unreachable?)"));
        }
      },
      "im.rpc_timeout");
  pending_.emplace(id, std::move(rpc));
  return id;
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
  send_rpc(proto::kLogin, {{"user", user_}}, {},
           [this, done = std::move(done)](Status status) {
             if (done) done(std::move(status));
           },
           "login");
}

void ImClientApp::logout() {
  const Status gate = begin_operation("logout");
  if (!gate.ok()) return;
  if (!logged_in_) return;
  net::Message m;
  m.from = bus_address_;
  m.to = server_address_;
  m.type = proto::kLogout;
  m.headers["user"] = user_;
  bus_.send(std::move(m));
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
  send_rpc(proto::kPing,
           {{"user", user_}, {"epoch", std::to_string(epoch_)}}, {},
           std::move(done), "ping");
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
  headers["from_user"] = user_;
  headers["to_user"] = to_user;
  headers["epoch"] = std::to_string(epoch_);
  if (headers.find("seq") == headers.end()) {
    headers["seq"] = user_ + "-" + std::to_string(next_seq_++);
  }
  send_rpc(proto::kSend, std::move(headers), body, std::move(done), "send");
}

std::vector<ImMessage> ImClientApp::fetch_unread() {
  const Status gate = begin_operation("fetch_unread");
  if (!gate.ok()) return {};
  std::vector<ImMessage> out(inbox_.begin(), inbox_.end());
  inbox_.clear();
  return out;
}

void ImClientApp::handle_bus(const net::Message& m) {
  if (state() != gui::ProcessState::kRunning) {
    // A hung process does not pump its message loop.
    stats().bump("messages_dropped_while_hung");
    return;
  }
  if (m.type == proto::kLoginOk) {
    logged_in_ = true;
    epoch_ = std::stoull(m.headers.at("epoch"));
    complete_rpc(std::stoull(m.headers.at("in_reply_to")), Status::success());
  } else if (m.type == proto::kLoginErr) {
    complete_rpc(std::stoull(m.headers.at("in_reply_to")),
                 Status::failure("login rejected: " +
                                 m.headers.at("reason")));
  } else if (m.type == proto::kPong) {
    const bool valid = m.headers.at("valid") == "1";
    if (!valid) logged_in_ = false;
    complete_rpc(std::stoull(m.headers.at("in_reply_to")),
                 valid ? Status::success()
                       : Status::failure("session invalid"));
  } else if (m.type == proto::kSendOk) {
    complete_rpc(std::stoull(m.headers.at("in_reply_to")), Status::success());
  } else if (m.type == proto::kSendErr) {
    const std::string reason = m.headers.count("reason")
                                   ? m.headers.at("reason")
                                   : "unknown";
    if (reason == "not logged in") logged_in_ = false;
    complete_rpc(std::stoull(m.headers.at("in_reply_to")),
                 Status::failure("send failed: " + reason));
  } else if (m.type == proto::kDeliver) {
    ImMessage im;
    im.from_user = m.headers.at("from_user");
    im.to_user = m.headers.at("to_user");
    im.body = m.body;
    im.seq = m.headers.at("seq");
    im.headers = m.headers;
    im.received_at = sim().now();
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
  } else if (m.type == proto::kLoggedOut) {
    logged_in_ = false;
    stats().bump("logged_out_notices");
  }
}

}  // namespace simba::im
