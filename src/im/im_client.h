// Simulated GUI IM client software, driven through its automation
// interface (the MSN Messenger stand-in).
//
// This is the "third-party communication client software" of Section
// 4.1.1: it can hang, crash, get logged out behind the program's back,
// pop dialog boxes, throw from undocumented interfaces, and lose
// new-message events — every failure mode the IM Manager's
// exception-handling automation exists to absorb.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "gui/client_app.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "util/flat_map.h"

namespace simba::im {

/// An instant message as surfaced by the client's automation interface.
struct ImMessage {
  std::string from_user;
  std::string to_user;
  std::string body;
  /// Exactly the application headers the sender passed to send_im.
  util::FlatMap<std::string, std::string> headers;
};

struct ImClientConfig {
  /// Probability that an arriving message lands in the window without
  /// firing the new-message automation event ("potential loss of
  /// new-IM events" that self-stabilization sweeps for).
  double event_loss_probability = 0.0;
};

class ImClientApp : public gui::ClientApp {
 public:
  ImClientApp(sim::Simulator& sim, gui::Desktop& desktop, net::MessageBus& bus,
              std::string_view server_address, std::string user,
              gui::FaultProfile profile, ImClientConfig config = {});
  ~ImClientApp() override;

  const std::string& user() const { return user_; }

  // --- Automation interface (may throw AutomationError) -------------------

  /// The client's local belief about its login state; can be stale
  /// until a ping or failed send corrects it.
  bool is_logged_in();

  /// Signs in; `done` fires with success/failure (timeout counts as
  /// failure). Throws if the process is unusable.
  void login(std::function<void(Status)> done);
  void logout();

  /// Verifies the session against the server (the sanity check's
  /// "checks if the IM client software is still logged on").
  void verify_connection(std::function<void(Status)> done);

  /// Sends an IM; success means the service accepted it for delivery
  /// to an online recipient (NOT that the human read it — SIMBA's
  /// application-level acks handle that).
  void send_im(const std::string& to_user, const std::string& body,
               util::FlatMap<std::string, std::string> headers,
               std::function<void(Status)> done);

  /// Drains messages that arrived since the last fetch.
  std::vector<ImMessage> fetch_unread();
  std::size_t unread_count() const { return inbox_.size(); }

  /// New-message automation event (may be lost per config).
  void set_new_message_event(std::function<void()> handler) {
    new_message_event_ = std::move(handler);
  }

 protected:
  void on_launch() override;
  void on_kill() override;

 private:
  struct PendingRpc {
    std::function<void(Status)> done;
    sim::EventId timeout_event = 0;
    /// Names the call in its timeout failure; a string literal.
    const char* what = "";
  };

  /// A `type` message from this client to the server, for this user.
  net::Message to_server(const char* type) const;
  void handle_bus(const net::Message& m);
  void complete_rpc(std::uint64_t request_id, Status status);
  /// Sends `request` and arms its timeout; `what` must be a literal.
  void send_rpc(net::Message&& request, std::function<void(Status)> done,
                const char* what);
  void time_out(std::uint64_t request_id);

  net::MessageBus& bus_;
  std::string user_;
  /// "im.client.<user>" and the server's address, interned once.
  net::Address bus_address_;
  net::Address server_address_;
  ImClientConfig config_;
  bool logged_in_ = false;
  std::uint64_t epoch_ = 0;
  /// Drained via sorted_items() on kill so failure callbacks fire in
  /// request-id order, matching the old ordered map's event sequence.
  util::FlatMap<std::uint64_t, PendingRpc> pending_;
  std::deque<ImMessage> inbox_;
  std::function<void()> new_message_event_;
};

}  // namespace simba::im
