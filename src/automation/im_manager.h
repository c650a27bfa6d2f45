// IM Manager: drives the simulated GUI IM client through its
// automation interface and keeps it signed in and responsive.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "automation/manager.h"
#include "im/im_client.h"

namespace simba::automation {

class ImManager : public CommunicationManager {
 public:
  ImManager(sim::Simulator& sim, gui::Desktop& desktop, im::ImClientApp& client);

  im::ImClientApp& client() { return client_; }

  /// Launches the client (if needed), signs in, arms the monkey thread.
  void start(std::function<void(Status)> done = nullptr);

  /// Sanity check, per the paper: process running and pointers valid;
  /// client still logged on (re-login if the server dropped us — the
  /// "simple re-logon attempts worked" cases); server reachable (ping /
  /// "can launch IM sessions, obtain the status of the buddies"). Hangs
  /// and stale pointers are unfixable in place and escalate to restart
  /// when auto-restart is on (default).
  void sanity_check() override;

  void restart() override;

  /// Robust send: absorbs one AutomationError by restarting the client
  /// and retrying once. Success means the IM service accepted delivery
  /// to an online recipient.
  void send_im(const std::string& to_user, const std::string& body,
               util::FlatMap<std::string, std::string> headers,
               std::function<void(Status)> done);

  /// Unread sweep for self-stabilization ("unprocessed ... IMs due to
  /// potential loss of new-IM events"). Never throws; automation
  /// errors are absorbed and reported in stats.
  std::vector<im::ImMessage> fetch_unread_safe();

  void set_on_new_message(std::function<void()> handler);

 private:
  // The check's continuations, tagged with its report epoch.
  /// A logged-out client's re-logon.
  void relogon_done(std::uint64_t epoch, Status status);
  /// The ping that verifies a signed-in session.
  void verify_done(std::uint64_t epoch, Status status);
  /// The re-logon after the server invalidated the session.
  void refresh_done(std::uint64_t epoch, Status status);

  im::ImClientApp& client_;
};

}  // namespace simba::automation
