// Simulated GUI email client software (the Outlook stand-in), driven
// through its automation interface by the Email Manager.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "email/email_server.h"
#include "gui/client_app.h"

namespace simba::email {

struct EmailClientConfig {
  /// How often the client syncs its inbox with the server.
  Duration poll_interval = seconds(30);
  /// Probability an arriving message fails to fire the new-mail event
  /// (self-stabilization sweeps catch these as "unprocessed emails").
  double event_loss_probability = 0.0;
};

class EmailClientApp : public gui::ClientApp {
 public:
  EmailClientApp(sim::Simulator& sim, gui::Desktop& desktop,
                 EmailServer& server, std::string mailbox_address,
                 gui::FaultProfile profile, EmailClientConfig config = {});

  const std::string& mailbox_address() const { return mailbox_address_; }

  // --- Automation interface (may throw AutomationError) -------------------

  /// Submits a message through the configured relay.
  Status send_email(Email email);

  /// Messages synced from the server but not yet fetched by the driver.
  std::vector<Email> fetch_unread();
  std::size_t unread_count() const { return unread_.size(); }

  /// Checks the client can reach its server (sanity-check support).
  Status verify_connection();

  void set_new_mail_event(std::function<void()> handler) {
    new_mail_event_ = std::move(handler);
  }

 protected:
  void on_launch() override;
  void on_kill() override;

 private:
  void poll();

  EmailServer& server_;
  std::string mailbox_address_;
  EmailClientConfig config_;
  std::size_t sync_cursor_ = 0;  // how much of the server mailbox we've seen
  std::deque<Email> unread_;
  std::function<void()> new_mail_event_;
  sim::TaskHandle poll_task_;
};

}  // namespace simba::email
