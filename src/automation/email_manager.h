// Email Manager: drives the simulated GUI email client and keeps it
// healthy. Email is SIMBA's fallback channel, so robustness here is
// what makes "falls back to the next backup block" actually work.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "automation/manager.h"
#include "email/email_client.h"

namespace simba::automation {

class EmailManager : public CommunicationManager {
 public:
  EmailManager(sim::Simulator& sim, gui::Desktop& desktop,
               email::EmailClientApp& client);

  email::EmailClientApp& client() { return client_; }

  /// Launches the client and arms the monkey thread.
  void start();

  /// Process/pointer checks plus relay reachability. Synchronous (the
  /// email client checks its relay locally) but delivered through the
  /// same report observer as the IM manager.
  void sanity_check() override;

  /// Robust send: absorbs one AutomationError with restart + retry.
  Status send_email(email::Email mail);

  /// Unread sweep for self-stabilization; never throws.
  std::vector<email::Email> fetch_unread_safe();

  void set_on_new_mail(std::function<void()> handler);

 private:
  email::EmailClientApp& client_;
};

}  // namespace simba::automation
