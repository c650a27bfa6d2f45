// SourceEndpoint: the SIMBA library as used by an alert source.
//
// Section 4.2: "we modified the information alert proxy, web store
// alert proxy, Aladdin home gateway server, WISH alert server, and the
// desktop assistant to use the 'IM-with-acknowledgement followed by
// email' delivery mode of the SIMBA library to deliver alerts to
// MyAlertBuddy." One SourceEndpoint is one such modified source: its
// own IM/email client software driven through Communication Managers,
// a DeliveryEngine, and a fixed delivery mode targeting the buddy's
// addresses (never the user's own — the privacy property).
#pragma once

#include <memory>
#include <string>

#include "automation/email_manager.h"
#include "automation/im_manager.h"
#include "core/alert.h"
#include "core/delivery_engine.h"
#include "email/email_client.h"
#include "email/email_server.h"
#include "gui/desktop.h"
#include "im/im_client.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/simulator.h"

namespace simba::core {

struct SourceEndpointOptions {
  std::string name = "source";
  std::string im_account;     // default: "<name>"
  std::string email_address;  // default: "<name>@svc.example.net"
  /// Sources run on servers; their clients are much less flaky than a
  /// home desktop but the same machinery protects them.
  gui::FaultProfile im_client_profile;
  gui::FaultProfile email_client_profile;
  /// Timeout for the IM-with-ack block before falling back to email
  /// (whose block times out after a fixed 30 s).
  Duration im_block_timeout = seconds(45);
};

class SourceEndpoint {
 public:
  SourceEndpoint(sim::Simulator& sim, net::MessageBus& bus,
                 im::ImServer& im_server, email::EmailServer& email_server,
                 SourceEndpointOptions options);
  ~SourceEndpoint() { sanity_task_.cancel(); }

  void start();

  /// Points the source at a buddy (IM account + email address). The
  /// per-target delivery mode is the paper's "IM-with-acknowledgement
  /// followed by email".
  void set_target(const std::string& target_im,
                  const std::string& target_email);

  const std::string& name() const { return options_.name; }
  const std::string& im_account() const { return options_.im_account; }

  /// Sends one alert to the configured target.
  void send_alert(const Alert& alert,
                  DeliveryEngine::DoneCallback done = nullptr);

  /// Binds send_alert as an AlertSink for the substrate generators.
  AlertSink sink();

  DeliveryEngine& engine() { return *engine_; }
  automation::ImManager& im_manager() { return *im_manager_; }
  const Counters& stats() const { return stats_; }

 private:
  void pump_im();

  sim::Simulator& sim_;
  im::ImServer& im_server_;
  email::EmailServer& email_server_;
  SourceEndpointOptions options_;
  gui::Desktop desktop_;
  std::unique_ptr<im::ImClientApp> im_client_;
  std::unique_ptr<email::EmailClientApp> email_client_;
  std::unique_ptr<automation::ImManager> im_manager_;
  std::unique_ptr<automation::EmailManager> email_manager_;
  std::unique_ptr<DeliveryEngine> engine_;
  AddressBook target_;
  DeliveryMode mode_;
  sim::TaskHandle sanity_task_;
  Counters stats_;
};

}  // namespace simba::core
