// Shared test fixture: one wired-up world with IM, email, and SMS
// infrastructure using fast, loss-free delay models so unit tests are
// quick and deterministic. Experiments use realistic models instead.
#pragma once

#include "email/email_server.h"
#include "fleet/user_world.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/simulator.h"
#include "sms/sms.h"

namespace simba::testing {

/// The fast loss-free fleet-world knobs the fleet-level suites (trace,
/// chaos, overload, resume) all share: quick delay models and frequent
/// email polling, so a simulated day stays sub-second of wall time.
inline fleet::UserWorldOptions fast_fleet_world() {
  fleet::UserWorldOptions options;
  options.fidelity = fleet::ModelFidelity::kFast;
  options.email_check_interval = minutes(15);
  return options;
}

struct World {
  explicit World(std::uint64_t seed = 1)
      : sim(seed),
        bus(sim),
        im_server(sim, bus),
        email_server(sim),
        sms_gateway(sim, "sms.example.net") {
    fleet::apply_channel_models(bus, email_server, sms_gateway,
                                fleet::ModelFidelity::kFast);
    sms_gateway.attach_to(email_server);
  }

  sim::Simulator sim;
  net::MessageBus bus;
  im::ImServer im_server;
  email::EmailServer email_server;
  sms::SmsGateway sms_gateway;
};

}  // namespace simba::testing
