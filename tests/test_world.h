// Shared test fixture: one wired-up world with IM, email, and SMS
// infrastructure using fast, loss-free delay models so unit tests are
// quick and deterministic. Experiments use realistic models instead.
#pragma once

#include <cstdint>

#include "email/email_server.h"
#include "fleet/resume.h"
#include "fleet/storm_workload.h"
#include "fleet/user_world.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/chaos.h"
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

/// The resumable two-shard fleet shape of one workload kind that the
/// resume-equivalence matrix and the checkpoint-image goldens share:
/// six fast-model hours plus an hour of drain over `epochs` epochs.
inline fleet::ResumableOptions resume_options(fleet::ResumeKind kind,
                                              std::uint64_t seed,
                                              int epochs = 3) {
  fleet::ResumableOptions options;
  options.fleet.shards = 2;
  options.fleet.threads = 1;
  options.fleet.base_seed = seed;
  options.epochs = epochs;
  // Faults across the whole horizon, so some straddle or follow the
  // checkpoint boundary — the interesting restore cases.
  const sim::ChaosScenario faults = sim::ChaosScenario::preset("flaky_network");
  if (kind == fleet::ResumeKind::kPortal) {
    fleet::PortalWorkloadOptions portal;
    portal.world = fast_fleet_world();
    portal.alerts_per_user_day = 72.0;
    portal.horizon = hours(6);
    portal.drain = hours(1);
    options.workload = portal;
  } else if (kind == fleet::ResumeKind::kChaos) {
    fleet::ChaosWorkloadOptions chaos;
    chaos.world = fast_fleet_world();
    chaos.scenario = faults;
    chaos.horizon = hours(6);
    chaos.drain = hours(1);
    options.workload = chaos;
  } else {
    fleet::StormWorkloadOptions storm;
    storm.world = fast_fleet_world();
    storm.scenario = faults;
    storm.horizon = hours(6);
    storm.drain = hours(1);
    // Defenses on: open coalescing windows and token-bucket effects
    // must survive the checkpoint inside MabHost::State.
    storm.world.overload = fleet::storm_defenses();
    storm.background_per_day = 24.0;
    storm.critical_per_day = 48.0;
    storm.sensor_cascades = 2;
    storm.cascade_size = 15;
    storm.poll_bursts = 2;
    storm.burst_size = 20;
    options.workload = storm;
  }
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
