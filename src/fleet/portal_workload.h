// The portal-day workload run inside one fleet shard (experiment E9).
//
// Each shard replays one user's slice of the paper's portal trace —
// Poisson arrivals at 778k/225k ≈ 3.46 alerts/user/day — through that
// user's own MyAlertBuddy world, then scores delivery, loss,
// duplicates, and the conservation invariants from inside the shard
// (while the world is still alive) into the ShardResult counters.
#pragma once

#include "fleet/fleet.h"
#include "fleet/user_world.h"

namespace simba::fleet {

enum class Traffic {
  /// Legacy portal mail straight to the buddy's mailbox (the intro's
  /// email-only services); the MAB classifies by sender display name.
  kPortalEmail,
  /// A SIMBA-library source: IM-with-acknowledgement followed by email,
  /// with source-side ack outcomes — enables the log-before-ack check.
  kSourceIm,
};

struct PortalWorkloadOptions {
  UserWorldOptions world;
  Traffic traffic = Traffic::kPortalEmail;
  double alerts_per_user_day = 778000.0 / 225000.0;
  Duration horizon = days(1);
  /// Extra virtual time after the last arrival so email tails land.
  Duration drain = hours(6);
};

/// Builds one UserWorld from the shard seed, replays the portal day,
/// and reports: one epoch of the fleet driver (fleet/resume.h).
/// Counters emitted (all deterministic per seed):
///   alerts.sent / alerts.delivered / alerts.lost / alerts.duplicates
///   conservation.invented      — user sightings with no matching send
///   conservation.ack_unlogged  — IM-leg acks missing from the alert
///                                log (kSourceIm only; must stay 0)
///   health.samples / health.healthy — periodic MAB availability probe
ShardResult run_portal_shard(const ShardTask& task,
                             const PortalWorkloadOptions& options);

}  // namespace simba::fleet
