// The chaos-matrix workload run inside one fleet shard (experiment
// E10).
//
// Each shard is one user's complete MyAlertBuddy deployment living
// through one chaos scenario: a SIMBA-library source submits alerts on
// the IM-with-ack-then-email path while the ChaosPlan duplicates,
// reorders, delays, and drops messages, kills and hangs the daemon,
// reboots and power-cycles the machine, and tears unsynced log
// appends. The per-world InvariantChecker follows every alert from
// submit to its terminal state and the shard exports the conservation
// report through the ShardResult counters — so `run_fleet` can sweep a
// scenario x seed matrix whose merged `correctness_json()` is
// bit-identical for any thread count.
#pragma once

#include <string>

#include "fleet/fleet.h"
#include "fleet/user_world.h"
#include "sim/chaos.h"

namespace simba::fleet {

struct ChaosWorkloadOptions {
  UserWorldOptions world;
  /// The fault mix; ChaosScenario::presets() is the standard matrix.
  sim::ChaosScenario scenario;
  /// Dense enough that every fault window has traffic to bite.
  double alerts_per_user_day = 72.0;
  Duration horizon = hours(8);
  /// Extra virtual time so fallback email tails and watchdog-driven
  /// recovery land before the invariants are scored.
  Duration drain = hours(2);
};

/// Builds one chaos UserWorld from the shard seed, replays the alert
/// day, scores the InvariantChecker at horizon, and reports: one epoch
/// of the fleet driver (fleet/resume.h). Counters emitted on top of the
/// portal set:
///   invariant.submitted / delivered / failed / in_flight / ...
///   invariant.violations.* — every key must stay 0 (asserted by
///                            tests/chaos_test.cc per shard and merged)
///   chaos.* — per-fault injection counts, for scenario sanity checks
ShardResult run_chaos_shard(const ShardTask& task,
                            const ChaosWorkloadOptions& options);

}  // namespace simba::fleet
