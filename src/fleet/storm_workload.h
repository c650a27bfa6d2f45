// The storm workload run inside one fleet shard (experiment E12).
//
// A storm is correlated overload: Aladdin home sensors cascading
// (one motion event trips many sensors within seconds) and legacy
// proxy pollers bursting (a poll cycle finds many changed pages at
// once), stacked on the normal background and a sparse stream of
// high-importance critical alerts. The shard replays that mix against
// one user's MyAlertBuddy deployment and scores what the overload
// defenses (DESIGN.md §14) protect: the critical alerts' delivery
// latency, and the extended conservation identity
//
//   submitted = delivered + failed + shed + coalesced + in-flight
//
// with every shed and coalesce accounted and traced. Everything is a
// pure function of the shard seed, so the defended and undefended
// configurations are comparable burst for burst.
#pragma once

#include <string>

#include "core/mab.h"
#include "fleet/fleet.h"
#include "fleet/user_world.h"
#include "sim/chaos.h"

namespace simba::fleet {

/// The standard defended configuration: per-user and per-source
/// token-bucket admission, semantic coalescing into digests, strict
/// priority lanes, and bounded queues everywhere.
core::OverloadOptions storm_defenses();

/// The ablation control: identical engine concurrency, but a single
/// unbounded FIFO lane, no admission control, and no coalescing —
/// critical alerts wait behind the whole storm backlog.
core::OverloadOptions storm_no_defenses();

struct StormWorkloadOptions {
  UserWorldOptions world;
  /// Optional fault mix realized from the shard seed (storm_crash is
  /// the designed companion). An empty scenario injects nothing.
  sim::ChaosScenario scenario;
  Duration horizon = hours(4);
  /// Extra virtual time so queued deliveries, digest flushes, and
  /// recovery replays land before the invariants are scored.
  Duration drain = hours(2);

  /// Poisson floor of ordinary "src" alerts (per day).
  double background_per_day = 48.0;
  /// Sparse high-importance stream (per day) whose p99 latency the
  /// defenses exist to protect.
  double critical_per_day = 96.0;

  /// Correlated Aladdin sensor cascades: each cascade fires
  /// `cascade_size` alerts spread over ~`cascade_spread`.
  int sensor_cascades = 6;
  int cascade_size = 40;
  Duration cascade_spread = seconds(20);

  /// Proxy poll bursts: each burst fires `burst_size` alerts spread
  /// over ~`burst_spread`.
  int poll_bursts = 4;
  int burst_size = 60;
  Duration burst_spread = seconds(45);
};

/// Builds one storm UserWorld from the shard seed, replays the storm,
/// scores the InvariantChecker at horizon, and reports: one epoch of
/// the fleet driver (fleet/resume.h), which numbers alerts in arrival
/// order. On top of the chaos-workload counter set it emits:
///   alerts.critical           — critical alerts submitted
///   invariant.shed/coalesced  — terminal overload outcomes
///   admission.* / coalesce.* / inbox.* / routing.* — MAB-side
///     overload accounting, aggregated across incarnations
///   pending.shed        — bus transport sheds
/// and fills ShardResult::critical_latency alongside the usual
/// delivery statistics.
ShardResult run_storm_shard(const ShardTask& task,
                            const StormWorkloadOptions& options);

}  // namespace simba::fleet
