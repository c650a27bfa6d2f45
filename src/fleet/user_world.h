// One fleet shard = one user's complete MyAlertBuddy deployment:
// its own Simulator, message infrastructure, buddy host, the human
// endpoint, and (optionally) one SIMBA-library source. Nothing in a
// UserWorld is shared with any other shard, which is what makes the
// fleet embarrassingly parallel.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/mab_host.h"
#include "core/source_endpoint.h"
#include "core/user_endpoint.h"
#include "email/email_server.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/chaos.h"
#include "sim/invariants.h"
#include "sim/simulator.h"
#include "sms/sms.h"
#include "util/trace.h"

namespace simba::fleet {

struct WorldState;

/// Delay-model fidelity: fast loss-free channels for tests, or the
/// Section-5-calibrated channels for benches.
enum class ModelFidelity { kFast, kCalibrated };

/// The one channel-model table: sets the IM link, e-mail and SMS delay
/// models of one fidelity. Every world builds from it — UserWorld, the
/// bench ExperimentWorld and the test World.
void apply_channel_models(net::MessageBus& bus,
                          email::EmailServer& email_server,
                          sms::SmsGateway& sms_gateway,
                          ModelFidelity fidelity);

struct UserWorldOptions {
  std::string user = "user";
  ModelFidelity fidelity = ModelFidelity::kCalibrated;
  Duration email_check_interval = minutes(60);
  /// Wire a SourceEndpoint targeting the buddy (the IM-with-ack
  /// followed-by-email path). Without one the shard only receives
  /// legacy portal email.
  bool with_source = false;
  /// Fault plans: IM service outages and session resets, user-away
  /// windows, and a flaky buddy IM client — the conservation-matrix
  /// environment. All derived from the shard seed.
  bool faults = false;
  /// Horizon the fault plans should cover.
  Duration fault_horizon = days(1);
  /// Chaos scenario realized deterministically from the shard seed
  /// over fault_horizon (sim/chaos.h). An empty scenario (no clauses)
  /// injects nothing.
  sim::ChaosScenario chaos;
  /// Builds the per-world InvariantChecker and wires the user's
  /// sighting feed into it. The fleet driver passes its own checker
  /// through shared_invariants instead.
  bool track_invariants = false;
  /// Arms lifecycle tracing into UserWorld::trace in the bus, the
  /// alert log, and every MAB incarnation: its per-stage table, plus
  /// every span when keep_spans is set. Off by default: the portal
  /// scale bench opts in, chaos and storm runs always fill the table.
  bool trace = false;
  /// Keeps each span of a traced world, not just the per-stage table.
  /// Only readers of single spans set it: JSONL dumps, golden traces,
  /// violation reports that list an alert's lifecycle. Multi-epoch
  /// driver runs set it too, because a checkpoint image carries the
  /// trace as its span list (fleet/driver.cc).
  bool keep_spans = false;
  /// Overload defenses (DESIGN.md §14): token-bucket admission,
  /// semantic coalescing, priority lanes, bounded queues. The all-zero
  /// default disables every defense, leaving pre-storm worlds (and
  /// their golden traces) untouched.
  core::OverloadOptions overload;
  /// Bounds the bus in-flight pool; over-bound sends are shed with
  /// accounting ("pending.shed"). 0 = unbounded.
  std::size_t bus_pending_bound = 0;
  /// Adds the storm category plumbing (Motion → Aladdin/Urgent,
  /// Poll → Portal/Casual) on top of the legacy fleet config. Purely
  /// additive; off keeps the config identical to the pre-storm one.
  bool storm_config = false;
  /// Crash-restart state (fleet/world_state.h) to rebuild this world
  /// around, or null for a cold start. With resume set, construction
  /// re-aligns the kernel clock, restores every persistent component
  /// before its start(), takes over the carried trace (leaving
  /// resume->trace empty), and skips fault / chaos triggers that already
  /// fired before the checkpoint (their sim.at() times would otherwise
  /// clamp to the restored clock and re-fire at epoch start). Must
  /// outlive the constructor call only.
  WorldState* resume = nullptr;
  /// When set, the world's conservation observers feed this external
  /// checker instead of building an own one, letting a multi-epoch
  /// driver track alert conservation across world rebuilds. Overrides
  /// track_invariants; the caller owns the checker's lifetime.
  sim::InvariantChecker* shared_invariants = nullptr;
};

struct UserWorld {
  UserWorld(std::uint64_t seed, const UserWorldOptions& options);

  sim::Simulator sim;
  /// Lifecycle trace; stays empty unless options.trace, and keeps
  /// spans only with options.keep_spans. Declared before the
  /// components that emit into it so it outlives them all.
  util::Trace trace;
  net::MessageBus bus;
  im::ImServer im_server;
  email::EmailServer email_server;
  sms::SmsGateway sms_gateway;
  /// Realized chaos schedule; null when options.chaos is empty.
  std::unique_ptr<sim::ChaosPlan> chaos_plan;
  /// Conservation tracker; null unless options.track_invariants.
  std::unique_ptr<sim::InvariantChecker> invariants;
  std::unique_ptr<core::UserEndpoint> user;
  std::unique_ptr<core::MabHost> host;
  std::unique_ptr<core::SourceEndpoint> source;  // null unless with_source
};

}  // namespace simba::fleet
