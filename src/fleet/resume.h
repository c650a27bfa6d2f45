// The fleet's one shard driver, and resumable multi-epoch runs built
// on it: deterministic world checkpoint / restore, proven by the
// resume-equivalence matrix (tests/resume_test.cc, DESIGN.md §15).
//
// Every portal, chaos and storm shard runs the same way: the whole
// arrival plan is realized once from the shard seed and carried as
// data, fed epoch by epoch into a UserWorld rebuilt at each boundary,
// and scored at the end. A plain run (run_portal_shard,
// run_chaos_shard, run_storm_shard) is one epoch of it.
//
// A resumable run divides its horizon into epochs. Every epoch — in
// every run, resumed or not — tears the per-shard UserWorld down at the
// boundary and rebuilds it from the persistent WorldState
// (fleet/world_state.h): pending kernel events and in-flight messages
// die, exactly as in a machine restart, and recovery flows through the
// paper's own path (pessimistic-log replay on the next MAB start). The
// boundary is therefore a *planned crash-restart* — the simulator
// sibling of the paper's nightly software rejuvenation — and because
// the baseline run crosses the same boundaries, carrying WorldState in
// memory, the equivalence proof reduces to:
//
//   run A (carry state in memory across all boundaries)
//     ==  run B (encode state to a snapshot image at epoch k, stop)
//       + run C (decode the image in a fresh process, run to the end)
//
// byte-for-byte: identical correctness_json() and identical JSONL
// traces, across seeds x checkpoint epochs x {portal, chaos, storm}
// workloads, serial == threaded. The checkpoint itself is the new
// chaos dimension: a simulator crash-restart at an arbitrary epoch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "fleet/chaos_workload.h"
#include "fleet/fleet.h"
#include "fleet/portal_workload.h"
#include "fleet/storm_workload.h"
#include "util/result.h"
#include "util/stats.h"

namespace simba::fleet {

/// Which workload family a run replays; the checkpoint image records
/// it. Numbered after the WorkloadOptions alternatives, in order.
enum class ResumeKind : std::uint32_t {
  kPortal = 1,  // portal mail into the buddy's mailbox, or source IM
  kChaos = 2,   // SIMBA-library source under a chaos scenario
  kStorm = 3,   // correlated overload (cascades + bursts + criticals)
};

const char* to_string(ResumeKind kind);

/// One workload's own options; the alternative held is the kind.
using WorkloadOptions = std::variant<PortalWorkloadOptions,
                                     ChaosWorkloadOptions,
                                     StormWorkloadOptions>;

struct ResumableOptions {
  /// World knobs, run length (horizon + drain), traffic and fault mix.
  /// The driver adds the per-kind plumbing (source, storm config,
  /// tracing, shared invariant checker) itself.
  WorkloadOptions workload = ChaosWorkloadOptions{};
  FleetOptions fleet;
  /// Number of equal arrival windows; boundaries at horizon * i/epochs.
  /// The drain runs after the last one.
  int epochs = 4;
  /// No arrivals land this close before an interior boundary, so
  /// source-side deliveries resolve before the world is torn down —
  /// the quiesce window of a planned restart.
  Duration boundary_gap = minutes(15);
};

ResumeKind kind_of(const ResumableOptions& options);

struct ResumeControl {
  /// Cut a checkpoint image once this many epochs have completed
  /// (1 <= k < epochs). 0 = never checkpoint.
  int checkpoint_after_epoch = 0;
  /// Kill the run at the checkpoint instead of continuing — the "B"
  /// half of the equivalence matrix. The report of a stopped run is
  /// meaningless; only the checkpoint image survives.
  bool stop_at_checkpoint = false;
};

struct ResumableRun {
  /// True when the run reached horizon + drain; false when it was
  /// stopped at a checkpoint.
  bool completed = false;
  /// The merged fleet report; valid only when completed.
  FleetReport report;
  /// The fleet checkpoint image; non-empty when a checkpoint was cut.
  std::string checkpoint;
};

/// Runs the whole resumable fleet from epoch 0. `ckpt_stats` (nullable)
/// receives the ckpt.* accounting — saved/restored images, bytes — and
/// is bumped outside the parallel shard bodies so it never perturbs the
/// deterministic report.
ResumableRun run_resumable_fleet(const ResumableOptions& options,
                                 const ResumeControl& control = {},
                                 Counters* ckpt_stats = nullptr);

/// Restores a fleet checkpoint produced by run_resumable_fleet (with
/// the same options) into fresh worlds and runs it to completion. Any
/// malformed image — truncated, bit-flipped, version-skewed, reordered,
/// or cut from mismatched options — yields a clean error, never UB.
Result<ResumableRun> resume_fleet(const ResumableOptions& options,
                                  std::string_view image,
                                  const ResumeControl& control = {},
                                  Counters* ckpt_stats = nullptr);

}  // namespace simba::fleet
