// End-to-end alert-conservation invariants (experiment E10).
//
// The checker follows every submitted alert through
//   submit -> (pessimistic) log -> ack -> deliver / explicit fail
// and, at the horizon, asserts the paper's dependability contract:
//
//   * conservation — submitted == delivered + explicitly-failed +
//     shed + coalesced + in-flight; an alert still in flight must be
//     *recoverable* (in the persistent log or an unread mailbox),
//     never vanished; shed (bounded-queue overflow) and coalesced
//     (folded into a digest alert) are explicit, traced outcomes, not
//     silent losses;
//   * no phantom deliveries — the user never sees an alert nobody sent;
//   * log-before-ack — an acknowledged primary-channel delivery was
//     already persisted when the ack went out, and the record never
//     disappears afterwards;
//   * duplicates only where permitted — repeat sightings are legal
//     exactly where the paper's timestamp-based duplicate detection
//     expects them (multi-channel fallback, at-least-once resends);
//     with duplicates disallowed any repeat sighting is a violation.
//
// One checker per world; the chaos fleet workload
// (src/fleet/driver.cc) feeds it and folds its report into the
// shard counters, so violations surface through the deterministic
// merged fleet report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/flat_map.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/trace.h"

namespace simba::sim {

class InvariantChecker {
 public:
  struct Options {
    /// Repeat sightings of one alert are legal (multi-channel fallback
    /// or chaos duplication in play). When false, any repeat sighting
    /// is an illegal duplicate.
    bool duplicates_allowed = true;
  };

  InvariantChecker() = default;
  explicit InvariantChecker(Options options) : options_(options) {}

  /// A source handed the alert to the delivery pipeline.
  void on_submitted(const std::string& id, TimePoint at);
  /// The source received an acknowledgement. `block` is the delivery
  /// block that succeeded (0 = primary IM leg); `logged` is whether the
  /// persistent log held the alert at that instant.
  void on_acked(const std::string& id, int block, bool logged, TimePoint at);
  /// The user saw the alert (every sighting, duplicates included).
  void on_delivered(const std::string& id, const std::string& channel,
                    TimePoint at);
  /// The source was told delivery failed (all blocks exhausted).
  void on_failed(const std::string& id, TimePoint at);
  /// A bounded queue dropped the alert with explicit accounting
  /// (MAB inbox bound, delivery-lane bound).
  void on_shed(const std::string& id, TimePoint at);
  /// Admission control folded the alert into a digest instead of
  /// delivering it individually.
  void on_coalesced(const std::string& id, TimePoint at);
  /// Horizon-time mark: the alert is neither delivered nor failed but
  /// still held somewhere recovery can reach (persistent log, unread
  /// mailbox) — in flight, not lost.
  void on_recoverable(const std::string& id);

  /// Submitted alerts with no terminal state yet — the set the caller
  /// sweeps at horizon to decide recoverability.
  std::vector<std::string> unresolved() const;

  struct Report {
    // Population, bucketed disjointly
    // (delivered > failed > shed > coalesced > in-flight).
    std::int64_t submitted = 0;
    std::int64_t delivered = 0;
    std::int64_t failed = 0;
    std::int64_t shed = 0;
    std::int64_t coalesced = 0;
    std::int64_t in_flight = 0;
    std::int64_t duplicate_sightings = 0;
    // Alerts recorded in more than one outcome class (e.g. delivered
    // *and* coalesced). Legal only where duplicates are: a crash after
    // routing but before the processed-mark can replay an alert into a
    // different outcome, exactly like a duplicate sighting.
    std::int64_t double_accounted = 0;
    std::int64_t acked = 0;
    std::int64_t logged = 0;

    // Violations — all must be zero for the contract to hold.
    std::int64_t phantom_deliveries = 0;  // seen/acked/failed, never sent
    std::int64_t ack_unlogged = 0;  // primary-leg ack before persistence
    std::int64_t log_vanished = 0;  // acked record later missing from log
    std::int64_t vanished = 0;      // no terminal state, not recoverable
    std::int64_t illegal_duplicates = 0;
    std::int64_t illegal_double_accounted = 0;
    std::int64_t conservation_gap = 0;  // submitted minus bucket sum

    /// Ids of the alerts behind the per-alert violation classes above
    /// (sorted, deduplicated). The trace-aware describe() prints each
    /// one's full lifecycle.
    std::vector<std::string> violating_ids;

    std::int64_t violations() const {
      return phantom_deliveries + ack_unlogged + log_vanished + vanished +
             illegal_duplicates + illegal_double_accounted +
             (conservation_gap != 0 ? 1 : 0);
    }
    bool ok() const { return violations() == 0; }

    /// Folds the report into a counter bag under `prefix` — the bridge
    /// into ShardResult counters and the merged fleet report.
    void export_to(Counters& counters,
                   const std::string& prefix = "invariant.") const;
    std::string describe() const;
    /// describe(), then — when the contract is broken and a trace is
    /// available — each violating alert's full lifecycle from it.
    std::string describe(const util::Trace* trace) const;
  };

  /// Evaluates the contract over everything recorded so far. `logged_now`
  /// results from a final log probe per acked id: an id acked as logged
  /// must still be present (pessimistic log records never vanish). Pass
  /// nullptr to skip that probe (no log in the world).
  using LoggedNowMap = util::FlatMap<std::string, bool>;
  Report check(const LoggedNowMap* logged_now = nullptr) const;

  /// Checkpoint state (sim/snapshot.h): the full per-alert bookkeeping,
  /// so a resumed run's horizon sweep sees exactly the history the
  /// uninterrupted run would.
  struct TrackState {
    std::string id;
    bool submitted = false;
    bool logged = false;
    bool acked = false;
    bool acked_logged = false;
    int ack_block = -1;
    bool failed = false;
    bool shed = false;
    int coalesces = 0;
    bool recoverable = false;
    int sightings = 0;
    TimePoint submitted_at{};
    TimePoint first_seen{};
  };
  struct State {
    bool duplicates_allowed = true;
    std::vector<TrackState> tracks;  // sorted by id
  };
  State save_state() const;
  void restore_state(const State& state);

 private:
  struct Track {
    bool submitted = false;
    bool logged = false;
    bool acked = false;
    bool acked_logged = false;  // log held the alert when the ack left
    int ack_block = -1;
    bool failed = false;
    bool shed = false;
    int coalesces = 0;
    bool recoverable = false;
    int sightings = 0;
    TimePoint submitted_at{};
    TimePoint first_seen{};
  };

  Track& track(const std::string& id) { return tracks_[id]; }

  Options options_;
  /// Per-alert bookkeeping. The per-event record path is a hash probe;
  /// every sweep that observes order (check(), unresolved(),
  /// save_state()) walks sorted_items() so violating-id dedup, horizon
  /// sweeps, and snapshot images stay byte-identical to the old
  /// sorted-map behaviour.
  util::FlatMap<std::string, Track> tracks_;
};

}  // namespace simba::sim
