// Pessimistic logging for MyAlertBuddy (Section 4.2.1).
//
// "Upon receiving an IM, MyAlertBuddy instructs the SIMBA library to
// save a copy to a log file before sending the acknowledgement. After
// processing the IM, MyAlertBuddy marks the saved copy as 'Processed'.
// Every time MyAlertBuddy is restarted, it first checks the log file
// for unprocessed IMs before accepting new alerts."
//
// The log models a disk file: it survives MAB restarts (it is owned by
// the host machine, not the MAB incarnation) and each append costs a
// synchronous write latency — the difference between the paper's <1 s
// one-way IM time and the ~1.5 s acknowledged time (experiments E1/E2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/alert.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/trace.h"

namespace simba::core {

class AlertLog {
 public:
  explicit AlertLog(Duration write_latency = millis(250))
      : write_latency_(write_latency) {}

  /// Synchronous-write cost the caller must spend before acking.
  Duration write_latency() const { return write_latency_; }

  /// Records an alert as Received. Idempotent per alert id: a resent
  /// alert refreshes nothing and reports whether it was already known
  /// (duplicate suppression at the MAB).
  /// Returns true if this is the first time the alert id is seen.
  bool append(const Alert& alert, TimePoint now);

  void mark_processed(const std::string& alert_id, TimePoint now);

  /// Crash-window model (sim/chaos.h): power dies at `now`. Appends
  /// still inside their synchronous-write window (received less than
  /// write_latency ago, not yet processed) may be torn from the disk
  /// with probability `torn_probability` each. Exactly the window
  /// pessimistic logging protects: a torn record can never have been
  /// acked, because the ack only goes out after the write completes —
  /// so the source still holds the alert and will fail over. Returns
  /// the ids torn (counted under "torn_appends").
  std::vector<std::string> power_loss(TimePoint now, Rng& rng,
                                      double torn_probability);

  bool contains(const std::string& alert_id) const;
  bool processed(const std::string& alert_id) const;

  /// Unprocessed alerts in arrival order — the restart recovery scan.
  std::vector<Alert> unprocessed() const;

  std::size_t size() const { return records_.size(); }
  const Counters& stats() const { return stats_; }

  /// Arms lifecycle tracing (null disables it). A fresh append emits a
  /// span covering its synchronous-write window; duplicates, processed
  /// marks, and torn records emit instant events.
  void set_trace(util::Trace* trace) { trace_ = trace; }

  /// One log entry: the alert as received, and its Processed mark.
  struct Record {
    Alert alert;
    TimePoint received_at{};
    TimePoint processed_at{};
    bool processed = false;
  };

  /// Checkpoint state (sim/snapshot.h). The log *is* the paper's
  /// persistence story, so it is carried verbatim across a
  /// crash-restart: records in arrival order plus the counter bag; the
  /// id index is rebuilt on restore.
  struct State {
    std::vector<Record> records;
    Counters stats;
  };
  State save_state() const { return State{records_, stats_}; }
  void restore_state(State state);

 private:
  Duration write_latency_;
  std::vector<Record> records_;  // arrival order
  /// alert id -> records_ slot. Lookup-only (rebuilt on truncation and
  /// restore); the per-alert dedup probe is a flat-map hash hit.
  util::FlatMap<std::string, std::size_t> index_;
  Counters stats_;
  util::Trace* trace_ = nullptr;
};

}  // namespace simba::core
