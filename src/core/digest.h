// Retention for filtered alerts.
//
// Section 3.3 describes MyAlertBuddy as "a personal alert filter that
// temporarily blocks unwanted alerts, which might have been useful
// before and may be useful in the future" — blocked is not discarded.
// Alerts arriving for a disabled category are retained here and
// delivered as a once-a-day digest email (or on demand via the
// "SIMBA DIGEST" remote command). Like the pessimistic log, the store
// is a disk file owned by the host machine, surviving MAB restarts.
#pragma once

#include <string>
#include <vector>

#include "core/alert.h"
#include "util/stats.h"

namespace simba::core {

class DigestStore {
 public:
  struct Entry {
    Alert alert;
    std::string category;
    TimePoint filtered_at{};
  };

  void add(const Alert& alert, const std::string& category, TimePoint at);

  /// Returns everything retained and clears the store (the digest was
  /// sent).
  std::vector<Entry> drain();

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Renders the digest email body: one line per alert, grouped by
  /// category, oldest first.
  std::string render_body() const;

  const Counters& stats() const { return stats_; }

  /// Checkpoint state (sim/snapshot.h): like the alert log, the store
  /// models a disk file and is carried verbatim across a crash-restart.
  struct State {
    std::vector<Entry> entries;
    Counters stats;
  };
  State save_state() const { return State{entries_, stats_}; }
  void restore_state(State state) {
    entries_ = std::move(state.entries);
    stats_ = std::move(state.stats);
  }

 private:
  std::vector<Entry> entries_;
  Counters stats_;
};

}  // namespace simba::core
