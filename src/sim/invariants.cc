#include "sim/invariants.h"

#include "util/strings.h"

namespace simba::sim {

void InvariantChecker::on_submitted(const std::string& id, TimePoint at) {
  Track& t = track(id);
  t.submitted = true;
  t.submitted_at = at;
}

void InvariantChecker::on_acked(const std::string& id, int block, bool logged,
                                TimePoint) {
  Track& t = track(id);
  if (!t.acked) {
    t.acked = true;
    t.ack_block = block;
    t.acked_logged = logged;
  }
  if (logged) t.logged = true;
}

void InvariantChecker::on_delivered(const std::string& id, const std::string&,
                                    TimePoint at) {
  Track& t = track(id);
  if (t.sightings == 0) t.first_seen = at;
  ++t.sightings;
}

void InvariantChecker::on_failed(const std::string& id, TimePoint) {
  track(id).failed = true;
}

void InvariantChecker::on_shed(const std::string& id, TimePoint) {
  track(id).shed = true;
}

void InvariantChecker::on_coalesced(const std::string& id, TimePoint) {
  ++track(id).coalesces;
}

void InvariantChecker::on_recoverable(const std::string& id) {
  track(id).recoverable = true;
}

std::vector<std::string> InvariantChecker::unresolved() const {
  std::vector<std::string> out;
  for (const auto& [id, t] : tracks_.sorted_items()) {
    if (t.submitted && t.sightings == 0 && !t.failed && !t.shed &&
        t.coalesces == 0) {
      out.push_back(id);
    }
  }
  return out;
}

InvariantChecker::Report InvariantChecker::check(
    const LoggedNowMap* logged_now) const {
  Report report;
  // The sorted_items() walk keeps violating_ids sorted; the
  // lambda dedupes an id hitting several violation classes.
  const auto violating = [&report](const std::string& id) {
    if (report.violating_ids.empty() || report.violating_ids.back() != id) {
      report.violating_ids.push_back(id);
    }
  };
  for (const auto& [id, t] : tracks_.sorted_items()) {
    if (!t.submitted) {
      // Someone saw, acked, or failed an alert nobody submitted.
      ++report.phantom_deliveries;
      violating(id);
      continue;
    }
    ++report.submitted;
    if (t.logged) ++report.logged;
    if (t.acked) {
      ++report.acked;
      // Log-before-ack: a primary-leg (block 0) acknowledgement without
      // a persisted record breaks the pessimistic-logging contract.
      if (t.ack_block == 0 && !t.acked_logged) {
        ++report.ack_unlogged;
        violating(id);
      }
      // And the record must still be there now: pessimistic-log records
      // of acked alerts never vanish (a torn append can only hit an
      // unsynced — hence unacked — record).
      if (t.ack_block == 0 && t.acked_logged && logged_now) {
        const auto it = logged_now->find(id);
        if (it != logged_now->end() && !it->second) {
          ++report.log_vanished;
          violating(id);
        }
      }
    }
    if (t.sightings > 1) {
      report.duplicate_sightings += t.sightings - 1;
      if (!options_.duplicates_allowed) {
        report.illegal_duplicates += t.sightings - 1;
        violating(id);
      }
    }
    // An alert landing in more than one outcome class (delivered and
    // coalesced, shed and coalesced, coalesced twice) is accounted
    // once by the disjoint buckets below, but the overlap itself is
    // tracked — and, where duplicates are banned, a violation.
    const int outcome_classes = (t.sightings > 0 ? 1 : 0) +
                                (t.shed ? 1 : 0) + t.coalesces;
    if (outcome_classes > 1) {
      report.double_accounted += outcome_classes - 1;
      if (!options_.duplicates_allowed) {
        report.illegal_double_accounted += outcome_classes - 1;
        violating(id);
      }
    }
    // Disjoint terminal buckets,
    // delivered > failed > shed > coalesced > in-flight.
    if (t.sightings > 0) {
      ++report.delivered;
    } else if (t.failed) {
      ++report.failed;
    } else if (t.shed) {
      ++report.shed;
    } else if (t.coalesces > 0) {
      ++report.coalesced;
    } else if (t.recoverable) {
      ++report.in_flight;
    } else {
      ++report.vanished;  // silently lost — the one unforgivable outcome
      violating(id);
    }
  }
  report.conservation_gap = report.submitted - report.delivered -
                            report.failed - report.shed - report.coalesced -
                            report.in_flight - report.vanished;
  return report;
}

void InvariantChecker::Report::export_to(Counters& counters,
                                         const std::string& prefix) const {
  counters.add(prefix + "submitted", submitted);
  counters.add(prefix + "delivered", delivered);
  counters.add(prefix + "failed", failed);
  counters.add(prefix + "shed", shed);
  counters.add(prefix + "coalesced", coalesced);
  counters.add(prefix + "in_flight", in_flight);
  counters.add(prefix + "duplicate_sightings", duplicate_sightings);
  counters.add(prefix + "double_accounted", double_accounted);
  counters.add(prefix + "acked", acked);
  counters.add(prefix + "logged", logged);
  counters.add(prefix + "violations.phantom", phantom_deliveries);
  counters.add(prefix + "violations.ack_unlogged", ack_unlogged);
  counters.add(prefix + "violations.log_vanished", log_vanished);
  counters.add(prefix + "violations.vanished", vanished);
  counters.add(prefix + "violations.illegal_duplicates", illegal_duplicates);
  counters.add(prefix + "violations.double_accounted",
               illegal_double_accounted);
  counters.add(prefix + "violations.total", violations());
}

std::string InvariantChecker::Report::describe() const {
  std::string out = strformat(
      "conservation: %lld submitted = %lld delivered + %lld failed + %lld "
      "shed + %lld coalesced + %lld in-flight (+%lld vanished), %lld "
      "duplicate sightings, %lld double-accounted\n",
      static_cast<long long>(submitted), static_cast<long long>(delivered),
      static_cast<long long>(failed), static_cast<long long>(shed),
      static_cast<long long>(coalesced), static_cast<long long>(in_flight),
      static_cast<long long>(vanished),
      static_cast<long long>(duplicate_sightings),
      static_cast<long long>(double_accounted));
  if (ok()) {
    out += "invariants: OK\n";
  } else {
    out += strformat(
        "invariants: VIOLATED — phantom=%lld ack_unlogged=%lld "
        "log_vanished=%lld vanished=%lld illegal_duplicates=%lld "
        "double_accounted=%lld gap=%lld\n",
        static_cast<long long>(phantom_deliveries),
        static_cast<long long>(ack_unlogged),
        static_cast<long long>(log_vanished), static_cast<long long>(vanished),
        static_cast<long long>(illegal_duplicates),
        static_cast<long long>(illegal_double_accounted),
        static_cast<long long>(conservation_gap));
  }
  return out;
}

std::string InvariantChecker::Report::describe(
    const util::Trace* trace) const {
  std::string out = describe();
  if (ok() || trace == nullptr) return out;
  for (const std::string& id : violating_ids) {
    out += "--- trace for " + id + " ---\n";
    out += trace->describe(id);
  }
  return out;
}

InvariantChecker::State InvariantChecker::save_state() const {
  State state;
  state.duplicates_allowed = options_.duplicates_allowed;
  state.tracks.reserve(tracks_.size());
  for (const auto& [id, t] : tracks_.sorted_items()) {
    state.tracks.push_back(TrackState{
        id, t.submitted, t.logged, t.acked, t.acked_logged, t.ack_block,
        t.failed, t.shed, t.coalesces, t.recoverable, t.sightings,
        t.submitted_at, t.first_seen});
  }
  return state;
}

void InvariantChecker::restore_state(const State& state) {
  options_.duplicates_allowed = state.duplicates_allowed;
  tracks_.clear();
  for (const TrackState& s : state.tracks) {
    tracks_[s.id] =
        Track{s.submitted, s.logged,      s.acked,     s.acked_logged,
              s.ack_block, s.failed,      s.shed,      s.coalesces,
              s.recoverable, s.sightings, s.submitted_at, s.first_seen};
  }
}

}  // namespace simba::sim
