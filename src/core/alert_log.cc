#include "core/alert_log.h"

namespace simba::core {

bool AlertLog::append(const Alert& alert, TimePoint now) {
  const auto it = index_.find(alert.id);
  if (it != index_.end()) {
    stats_.bump("duplicate_appends");
    if (trace_ != nullptr) {
      trace_->emit(alert.id, "log", "append", now, "duplicate");
    }
    return false;
  }
  Record record;
  record.alert = alert;
  record.received_at = now;
  index_[alert.id] = records_.size();
  records_.push_back(std::move(record));
  stats_.bump("appends");
  if (trace_ != nullptr) {
    // The span covers the synchronous-write window: the ack may only
    // go out at its end.
    trace_->emit(alert.id, "log", "append", now, now + write_latency_,
                 "fresh");
  }
  return true;
}

void AlertLog::mark_processed(const std::string& alert_id, TimePoint now) {
  const auto it = index_.find(alert_id);
  if (it == index_.end()) return;
  Record& record = records_[it->second];
  if (record.processed) return;
  record.processed = true;
  record.processed_at = now;
  stats_.bump("processed");
  if (trace_ != nullptr) {
    trace_->emit(alert_id, "log", "mark_processed", now);
  }
}

std::vector<std::string> AlertLog::power_loss(TimePoint now, Rng& rng,
                                              double torn_probability) {
  std::vector<std::string> torn;
  if (torn_probability <= 0.0 || records_.empty()) return torn;
  // Unsynced appends are the ones whose write window is still open.
  // They necessarily form a suffix of the arrival-ordered records, but
  // each is torn independently. Decide the torn set first: a cut that
  // tears nothing must leave the records untouched.
  std::vector<bool> lost(records_.size(), false);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    const bool unsynced =
        !record.processed && record.received_at + write_latency_ > now;
    if (unsynced && rng.chance(torn_probability)) {
      lost[i] = true;
      torn.push_back(record.alert.id);
    }
  }
  if (torn.empty()) return torn;

  std::vector<Record> kept;
  kept.reserve(records_.size() - torn.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!lost[i]) kept.push_back(std::move(records_[i]));
  }
  records_ = std::move(kept);
  index_.clear();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    index_[records_[i].alert.id] = i;
  }
  stats_.bump("torn_appends", static_cast<std::int64_t>(torn.size()));
  if (trace_ != nullptr) {
    for (const std::string& id : torn) {
      trace_->emit(id, "log", "torn", now, "append lost to power cut");
    }
  }
  return torn;
}

bool AlertLog::contains(const std::string& alert_id) const {
  return index_.count(alert_id) > 0;
}

bool AlertLog::processed(const std::string& alert_id) const {
  const auto it = index_.find(alert_id);
  return it != index_.end() && records_[it->second].processed;
}

std::vector<Alert> AlertLog::unprocessed() const {
  std::vector<Alert> out;
  for (const auto& record : records_) {
    if (!record.processed) out.push_back(record.alert);
  }
  return out;
}

void AlertLog::restore_state(State state) {
  records_ = std::move(state.records);
  index_.clear();
  for (std::size_t slot = 0; slot < records_.size(); ++slot) {
    index_[records_[slot].alert.id] = slot;
  }
  stats_ = std::move(state.stats);
}

}  // namespace simba::core
