#include "core/coalescer.h"

#include <utility>

namespace simba::core {

std::string AlertCoalescer::Digest::alert_id() const {
  return kDigestIdPrefix + std::to_string(sequence);
}

std::string AlertCoalescer::Digest::subject() const {
  return std::to_string(count) + " " + category + " alert" +
         (count == 1 ? "" : "s") + " in " +
         format_duration(flushed_at - opened_at);
}

std::string AlertCoalescer::Digest::body() const {
  std::string body = "Coalesced " + std::to_string(count) + " " + category +
                     " alert" + (count == 1 ? "" : "s") + ".\n";
  if (!representative_ids.empty()) {
    body += "Representative alerts:\n";
    for (const auto& id : representative_ids) {
      body += "  " + id + "\n";
    }
  }
  return body;
}

AlertCoalescer::FoldResult AlertCoalescer::add(const Alert& alert,
                                               const std::string& category,
                                               TimePoint now) {
  auto it = windows_.find(category);
  bool opened = false;
  if (it == windows_.end()) {
    Window window;
    window.opened_at = now;
    window.deadline = now + options_.window;
    it = windows_.emplace(category, std::move(window)).first;
    opened = true;
  }
  Window& window = it->second;
  if (!window.folded_ids.insert(alert.id).second) {
    return FoldResult::kDuplicate;
  }
  window.count += 1;
  if (window.representative_ids.size() < options_.representatives) {
    window.representative_ids.push_back(alert.id);
  }
  if (options_.max_batch != 0 && window.count >= options_.max_batch) {
    return FoldResult::kBatchFull;
  }
  return opened ? FoldResult::kOpenedWindow : FoldResult::kFolded;
}

std::vector<AlertCoalescer::Digest> AlertCoalescer::flush_due(TimePoint now) {
  // Windows flush in category order: the flush sequence assigns digest
  // ids ("dg.<seq>"), so the order must match the old sorted-map walk.
  std::vector<std::string> due;
  for (const auto& [category, window] : windows_.sorted_items()) {
    if (window.deadline <= now) due.push_back(category);
  }
  std::vector<Digest> digests;
  digests.reserve(due.size());
  for (const std::string& category : due) {
    const auto it = windows_.find(category);
    digests.push_back(flush_window(category, it->second, now));
    windows_.erase(it);
  }
  return digests;
}

std::vector<AlertCoalescer::Digest> AlertCoalescer::flush_all(TimePoint now) {
  // Same category-ordered flush as flush_due (digest ids depend on it).
  std::vector<std::string> categories;
  categories.reserve(windows_.size());
  for (const auto& [category, window] : windows_.sorted_items()) {
    categories.push_back(category);
  }
  std::vector<Digest> digests;
  digests.reserve(categories.size());
  for (const std::string& category : categories) {
    digests.push_back(flush_window(category, windows_.find(category)->second, now));
  }
  windows_.clear();
  return digests;
}

std::size_t AlertCoalescer::pending_alerts() const {
  std::size_t total = 0;
  for (const auto& [category, window] : windows_) total += window.count;
  return total;
}

AlertCoalescer::Digest AlertCoalescer::flush_window(const std::string& category,
                                                    Window& window,
                                                    TimePoint now) {
  Digest digest;
  digest.category = category;
  digest.count = window.count;
  digest.representative_ids = std::move(window.representative_ids);
  digest.opened_at = window.opened_at;
  digest.flushed_at = now;
  digest.sequence = next_sequence_++;
  return digest;
}

AlertCoalescer::State AlertCoalescer::save_state() const {
  State state;
  state.windows.reserve(windows_.size());
  for (const auto& [category, window] : windows_.sorted_items()) {
    WindowState w;
    w.category = category;
    w.count = window.count;
    w.representative_ids = window.representative_ids;
    w.folded_ids = window.folded_ids.sorted_items();
    w.opened_at = window.opened_at;
    w.deadline = window.deadline;
    state.windows.push_back(std::move(w));
  }
  state.next_sequence = next_sequence_;
  return state;
}

void AlertCoalescer::restore_state(const State& state) {
  windows_.clear();
  for (const WindowState& w : state.windows) {
    Window window;
    window.count = w.count;
    window.representative_ids = w.representative_ids;
    for (const std::string& id : w.folded_ids) window.folded_ids.insert(id);
    window.opened_at = w.opened_at;
    window.deadline = w.deadline;
    windows_.emplace(w.category, std::move(window));
  }
  next_sequence_ = state.next_sequence;
}

}  // namespace simba::core
