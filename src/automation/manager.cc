#include "automation/manager.h"

#include "util/log.h"
#include "util/strings.h"

namespace simba::automation {

void CaptionRegistry::add(std::string caption_substring, std::string button) {
  pairs_.emplace_back(std::move(caption_substring), std::move(button));
}

bool CaptionRegistry::known(const std::string& caption) const {
  for (const auto& [sub, button] : pairs_) {
    if (icontains(caption, sub)) return true;
  }
  return false;
}

CommunicationManager::CommunicationManager(sim::Simulator& sim,
                                           gui::Desktop& desktop,
                                           gui::ClientApp& app,
                                           std::string name)
    : sim_(sim), desktop_(desktop), app_(app), name_(std::move(name)) {
  // System-generic pairs every Manager ships with (Section 4.1.1: "some
  // of the caption-button pairs are system-generic").
  captions_.add("error", "OK");
  captions_.add("warning", "OK");
  captions_.add("update available", "Later");
  captions_.add("connection lost", "OK");
}

CommunicationManager::~CommunicationManager() { monkey_task_.cancel(); }

void CommunicationManager::restart() {
  stats_.bump("restarts");
  SIMBA_LOG_INFO(name_, "shutdown/restart of " + app_.name());
  app_.kill();
  app_.launch();
  refresh_pointer();
}

void CommunicationManager::set_on_report(
    std::function<void(const SanityReport&)> observer) {
  on_report_ = std::move(observer);
  ++report_epoch_;
}

void CommunicationManager::finish(std::uint64_t epoch, SanityReport report) {
  if (report.needs_restart && auto_restart_) {
    restart();
    stats_.bump("restarts_from_sanity");
    report.detail += " (restarted)";
  }
  if (epoch == report_epoch_ && on_report_) on_report_(report);
}

void CommunicationManager::add_caption_pair(
    const std::string& caption_substring, const std::string& button) {
  captions_.add(caption_substring, button);
  SIMBA_LOG_INFO(name_, "caption pair added: \"" + caption_substring +
                            "\" -> [" + button + "]");
}

void CommunicationManager::start_monkey(Duration interval) {
  stop_monkey();
  monkey_task_ = sim_.every(
      interval, [this] { monkey_sweep(); }, "automation.monkey");
}

void CommunicationManager::stop_monkey() { monkey_task_.cancel(); }

int CommunicationManager::monkey_sweep() {
  int clicked = 0;
  // Keep clicking until nothing matches: a click may dismiss one of
  // several dialogs. Each pass snapshots the dialog list — click()
  // invalidates the live view (and references into it).
  bool progress = true;
  while (progress) {
    progress = false;
    const std::vector<gui::DialogBox> snapshot = desktop_.dialogs();
    for (const auto& box : snapshot) {
      const std::string caption = box.caption;
      for (const auto& [sub, button] : captions_.pairs()) {
        if (!icontains(caption, sub)) continue;
        if (desktop_.click(sub, button)) {
          stats_.bump("dialogs_clicked");
          SIMBA_LOG_DEBUG(name_, "monkey clicked \"" + caption + "\"");
          clicked++;
          progress = true;
        }
        break;
      }
      if (progress) break;  // dialog list changed; rescan
    }
  }
  return clicked;
}

std::vector<std::string> CommunicationManager::unknown_dialog_captions() const {
  std::vector<std::string> out;
  for (const auto& box : desktop_.dialogs()) {
    if (!captions_.known(box.caption)) out.push_back(box.caption);
  }
  return out;
}

}  // namespace simba::automation
