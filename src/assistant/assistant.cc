#include "assistant/assistant.h"

#include "util/log.h"
#include "util/strings.h"

namespace simba::assistant {

DesktopAssistant::DesktopAssistant(sim::Simulator& sim,
                                   email::EmailServer& mail,
                                   std::string mailbox,
                                   Duration idle_threshold)
    : sim_(sim),
      mail_(mail),
      mailbox_(std::move(mailbox)),
      idle_threshold_(idle_threshold),
      last_activity_(sim.now()) {
  mail_.create_mailbox(mailbox_);
}

void DesktopAssistant::record_user_activity() {
  last_activity_ = sim_.now();
  // The user is at the machine: everything delivered so far is theirs
  // to see; the assistant must not re-alert it.
  mail_cursor_ = mail_.mailbox(mailbox_).size();
}

void DesktopAssistant::add_reminder(TimePoint when, const std::string& subject,
                                    bool high_importance) {
  sim_.at(
      when,
      [this, subject, high_importance] {
        fire_reminder(subject, high_importance);
      },
      "assistant.reminder");
}

void DesktopAssistant::start(Duration check_interval) {
  stop();
  sweep_task_ = sim_.every(check_interval, [this] { sweep_mailbox(); },
                           "assistant.sweep");
}

void DesktopAssistant::stop() { sweep_task_.cancel(); }

void DesktopAssistant::sweep_mailbox() {
  const auto& box = mail_.mailbox(mailbox_);
  if (!user_away()) {
    // User present: they are reading their own mail.
    mail_cursor_ = box.size();
    return;
  }
  while (mail_cursor_ < box.size()) {
    const email::Email& m = box[mail_cursor_++];
    if (!m.high_importance) continue;
    stats_.bump("important_emails_seen");
    emit("Important Email", "Important email from " + m.from,
         "Subject: " + m.subject, /*high_importance=*/true);
  }
}

void DesktopAssistant::fire_reminder(const std::string& subject,
                                     bool high_importance) {
  stats_.bump("reminders_fired");
  if (!user_away()) {
    // The reminder popped on screen and the user is there to see it.
    stats_.bump("reminders_seen_locally");
    return;
  }
  if (!high_importance) return;
  emit("Reminder", "Reminder: " + subject,
       "Calendar reminder fired while you were away.", true);
}

void DesktopAssistant::emit(const std::string& category,
                            const std::string& subject,
                            const std::string& body, bool high_importance) {
  core::Alert alert;
  alert.source = "desktop.assistant";
  alert.native_category = category;
  alert.subject = subject;
  alert.body = body;
  alert.high_importance = high_importance;
  alert.created_at = sim_.now();
  alert.id = strformat("assistant-%llu",
                       static_cast<unsigned long long>(next_alert_++));
  stats_.bump("alerts_generated");
  SIMBA_LOG_INFO("assistant", "alert: " + subject);
  if (sink_) sink_(alert);
}

}  // namespace simba::assistant
