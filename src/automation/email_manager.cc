#include "automation/email_manager.h"

#include "util/log.h"

namespace simba::automation {

EmailManager::EmailManager(sim::Simulator& sim, gui::Desktop& desktop,
                           email::EmailClientApp& client)
    : CommunicationManager(sim, desktop, client,
                           "email_manager." + client.mailbox_address()),
      client_(client) {
  add_caption_pair("out of office", "Cancel");
  add_caption_pair("mailbox is full", "OK");
  add_caption_pair("send/receive error", "OK");
}

void EmailManager::start() {
  if (!client_.running()) client_.launch();
  refresh_pointer();
  start_monkey();
}

void EmailManager::sanity_check() {
  stats().bump("sanity_checks");
  const std::uint64_t epoch = report_epoch();

  if (client_.state() == gui::ProcessState::kHung) {
    stats().bump("hung_detected");
    finish(epoch,
           {.healthy = false, .needs_restart = true, .detail = "client hung"});
    return;
  }
  if (!client_.running()) {
    stats().bump("dead_detected");
    finish(epoch, {.healthy = false,
                   .needs_restart = true,
                   .detail = "client not running"});
    return;
  }
  if (!pointer_valid()) {
    refresh_pointer();
    stats().bump("pointers_refreshed");
  }
  if (desktop_.any_blocking(app_.name())) {
    if (monkey_active()) monkey_sweep();
    if (desktop_.any_blocking(app_.name())) {
      stats().bump("blocked_by_dialog");
      finish(epoch, {.healthy = false,
                     .detail = "blocked by unhandled modal dialog"});
      return;
    }
  }
  try {
    const Status status = client_.verify_connection();
    if (status.ok()) {
      finish(epoch, {.healthy = true, .detail = "ok"});
    } else {
      finish(epoch, {.healthy = false, .detail = status.error()});
    }
  } catch (const gui::AutomationError& e) {
    stats().bump("automation_errors");
    finish(epoch, {.healthy = false,
                   .needs_restart = true,
                   .detail = std::string("automation error: ") + e.what()});
  }
}

Status EmailManager::send_email(email::Email mail) {
  try {
    return client_.send_email(mail);
  } catch (const gui::AutomationError& e) {
    stats().bump("automation_errors");
    log_warn(name(), std::string("send threw: ") + e.what() + "; restarting");
    restart();
    try {
      return client_.send_email(std::move(mail));
    } catch (const gui::AutomationError& e2) {
      stats().bump("automation_errors");
      return Status::failure(std::string("send failed twice: ") + e2.what());
    }
  }
}

std::vector<email::Email> EmailManager::fetch_unread_safe() {
  try {
    return client_.fetch_unread();
  } catch (const gui::AutomationError&) {
    stats().bump("automation_errors");
    return {};
  }
}

void EmailManager::set_on_new_mail(std::function<void()> handler) {
  client_.set_new_mail_event(std::move(handler));
}

}  // namespace simba::automation
