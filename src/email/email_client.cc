#include "email/email_client.h"

#include "util/log.h"

namespace simba::email {

EmailClientApp::EmailClientApp(sim::Simulator& sim, gui::Desktop& desktop,
                               EmailServer& server,
                               std::string mailbox_address,
                               gui::FaultProfile profile,
                               EmailClientConfig config)
    : gui::ClientApp(sim, desktop, "email_client." + mailbox_address,
                     std::move(profile)),
      server_(server),
      mailbox_address_(std::move(mailbox_address)),
      config_(config) {
  server_.create_mailbox(mailbox_address_);
}

void EmailClientApp::on_launch() {
  // A freshly launched client re-syncs from where it left off; the
  // server mailbox is durable, so nothing is lost across restarts.
  poll_task_ = sim().every(
      config_.poll_interval, [this] { poll(); }, "email.poll",
      /*immediate=*/true);
}

void EmailClientApp::on_kill() { poll_task_.cancel(); }

void EmailClientApp::poll() {
  if (state() != gui::ProcessState::kRunning) return;
  const auto& box = server_.mailbox(mailbox_address_);
  bool got_new = false;
  while (sync_cursor_ < box.size()) {
    unread_.push_back(box[sync_cursor_++]);
    stats().bump("messages_synced");
    got_new = true;
  }
  if (got_new) {
    const bool blocked = desktop().any_blocking(name());
    if (!blocked && !rng().chance(config_.event_loss_probability)) {
      if (new_mail_event_) new_mail_event_();
    } else {
      stats().bump("new_mail_events_lost");
    }
  }
}

Status EmailClientApp::send_email(Email email) {
  const Status gate = begin_operation("send_email");
  if (!gate.ok()) return gate;
  email.from = mailbox_address_;
  return server_.submit(std::move(email));
}

std::vector<Email> EmailClientApp::fetch_unread() {
  const Status gate = begin_operation("fetch_unread");
  if (!gate.ok()) return {};
  std::vector<Email> out(unread_.begin(), unread_.end());
  unread_.clear();
  return out;
}

Status EmailClientApp::verify_connection() {
  const Status gate = begin_operation("verify_connection");
  if (!gate.ok()) return gate;
  if (server_.down()) return Status::failure("email relay unreachable");
  return Status::success();
}

}  // namespace simba::email
