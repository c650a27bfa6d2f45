#include "automation/im_manager.h"

#include "util/log.h"
#include "util/strings.h"

namespace simba::automation {

ImManager::ImManager(sim::Simulator& sim, gui::Desktop& desktop,
                     im::ImClientApp& client)
    : CommunicationManager(sim, desktop, client, "im_manager." + client.user()),
      client_(client) {
  // Client-specific caption/button pairs shipped with the Manager.
  add_caption_pair("signed in from another location", "OK");
  add_caption_pair("service unavailable", "Retry");
}

void ImManager::start(std::function<void(Status)> done) {
  if (!client_.running()) client_.launch();
  refresh_pointer();
  start_monkey();
  client_.login([this, done = std::move(done)](Status status) {
    if (!status.ok()) {
      log_warn(name(), "initial login failed: " + status.error());
    }
    if (done) done(std::move(status));
  });
}

void ImManager::restart() {
  CommunicationManager::restart();
  // A restarted IM client is signed out; sign back in (fire-and-forget:
  // the next sanity check verifies).
  try {
    client_.login(nullptr);
  } catch (const gui::AutomationError& e) {
    stats().bump("automation_errors");
    log_warn(name(), std::string("login after restart threw: ") + e.what());
  }
}

void ImManager::sanity_check() {
  stats().bump("sanity_checks");
  const std::uint64_t epoch = report_epoch();

  // Step 1: process and pointer checks (cheap, synchronous).
  if (client_.state() == gui::ProcessState::kHung) {
    stats().bump("hung_detected");
    finish(epoch, {.healthy = false,
                   .fixed_in_place = false,
                   .needs_restart = true,
                   .detail = "client hung"});
    return;
  }
  if (!client_.running()) {
    stats().bump("dead_detected");
    finish(epoch, {.healthy = false,
                   .fixed_in_place = false,
                   .needs_restart = true,
                   .detail = "client not running"});
    return;
  }
  if (!pointer_valid()) {
    // The process restarted behind our back; re-capturing pointers is
    // an in-place fix.
    refresh_pointer();
    stats().bump("pointers_refreshed");
  }

  // A modal dialog makes every automation call fail; that is a dialog
  // problem, not a login problem. Sweep first; if something unknown is
  // still blocking, report it rather than misdiagnosing a logout.
  if (desktop_.any_blocking(app_.name())) {
    if (monkey_active()) monkey_sweep();
    if (desktop_.any_blocking(app_.name())) {
      stats().bump("blocked_by_dialog");
      finish(epoch, {.healthy = false,
                     .detail = "blocked by unhandled modal dialog"});
      return;
    }
  }

  // Step 2: application-specific checks (may throw AutomationError).
  try {
    if (!client_.is_logged_in()) {
      // "If it has been logged out ... it will be re-logged in."
      stats().bump("logged_out_detected");
      client_.login([this, epoch](Status status) {
        relogon_done(epoch, std::move(status));
      });
      return;
    }
    // Logged in per the client; verify the session end-to-end.
    client_.verify_connection([this, epoch](Status status) {
      verify_done(epoch, std::move(status));
    });
  } catch (const gui::AutomationError& e) {
    stats().bump("automation_errors");
    finish(epoch, {.healthy = false,
                   .needs_restart = true,
                   .detail = std::string("automation error: ") + e.what()});
  }
}

void ImManager::relogon_done(std::uint64_t epoch, Status status) {
  if (status.ok()) {
    stats().bump("relogin_fixes");
    finish(epoch, {.healthy = true,
                   .fixed_in_place = true,
                   .needs_restart = false,
                   .detail = "re-logon worked"});
    return;
  }
  // Service unreachable: restart will not help; record an unhealthy
  // period (an IM downtime from the outside).
  stats().bump("relogin_failures");
  finish(epoch, {.healthy = false,
                 .fixed_in_place = false,
                 .needs_restart = false,
                 .detail = "re-logon failed: " + status.error()});
}

void ImManager::verify_done(std::uint64_t epoch, Status status) {
  if (status.ok()) {
    finish(epoch, {.healthy = true, .detail = "ok"});
    return;
  }
  if (contains(status.error(), "timed out")) {
    // Unreachable service (or one lost packet): re-logging-in will not
    // help and would inflate the re-logon count; report unhealthy and
    // let the next check decide.
    stats().bump("verify_timeouts");
    finish(epoch, {.healthy = false,
                   .detail = "service unreachable: " + status.error()});
    return;
  }
  // Session invalid: the server dropped us. Re-login once.
  try {
    client_.login([this, epoch](Status login) {
      refresh_done(epoch, std::move(login));
    });
  } catch (const gui::AutomationError& e) {
    stats().bump("automation_errors");
    finish(epoch, {.healthy = false,
                   .needs_restart = true,
                   .detail = std::string("automation error: ") + e.what()});
  }
}

void ImManager::refresh_done(std::uint64_t epoch, Status status) {
  if (status.ok()) {
    stats().bump("relogin_fixes");
    finish(epoch, {.healthy = true,
                   .fixed_in_place = true,
                   .needs_restart = false,
                   .detail = "session refreshed by re-logon"});
    return;
  }
  stats().bump("relogin_failures");
  finish(epoch, {.healthy = false,
                 .detail = "service unreachable: " + status.error()});
}

void ImManager::send_im(const std::string& to_user, const std::string& body,
                        util::FlatMap<std::string, std::string> headers,
                        std::function<void(Status)> done) {
  try {
    // `done` is passed by copy: if the client throws mid-call we still
    // need it for the retry path below.
    client_.send_im(to_user, body, headers, done);
  } catch (const gui::AutomationError& e) {
    stats().bump("automation_errors");
    log_warn(name(), std::string("send threw: ") + e.what() + "; restarting");
    restart();
    // One retry after the restart; login is in flight, so give it a
    // moment before the attempt.
    sim_.after(seconds(2), [this, to_user, body, headers, done]() mutable {
      try {
        client_.send_im(to_user, body, std::move(headers), done);
      } catch (const gui::AutomationError& e2) {
        stats().bump("automation_errors");
        if (done) {
          done(Status::failure(std::string("send failed twice: ") + e2.what()));
        }
      }
    }, "im.send_retry");
  }
}

std::vector<im::ImMessage> ImManager::fetch_unread_safe() {
  try {
    return client_.fetch_unread();
  } catch (const gui::AutomationError&) {
    stats().bump("automation_errors");
    return {};
  }
}

void ImManager::set_on_new_message(std::function<void()> handler) {
  client_.set_new_message_event(std::move(handler));
}

}  // namespace simba::automation
