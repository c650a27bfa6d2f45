#include "core/mdc.h"

#include "util/log.h"

namespace simba::core {

MasterDaemonController::MasterDaemonController(sim::Simulator& sim,
                                               Options options,
                                               std::function<bool()> probe,
                                               std::function<void()> restart,
                                               std::function<void()> reboot)
    : sim_(sim),
      options_(options),
      probe_(std::move(probe)),
      restart_(std::move(restart)),
      reboot_(std::move(reboot)) {}

void MasterDaemonController::start() {
  stop();
  daemon_up_ = true;
  consecutive_failures_ = 0;
  heartbeat_task_ = sim_.every(options_.check_interval,
                               [this] { heartbeat(); }, "mdc.heartbeat");
}

void MasterDaemonController::stop() {
  heartbeat_task_.cancel();
  if (pending_restart_ != 0) {
    sim_.cancel(pending_restart_);
    pending_restart_ = 0;
  }
}

void MasterDaemonController::heartbeat() {
  if (pending_restart_ != 0) return;  // restart already in flight
  stats_.bump("heartbeats");
  // The real MDC signals an event and waits a bounded time for the
  // reply event; in virtual time the probe answers immediately, so a
  // false reply stands in for the timeout having elapsed.
  if (probe_ && probe_()) {
    consecutive_failures_ = 0;
    daemon_up_ = true;
    return;
  }
  stats_.bump("missed_heartbeats");
  log_warn("mdc", "AreYouWorking() gave no reply; restarting MyAlertBuddy");
  schedule_restart("heartbeat timeout", /*expected=*/false);
}

void MasterDaemonController::notify_terminated(const std::string& reason,
                                               bool expected) {
  if (pending_restart_ != 0) return;
  stats_.bump(expected ? CounterName("terminations.expected")
                       : CounterName("terminations.unexpected"));
  SIMBA_LOG_INFO("mdc", "MyAlertBuddy terminated (" + reason + ")");
  schedule_restart(reason, expected);
}

void MasterDaemonController::schedule_restart(const std::string& cause,
                                              bool expected) {
  daemon_up_ = false;
  if (!expected) {
    ++consecutive_failures_;
    stats_.bump("restarts");  // the paper's "36 restarts ... by the MDC"
  } else {
    stats_.bump("rejuvenation_restarts");
  }
  if (!expected && consecutive_failures_ > options_.max_failed_restarts) {
    stats_.bump("reboots");
    log_warn("mdc", "restart threshold exceeded; rebooting machine");
    consecutive_failures_ = 0;
    pending_restart_ = 0;
    if (reboot_) reboot_();  // the host re-creates everything, us included
    return;
  }
  pending_restart_ = sim_.after(
      options_.restart_delay,
      [this, cause] {
        pending_restart_ = 0;
        SIMBA_LOG_INFO("mdc", "relaunching MyAlertBuddy after: " + cause);
        daemon_up_ = true;
        if (restart_) restart_();
      },
      "mdc.restart");
}

}  // namespace simba::core
