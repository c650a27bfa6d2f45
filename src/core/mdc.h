// Master Daemon Controller (MDC) — the watchdog process of Section
// 4.2.1.
//
// "MyAlertBuddy is always launched by a watchdog process called Master
// Daemon Controller (MDC), which monitors MyAlertBuddy and restarts it
// upon detecting its termination. The MDC also periodically invokes a
// non-blocking AreYouWorking() function call and restarts MyAlertBuddy
// if it is hung and fails to respond to the call. ... If the number of
// failed restarts exceeds a threshold, the MDC reboots the machine."
#pragma once

#include <functional>
#include <string>

#include "sim/simulator.h"
#include "util/stats.h"

namespace simba::core {

class MasterDaemonController {
 public:
  struct Options {
    Duration check_interval = minutes(3);  // paper: every three minutes
    Duration restart_delay = seconds(10);  // process spawn + init
    int max_failed_restarts = 3;
  };

  /// `probe` is the AreYouWorking() call into the current MAB
  /// incarnation (false / no current incarnation = not working).
  /// `restart` must kill any hung incarnation and launch a fresh one.
  /// `reboot` reboots the machine (the host decides what that means).
  MasterDaemonController(sim::Simulator& sim, Options options,
                         std::function<bool()> probe,
                         std::function<void()> restart,
                         std::function<void()> reboot);

  void start();
  void stop();

  /// Host calls this when the MAB process exits. Unexpected exits and
  /// rejuvenation shutdowns both go through here; only unexpected ones
  /// count toward the paper's "36 restarts of MyAlertBuddy by the MDC"
  /// (nightly rejuvenation restarts are orderly and tracked apart).
  void notify_terminated(const std::string& reason, bool expected);

  /// Whether the watchdog believes the daemon is up (between a detected
  /// failure and the completed restart this is false).
  bool daemon_up() const { return daemon_up_; }

  const Counters& stats() const { return stats_; }

 private:
  void heartbeat();
  void schedule_restart(const std::string& cause, bool expected);

  sim::Simulator& sim_;
  Options options_;
  std::function<bool()> probe_;
  std::function<void()> restart_;
  std::function<void()> reboot_;
  sim::TaskHandle heartbeat_task_;
  sim::EventId pending_restart_ = 0;
  bool daemon_up_ = true;
  int consecutive_failures_ = 0;
  Counters stats_;
};

}  // namespace simba::core
