// Base class for simulated third-party GUI communication client
// software (the IM client and the email client).
//
// The paper's Communication Managers do not speak wire protocols; they
// drive "exactly the same email and IM client software that human users
// use" through automation interfaces. Those clients are opaque and
// flaky: they hang, crash, pop up dialog boxes, throw exceptions from
// undocumented interfaces, and leak memory. This class models all of
// those failure modes with tunable rates so the exception-handling
// automation layer (src/automation) has something real to recover from.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gui/desktop.h"
#include "sim/simulator.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"

namespace simba::gui {

/// Thrown by automation calls when the client misbehaves in a way the
/// paper attributes to "an earlier version of undocumented interfaces".
/// Managers and MyAlertBuddy catch these; uncaught ones terminate MAB
/// and exercise the MDC watchdog.
class AutomationError : public std::runtime_error {
 public:
  explicit AutomationError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class ProcessState { kNotRunning, kRunning, kHung };

/// A dialog the client may spontaneously pop up. `known` dialogs have
/// caption/button pairs shipped in the Communication Manager's registry;
/// unknown ones reproduce the paper's "previously unknown dialog boxes"
/// that defeated the monkey thread until their captions were added.
struct DialogSpec {
  std::string caption;
  std::string button;  // the button that dismisses it
  double weight = 1.0;
  bool blocks_app = true;
  /// System-owned dialogs ("other parts of the system can pop up dialog
  /// boxes that are out of the control of the client software") block
  /// every app on the desktop and survive the client being killed.
  bool system_owned = false;
};

/// Failure rates for a client app. All mean times are exponential
/// inter-arrival times while the process is running; zero disables.
struct FaultProfile {
  Duration mean_time_to_hang{};           // process alive but unresponsive
  Duration mean_time_to_crash{};          // process dies
  Duration mean_time_to_dialog{};         // spontaneous dialog pops up
  std::vector<DialogSpec> dialog_pool;    // what can pop up
  double op_exception_probability = 0.0;  // automation call throws
  /// When non-empty, injected exceptions fire only on this operation
  /// (e.g. "fetch_unread") — lets experiments aim the "undocumented
  /// interface" failures at the calls the paper saw them on.
  std::string exception_op;
  double op_transient_failure_probability = 0.0;  // call fails, retry ok
  // Memory leak model: MB leaked per hour of uptime.
  double leak_mb_per_hour = 0.0;
  double base_memory_mb = 40.0;
  // Above this the process becomes unstable: it hangs on the next
  // operation. Nightly rejuvenation exists to stay below it.
  double memory_hang_threshold_mb = 512.0;
};

class ClientApp {
 public:
  ClientApp(sim::Simulator& sim, Desktop& desktop, std::string name,
            FaultProfile profile);
  virtual ~ClientApp();

  ClientApp(const ClientApp&) = delete;
  ClientApp& operator=(const ClientApp&) = delete;

  const std::string& name() const { return name_; }
  ProcessState state() const { return state_; }
  bool running() const { return state_ == ProcessState::kRunning; }

  /// Starts the process. No-op if already running (like double-clicking
  /// an already-open app). Hung processes must be kill()ed first.
  void launch();

  /// Terminates the process (TerminateProcess-style): works even on a
  /// hung instance. The OS reaps the app's dialog boxes.
  void kill();

  /// Bumps on every launch. Automation pointers captured against an
  /// older instance are stale; see AutomationPointer below.
  std::uint64_t instance() const { return instance_; }

  /// Simulated working-set size; grows with the leak model.
  double memory_mb() const;

  /// Pops up a specific dialog now (used by fault scripts and tests).
  void pop_dialog(const DialogSpec& spec);

  Duration uptime() const;
  const Counters& stats() const { return stats_; }
  Counters& stats() { return stats_; }

  /// Hook for scripted faults: force a hang / crash right now.
  void force_hang();
  void force_crash();

 protected:
  /// Gate that every automation operation passes through. Checks the
  /// process is running, not blocked by a modal dialog, and rolls the
  /// injected-fault dice. Returns failure (or throws AutomationError)
  /// accordingly.
  Status begin_operation(std::string_view op);

  /// Subclass hooks around process lifecycle.
  virtual void on_launch() {}
  virtual void on_kill() {}

  sim::Simulator& sim() { return sim_; }
  Desktop& desktop() { return desktop_; }
  Rng& rng() { return rng_; }

 private:
  void schedule_faults();
  /// Arms the next spontaneous dialog (no-op when the profile has none).
  void schedule_dialog();
  void cancel_faults();
  void spontaneous_dialog();

  sim::Simulator& sim_;
  Desktop& desktop_;
  std::string name_;
  FaultProfile profile_;
  Rng rng_;
  ProcessState state_ = ProcessState::kNotRunning;
  std::uint64_t instance_ = 0;
  TimePoint launched_at_{};
  std::vector<sim::EventId> fault_events_;
  Counters stats_;
};

/// A captured automation pointer: valid only for the instance it was
/// captured against. Models the paper's "refreshes all its pointers to
/// point to the new instance" requirement after a restart.
class AutomationPointer {
 public:
  AutomationPointer() = default;
  explicit AutomationPointer(const ClientApp& app)
      : app_(&app), instance_(app.instance()) {}

  bool valid() const {
    return app_ != nullptr && app_->instance() == instance_ &&
           app_->state() != ProcessState::kNotRunning;
  }

 private:
  const ClientApp* app_ = nullptr;
  std::uint64_t instance_ = 0;
};

}  // namespace simba::gui
