// Exception-handling automation (Section 4.1.1) — the paper's central
// implementation contribution.
//
// Automation interfaces "model the normal use of software by human
// beings [but] do not model and simulate human operations in case of
// exceptions". Communication Managers wrap each flaky GUI client with
// the three APIs the paper defines:
//
//   1. Sanity Checking API — is the process alive, are our pointers
//      valid, is it logged on, can it reach its server; fix what a
//      human would fix by "clicking around" (re-logon), report what
//      cannot be fixed in place.
//   2. Shutdown/Restart API — kill and relaunch the client, refreshing
//      all automation pointers to the new instance.
//   3. Dialog-box Handling API — the "monkey thread": every sweep it
//      looks for dialog boxes with matching captions and clicks the
//      appropriate buttons. Caption/button pairs are system-generic,
//      client-specific, and user-extensible (the paper's two unknown
//      dialog boxes were fixed by adding their pairs).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gui/client_app.h"
#include "gui/desktop.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace simba::automation {

/// Caption-substring -> button registry for the monkey thread.
class CaptionRegistry {
 public:
  void add(std::string caption_substring, std::string button);
  bool known(const std::string& caption) const;
  const std::vector<std::pair<std::string, std::string>>& pairs() const {
    return pairs_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> pairs_;
};

/// Outcome of one sanity check.
struct SanityReport {
  bool healthy = false;        // everything checked out (possibly after a fix)
  bool fixed_in_place = false; // a re-logon or similar repaired it
  bool needs_restart = false;  // unfixable without Shutdown/Restart
  std::string detail;
};

/// Base Communication Manager: dialog handling and restart plumbing are
/// shared; sanity checking is client-specific.
class CommunicationManager {
 public:
  CommunicationManager(sim::Simulator& sim, gui::Desktop& desktop,
                       gui::ClientApp& app, std::string name);
  virtual ~CommunicationManager();

  CommunicationManager(const CommunicationManager&) = delete;
  CommunicationManager& operator=(const CommunicationManager&) = delete;

  const std::string& name() const { return name_; }

  // --- API 1: Sanity Checking ---------------------------------------------
  /// Asynchronous: some checks require a server round-trip. The report
  /// goes to the observer set_on_report() installed, if any.
  virtual void sanity_check() = 0;

  /// Installs the one report observer (null clears it). A check
  /// started under an earlier observer still finishes, restart
  /// included, but its report is dropped: a MAB incarnation never
  /// hears about its predecessor's checks.
  void set_on_report(std::function<void(const SanityReport&)> observer);

  /// Escalate unfixable checks to Shutdown/Restart (default on).
  void set_auto_restart(bool v) { auto_restart_ = v; }

  // --- API 2: Shutdown/Restart --------------------------------------------
  /// Terminates the running instance (works on hung processes),
  /// relaunches, and refreshes automation pointers. Subclasses layer
  /// re-login on top.
  virtual void restart();

  /// True when our captured automation pointer still refers to the
  /// live client instance.
  bool pointer_valid() const { return pointer_.valid(); }

  // --- API 3: Dialog-box Handling -----------------------------------------
  /// Registers an additional caption/button pair ("each Manager
  /// provides an API for specifying additional caption-button pairs").
  void add_caption_pair(const std::string& caption_substring,
                        const std::string& button);

  /// Starts the monkey thread: a periodic sweep (paper: every 20 s)
  /// clicking known dialogs on the whole desktop.
  void start_monkey(Duration interval = seconds(20));
  void stop_monkey();
  bool monkey_active() const { return monkey_task_.active(); }
  /// One sweep; returns how many dialogs were dismissed. Public so
  /// self-stabilization can force an immediate sweep.
  int monkey_sweep();

  /// Dialogs currently on screen that no registered pair can dismiss —
  /// the paper's "previously unknown dialog boxes".
  std::vector<std::string> unknown_dialog_captions() const;

  gui::ClientApp& app() { return app_; }
  const Counters& stats() const { return stats_; }
  Counters& stats() { return stats_; }

 protected:
  void refresh_pointer() { pointer_ = gui::AutomationPointer(app_); }

  /// Tags a check at its start; continuations that outlive the call
  /// capture only (this, epoch), which std::function stores inline.
  std::uint64_t report_epoch() const { return report_epoch_; }
  /// Ends the check tagged `epoch`: restarts the client when the report
  /// needs it (and auto-restart is on), then reports to the observer
  /// if it is still the one the check started under.
  void finish(std::uint64_t epoch, SanityReport report);

  sim::Simulator& sim_;
  gui::Desktop& desktop_;
  gui::ClientApp& app_;
  std::string name_;
  gui::AutomationPointer pointer_;
  CaptionRegistry captions_;
  sim::TaskHandle monkey_task_;
  Counters stats_;

 private:
  std::function<void(const SanityReport&)> on_report_;
  std::uint64_t report_epoch_ = 0;
  bool auto_restart_ = true;
};

}  // namespace simba::automation
