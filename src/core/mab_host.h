// MabHost: the user's desktop PC that runs MyAlertBuddy (Section 4:
// "Currently, MyAlertBuddy runs on a desktop PC owned by the user").
//
// Owns everything with machine lifetime: the desktop (dialog boxes),
// the third-party IM and email client software, the Communication
// Managers, the persistent alert log and user configuration, the MDC
// watchdog, nightly software rejuvenation, and the power supply (the
// paper's one unrecovered power outage, later fixed with a UPS).
// MyAlertBuddy incarnations come and go; this object persists.
#pragma once

#include <memory>
#include <string>

#include "automation/email_manager.h"
#include "automation/im_manager.h"
#include "core/alert_log.h"
#include "core/digest.h"
#include "core/mab.h"
#include "core/mdc.h"
#include "email/email_client.h"
#include "email/email_server.h"
#include "gui/desktop.h"
#include "im/im_client.h"
#include "im/im_server.h"
#include "net/bus.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace simba::core {

struct MabHostOptions {
  /// The human owner; the buddy's addresses derive from this unless
  /// overridden.
  std::string owner = "user";
  std::string im_account;      // default: "<owner>.mab"
  std::string email_address;   // default: "<owner>.mab@simba.example.net"

  MabConfig config;
  MabOptions mab_options;

  gui::FaultProfile im_client_profile;
  im::ImClientConfig im_client_config;
  gui::FaultProfile email_client_profile;

  /// Nightly rejuvenation (kind 2): "Every night at 11:30PM,
  /// MyAlertBuddy requests an orderly shutdown of all the communication
  /// client software and terminates itself."
  bool nightly_rejuvenation = true;

  /// Power model. With a UPS, outages (up to any length, for
  /// simplicity) are ridden through. A boot, after an outage or a
  /// reboot, takes two minutes.
  sim::OutagePlan power_plan;
  bool has_ups = false;

  /// Chaos crash-window model (sim/chaos.h): probability that an
  /// alert-log append still inside its synchronous-write window is
  /// torn when power dies. Zero disables the model.
  double torn_append_probability = 0.0;

  // Ablation switches (experiment E8): disabling the watchdog means a
  // dead or hung MAB stays that way; disabling the monkey thread means
  // even known dialogs pile up.
  bool watchdog_enabled = true;
  bool monkey_enabled = true;

  /// Lifecycle tracing (null disables it). The host hands it to the
  /// persistent alert log and to every MAB incarnation it spawns.
  util::Trace* trace = nullptr;
};

class MabHost {
 public:
  MabHost(sim::Simulator& sim, net::MessageBus& bus, im::ImServer& im_server,
          email::EmailServer& email_server, MabHostOptions options);
  ~MabHost();

  MabHost(const MabHost&) = delete;
  MabHost& operator=(const MabHost&) = delete;

  /// Boots the machine: MDC, client software, managers, first MAB.
  void start();

  const std::string& im_address() const { return options_.im_account; }
  const std::string& email_address() const { return options_.email_address; }

  MabConfig& config() { return options_.config; }
  AlertLog& alert_log() { return alert_log_; }
  DigestStore& digest() { return digest_; }
  AlertCoalescer& coalescer() { return coalescer_; }
  /// Current incarnation; null between termination and restart.
  MyAlertBuddy* mab() { return mab_.get(); }
  MasterDaemonController& mdc() { return *mdc_; }
  automation::ImManager& im_manager() { return *im_manager_; }
  automation::EmailManager& email_manager() { return *email_manager_; }
  gui::Desktop& desktop() { return desktop_; }

  bool machine_up() const { return machine_up_; }
  /// The availability predicate experiments sample: machine powered,
  /// a MAB incarnation present, running, and not hung.
  bool healthy() const {
    return machine_up_ && mab_ != nullptr && mab_->running();
  }

  const Counters& stats() const { return stats_; }
  Counters& stats() { return stats_; }

  /// MAB counters aggregated across every incarnation, dead or alive.
  /// Incarnation counters die with their process; workloads that score
  /// whole-run admission/coalesce/shed activity need the union.
  Counters mab_stats_total() const {
    Counters total = mab_totals_;
    if (mab_) total.merge(mab_->stats());
    return total;
  }

  // Chaos-injection triggers (sim/chaos.h). Each is a no-op while the
  // machine is down; the ChaosPlan schedules them blindly and the host
  // applies only what is physically possible at that instant.
  /// Abrupt process death — no orderly shutdown, no termination
  /// notification. The MDC watchdog discovers the corpse on its next
  /// heartbeat, exactly the paper's detection path.
  void inject_mab_crash();
  /// The current incarnation stops responding to AreYouWorking().
  void inject_mab_hang();
  /// Forced machine reboot (kernel panic, forced update).
  void inject_reboot();

  /// Experiment hook, persistent across MAB incarnations.
  void set_alert_observer(
      std::function<void(const Alert&, TimePoint)> observer) {
    alert_observer_ = std::move(observer);
    if (mab_) mab_->set_alert_observer(alert_observer_);
  }

  /// Checkpoint state (sim/snapshot.h): everything the paper keeps on
  /// the host machine's disk or in machine-lifetime state — the
  /// pessimistic log, the digest store, open coalescing windows, the
  /// incarnation counter (MAB rng streams are named per incarnation, so
  /// a restored host never reuses a consumed stream), and the counter
  /// bags. The live MAB incarnation itself dies with the process image;
  /// save_state() folds its counters into the retired totals, exactly
  /// like retirement, and the incarnation spawned after restore replays
  /// unprocessed log records — the paper's restart recovery.
  struct State {
    AlertLog::State log;
    DigestStore::State digest;
    AlertCoalescer::State coalescer;
    std::uint64_t mab_incarnations = 0;
    Counters stats;
    Counters mab_totals;  // includes the final live incarnation
  };
  State save_state() const;
  /// Call on a freshly constructed host, before start().
  void restore_state(State state);

  /// Conservation hooks, persistent across MAB incarnations: every
  /// accounted shed / coalesce in the alert path.
  void set_shed_observer(
      std::function<void(const std::string&, TimePoint)> observer) {
    shed_observer_ = std::move(observer);
    if (mab_) mab_->set_shed_observer(shed_observer_);
  }
  void set_coalesce_observer(
      std::function<void(const std::string&, TimePoint)> observer) {
    coalesce_observer_ = std::move(observer);
    if (mab_) mab_->set_coalesce_observer(coalesce_observer_);
  }

 private:
  void boot();
  void spawn_mab();
  void kill_mab();
  /// Folds the dying incarnation's counters into mab_totals_ before
  /// releasing it. Every mab_.reset() goes through here.
  void retire_mab();
  void restart_mab();   // MDC restart path (kills hung incarnation)
  void reboot_machine();
  void schedule_nightly();
  void nightly_rejuvenation();
  void power_down();
  void power_up();

  sim::Simulator& sim_;
  im::ImServer& im_server_;
  email::EmailServer& email_server_;
  MabHostOptions options_;
  gui::Desktop desktop_;
  std::unique_ptr<im::ImClientApp> im_client_;
  std::unique_ptr<email::EmailClientApp> email_client_;
  std::unique_ptr<automation::ImManager> im_manager_;
  std::unique_ptr<automation::EmailManager> email_manager_;
  std::unique_ptr<MasterDaemonController> mdc_;
  std::unique_ptr<MyAlertBuddy> mab_;
  AlertLog alert_log_;
  DigestStore digest_;
  /// Host-owned like the log and digest store: open coalescing windows
  /// survive MAB crashes and flush on the next incarnation's start.
  AlertCoalescer coalescer_;
  Rng chaos_rng_;  // torn-append dice; dedicated stream per host
  bool machine_up_ = false;
  std::function<void(const Alert&, TimePoint)> alert_observer_;
  std::function<void(const std::string&, TimePoint)> shed_observer_;
  std::function<void(const std::string&, TimePoint)> coalesce_observer_;
  sim::EventId nightly_event_ = 0;
  std::uint64_t mab_incarnations_ = 0;
  Counters stats_;
  /// Union of the counters of every incarnation retired so far.
  Counters mab_totals_;
};

}  // namespace simba::core
