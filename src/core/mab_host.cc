#include "core/mab_host.h"

#include "util/calendar.h"
#include "util/log.h"

namespace simba::core {
namespace {

// Nightly rejuvenation (Section 4.2.1: "every night at 11:30PM") and
// the time a machine takes to boot after an outage or a reboot.
const TimeOfDay kRejuvenationTime = TimeOfDay::at(23, 30);
constexpr Duration kBootTime = minutes(2);

}  // namespace

MabHost::MabHost(sim::Simulator& sim, net::MessageBus& bus,
                 im::ImServer& im_server, email::EmailServer& email_server,
                 MabHostOptions options)
    : sim_(sim),
      im_server_(im_server),
      email_server_(email_server),
      options_(std::move(options)),
      desktop_(sim),
      coalescer_(options_.mab_options.overload.coalesce),
      chaos_rng_(sim.make_rng("host.chaos." + options_.owner)) {
  if (options_.im_account.empty()) {
    options_.im_account = options_.owner + ".mab";
  }
  if (options_.email_address.empty()) {
    options_.email_address = options_.owner + ".mab@simba.example.net";
  }
  im_server_.register_account(options_.im_account);
  email_server_.create_mailbox(options_.email_address);
  alert_log_.set_trace(options_.trace);
  options_.mab_options.trace = options_.trace;

  im_client_ = std::make_unique<im::ImClientApp>(
      sim_, desktop_, bus, im_server_.address(), options_.im_account,
      options_.im_client_profile, options_.im_client_config);
  email_client_ = std::make_unique<email::EmailClientApp>(
      sim_, desktop_, email_server_, options_.email_address,
      options_.email_client_profile, email::EmailClientConfig{});
  im_manager_ =
      std::make_unique<automation::ImManager>(sim_, desktop_, *im_client_);
  email_manager_ = std::make_unique<automation::EmailManager>(sim_, desktop_,
                                                              *email_client_);
  mdc_ = std::make_unique<MasterDaemonController>(
      sim_, MasterDaemonController::Options{},
      /*probe=*/[this] { return mab_ != nullptr && mab_->are_you_working(); },
      /*restart=*/[this] { restart_mab(); },
      /*reboot=*/[this] { reboot_machine(); });

  // Power events (ignored entirely when a UPS is fitted).
  if (!options_.has_ups) {
    for (const auto& outage : options_.power_plan.outages()) {
      sim_.at(outage.start, [this] { power_down(); }, "host.power_down");
      sim_.at(outage.end, [this] { power_up(); }, "host.power_up");
    }
  }
}

MabHost::~MabHost() {
  if (nightly_event_ != 0) sim_.cancel(nightly_event_);
}

void MabHost::start() { boot(); }

void MabHost::boot() {
  machine_up_ = true;
  stats_.bump("boots");
  SIMBA_LOG_INFO("host." + options_.owner, "machine booted");
  im_manager_->start();  // launches the IM client and signs in
  email_manager_->start();
  if (!options_.monkey_enabled) {
    im_manager_->stop_monkey();
    email_manager_->stop_monkey();
  }
  if (options_.watchdog_enabled) mdc_->start();
  spawn_mab();
  if (options_.nightly_rejuvenation) schedule_nightly();
}

void MabHost::spawn_mab() {
  if (!machine_up_) return;
  ++mab_incarnations_;
  stats_.bump("mab_incarnations");
  mab_ = std::make_unique<MyAlertBuddy>(
      sim_, options_.config, alert_log_, digest_, coalescer_, *im_manager_,
      *email_manager_, options_.mab_options,
      sim_.make_rng("mab." + options_.owner + "." +
                    std::to_string(mab_incarnations_)));
  mab_->set_on_terminated([this](const std::string& reason, bool expected) {
    stats_.bump(expected ? CounterName("mab_shutdowns")
                         : CounterName("mab_failures"));
    // Destroying the incarnation inside its own callback frame is not
    // safe; defer to the next event, then let the MDC schedule the
    // relaunch (it already knows). Without the watchdog (E8 ablation)
    // nothing relaunches — the daemon just stays dead.
    if (options_.watchdog_enabled) mdc_->notify_terminated(reason, expected);
    sim_.after(Duration::zero(), [this] {
      if (mab_ && mab_->terminated()) retire_mab();
    }, "host.retire_mab");
  });
  if (alert_observer_) mab_->set_alert_observer(alert_observer_);
  if (shed_observer_) mab_->set_shed_observer(shed_observer_);
  if (coalesce_observer_) mab_->set_coalesce_observer(coalesce_observer_);
  mab_->start();
}

void MabHost::kill_mab() { retire_mab(); }

void MabHost::retire_mab() {
  if (!mab_) return;
  mab_totals_.merge(mab_->stats());
  mab_.reset();
}

void MabHost::restart_mab() {
  if (!machine_up_) return;
  kill_mab();
  // The restart also rights the client software if the failure took it
  // down with the machine's resources; normally these are no-ops.
  if (!im_client_->running() &&
      im_client_->state() != gui::ProcessState::kHung) {
    im_manager_->start();
  }
  if (!email_client_->running() &&
      email_client_->state() != gui::ProcessState::kHung) {
    email_manager_->start();
  }
  // Manager start() re-arms the monkey thread; re-apply the ablation.
  if (!options_.monkey_enabled) {
    im_manager_->stop_monkey();
    email_manager_->stop_monkey();
  }
  spawn_mab();
}

void MabHost::reboot_machine() {
  if (!machine_up_) return;
  stats_.bump("reboots");
  log_warn("host." + options_.owner, "rebooting machine");
  power_down();
  sim_.after(kBootTime, [this] { power_up(); }, "host.reboot");
}

void MabHost::schedule_nightly() {
  if (nightly_event_ != 0) sim_.cancel(nightly_event_);
  nightly_event_ = sim_.at(next_occurrence(sim_.now(), kRejuvenationTime),
                           [this] { nightly_rejuvenation(); },
                           "host.nightly_rejuvenation");
}

void MabHost::nightly_rejuvenation() {
  nightly_event_ = 0;
  if (machine_up_) {
    stats_.bump("nightly_rejuvenations");
    SIMBA_LOG_INFO("host." + options_.owner, "nightly rejuvenation at 23:30");
    // "requests an orderly shutdown of all the communication client
    // software and terminates itself."
    if (mab_) mab_->request_shutdown("nightly rejuvenation");
    im_client_->kill();
    email_client_->kill();
    // The MDC's rejuvenation restart brings everything back (the
    // restart path relaunches dead clients).
  }
  schedule_nightly();
}

void MabHost::inject_mab_crash() {
  if (!machine_up_ || !mab_) return;
  stats_.bump("chaos.mab_crashes");
  log_warn("host." + options_.owner, "chaos: MAB process killed");
  // SIGKILL semantics: the process vanishes without firing its
  // termination callback. Nothing notifies the MDC — its heartbeat
  // probe finds no working daemon and drives the restart.
  kill_mab();
}

void MabHost::inject_mab_hang() {
  if (!machine_up_ || !mab_) return;
  stats_.bump("chaos.mab_hangs");
  log_warn("host." + options_.owner, "chaos: MAB hung");
  mab_->force_hang();
}

void MabHost::inject_reboot() {
  if (!machine_up_) return;
  stats_.bump("chaos.reboots");
  log_warn("host." + options_.owner, "chaos: forced reboot");
  reboot_machine();
}

void MabHost::power_down() {
  if (!machine_up_) return;
  machine_up_ = false;
  stats_.bump("power_losses");
  log_warn("host." + options_.owner, "power lost");
  // Torn appends: log writes still inside their sync window may not
  // have hit the platter. Decided before anything else dies so the
  // window is judged at the instant power is lost.
  if (options_.torn_append_probability > 0.0) {
    const auto torn = alert_log_.power_loss(sim_.now(), chaos_rng_,
                                            options_.torn_append_probability);
    if (!torn.empty()) {
      stats_.bump("chaos.torn_appends",
                  static_cast<std::int64_t>(torn.size()));
    }
  }
  mdc_->stop();
  // Processes die instantly; no graceful anything. The alert log is a
  // disk file and survives; client mailboxes are server-side.
  retire_mab();
  im_client_->kill();
  email_client_->kill();
  desktop_.clear();
}

void MabHost::power_up() {
  if (machine_up_) return;
  sim_.after(kBootTime, [this] {
    if (machine_up_) return;
    boot();
  }, "host.boot");
}

MabHost::State MabHost::save_state() const {
  State state;
  state.log = alert_log_.save_state();
  state.digest = digest_.save_state();
  state.coalescer = coalescer_.save_state();
  state.mab_incarnations = mab_incarnations_;
  state.stats = stats_;
  state.mab_totals = mab_stats_total();  // live incarnation folded in
  return state;
}

void MabHost::restore_state(State state) {
  alert_log_.restore_state(std::move(state.log));
  digest_.restore_state(std::move(state.digest));
  coalescer_.restore_state(state.coalescer);
  mab_incarnations_ = state.mab_incarnations;
  stats_ = std::move(state.stats);
  mab_totals_ = std::move(state.mab_totals);
}

}  // namespace simba::core
