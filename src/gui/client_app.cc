#include "gui/client_app.h"

#include <algorithm>

#include "util/log.h"

namespace simba::gui {

ClientApp::ClientApp(sim::Simulator& sim, Desktop& desktop, std::string name,
                     FaultProfile profile)
    : sim_(sim),
      desktop_(desktop),
      name_(std::move(name)),
      profile_(std::move(profile)),
      rng_(sim.make_rng("gui." + name_)) {}

ClientApp::~ClientApp() { cancel_faults(); }

void ClientApp::launch() {
  if (state_ == ProcessState::kRunning) return;
  if (state_ == ProcessState::kHung) {
    // A hung process still occupies the singleton app slot; a human
    // would have to kill it first, and so must the Manager.
    log_warn("gui." + name_, "launch ignored: hung instance still present");
    return;
  }
  state_ = ProcessState::kRunning;
  ++instance_;
  launched_at_ = sim_.now();
  stats_.bump("launches");
  SIMBA_LOG_DEBUG("gui." + name_,
                  "launched, instance " + std::to_string(instance_));
  schedule_faults();
  on_launch();
}

void ClientApp::kill() {
  if (state_ == ProcessState::kNotRunning) return;
  cancel_faults();
  state_ = ProcessState::kNotRunning;
  stats_.bump("kills");
  desktop_.close_owned_by(name_);
  SIMBA_LOG_DEBUG("gui." + name_, "killed");
  on_kill();
}

double ClientApp::memory_mb() const {
  if (state_ == ProcessState::kNotRunning) return 0.0;
  const double hours = to_seconds(sim_.now() - launched_at_) / 3600.0;
  return profile_.base_memory_mb + profile_.leak_mb_per_hour * hours;
}

Duration ClientApp::uptime() const {
  return state_ == ProcessState::kNotRunning ? Duration::zero()
                                             : sim_.now() - launched_at_;
}

void ClientApp::pop_dialog(const DialogSpec& spec) {
  if (state_ == ProcessState::kNotRunning) return;
  DialogBox box;
  box.owner = spec.system_owned ? "system" : name_;
  box.caption = spec.caption;
  box.buttons = {spec.button};
  box.blocks_owner = spec.blocks_app;
  desktop_.show(std::move(box));
  stats_.bump("dialogs_popped");
}

void ClientApp::force_hang() {
  if (state_ != ProcessState::kRunning) return;
  cancel_faults();
  state_ = ProcessState::kHung;
  stats_.bump("hangs");
  SIMBA_LOG_DEBUG("gui." + name_, "hung");
}

void ClientApp::force_crash() {
  if (state_ == ProcessState::kNotRunning) return;
  cancel_faults();
  state_ = ProcessState::kNotRunning;
  stats_.bump("crashes");
  desktop_.close_owned_by(name_);
  SIMBA_LOG_DEBUG("gui." + name_, "crashed");
  on_kill();
}

Status ClientApp::begin_operation(std::string_view op) {
  stats_.bump("ops");
  switch (state_) {
    case ProcessState::kNotRunning:
      return Status::failure(name_ + ": process not running");
    case ProcessState::kHung:
      return Status::failure(name_ + ": process hung");
    case ProcessState::kRunning:
      break;
  }
  if (desktop_.any_blocking(name_)) {
    return Status::failure(name_ + ": blocked by modal dialog");
  }
  if (memory_mb() > profile_.memory_hang_threshold_mb) {
    // Resource exhaustion: the next touch pushes it over.
    force_hang();
    return Status::failure(name_ + ": process hung (memory exhaustion)");
  }
  if ((profile_.exception_op.empty() || profile_.exception_op == op) &&
      rng_.chance(profile_.op_exception_probability)) {
    stats_.bump("op_exceptions");
    throw AutomationError(name_ + "." + std::string(op) +
                          ": exception from undocumented interface");
  }
  if (rng_.chance(profile_.op_transient_failure_probability)) {
    stats_.bump("op_transient_failures");
    return Status::failure(name_ + "." + std::string(op) +
                           ": transient failure");
  }
  return Status::success();
}

void ClientApp::schedule_faults() {
  // One draw per enabled fault; the order (hang, crash, dialog) is part
  // of the app's rng stream.
  if (profile_.mean_time_to_hang > Duration::zero()) {
    fault_events_.push_back(
        sim_.after(rng_.exponential_duration(profile_.mean_time_to_hang),
                   [this] { force_hang(); }, "gui.hang"));
  }
  if (profile_.mean_time_to_crash > Duration::zero()) {
    fault_events_.push_back(
        sim_.after(rng_.exponential_duration(profile_.mean_time_to_crash),
                   [this] { force_crash(); }, "gui.crash"));
  }
  schedule_dialog();
}

void ClientApp::schedule_dialog() {
  if (profile_.mean_time_to_dialog <= Duration::zero()) return;
  fault_events_.push_back(
      sim_.after(rng_.exponential_duration(profile_.mean_time_to_dialog),
                 [this] { spontaneous_dialog(); }, "gui.dialog"));
}

void ClientApp::cancel_faults() {
  for (const auto id : fault_events_) sim_.cancel(id);
  fault_events_.clear();
}

void ClientApp::spontaneous_dialog() {
  if (state_ != ProcessState::kRunning || profile_.dialog_pool.empty()) return;
  std::vector<double> weights;
  weights.reserve(profile_.dialog_pool.size());
  for (const auto& d : profile_.dialog_pool) weights.push_back(d.weight);
  const std::size_t pick = rng_.weighted_index(weights.data(), weights.size());
  pop_dialog(profile_.dialog_pool[pick]);
  schedule_dialog();
}

}  // namespace simba::gui
