#include "aladdin/monitor.h"

#include "util/log.h"
#include "util/strings.h"

namespace simba::aladdin {

PowerlineMonitor::PowerlineMonitor(sim::Simulator& sim, HomeNetwork& network,
                                   sss::SssServer& local_store,
                                   Duration poll_interval)
    : sim_(sim), network_(network), store_(local_store) {
  store_.define_type("sensor");
  store_.define_type("device");
  listener_ = network_.listen(Medium::kPowerline,
                              [this](const HomeSignal& signal) {
                                buffer_.push_back(signal);
                              });
  poll_task_ = sim_.every(poll_interval, [this] { poll(); }, "plmon.poll");
}

PowerlineMonitor::~PowerlineMonitor() {
  network_.unlisten(listener_);
  poll_task_.cancel();
}

void PowerlineMonitor::register_device(const std::string& id,
                                       DeviceConfig config) {
  store_.define_type(config.sss_type);
  devices_[id] = std::move(config);
}

void PowerlineMonitor::poll() {
  if (buffer_.empty()) return;
  auto pending = std::move(buffer_);
  buffer_.clear();
  for (const auto& signal : pending) apply(signal);
}

void PowerlineMonitor::apply(const HomeSignal& signal) {
  const auto it = devices_.find(signal.source_id);
  if (it == devices_.end()) {
    stats_.bump("frames.unknown_device");
    SIMBA_LOG_DEBUG("plmon",
                    "frame from unregistered device " + signal.source_id);
    return;
  }
  const DeviceConfig& config = it->second;
  const std::string name = variable_name(signal.source_id);
  stats_.bump("frames.applied");
  if (!store_.read(name).ok()) {
    store_.create(config.sss_type, name, signal.payload,
                  config.refresh_period, config.max_missed_refreshes);
    return;
  }
  if (signal.payload == "HEARTBEAT") {
    store_.refresh(name);
  } else {
    store_.write(name, signal.payload);
  }
}

HomeGatewayServer::HomeGatewayServer(sim::Simulator& sim,
                                     sss::SssServer& gateway_store)
    : sim_(sim), store_(gateway_store) {
  store_.define_type("sensor");
  subscription_ = store_.subscribe_type(
      "sensor", [this](const sss::Event& event) { on_event(event); });
}

HomeGatewayServer::~HomeGatewayServer() { store_.unsubscribe(subscription_); }

void HomeGatewayServer::declare_critical(const std::string& device_id,
                                         const std::string& friendly_name) {
  critical_["device." + device_id] = friendly_name;
}

void HomeGatewayServer::on_event(const sss::Event& event) {
  const auto it = critical_.find(event.variable.name);
  if (it == critical_.end()) {
    stats_.bump("events.non_critical");
    return;
  }
  // Refreshes are keep-alives, not state changes.
  if (event.kind == sss::EventKind::kRefreshed) return;

  core::Alert alert;
  alert.source = "aladdin";
  alert.created_at = sim_.now();
  alert.id = strformat("aladdin-%llu",
                       static_cast<unsigned long long>(next_alert_++));
  const std::string& friendly = it->second;
  switch (event.kind) {
    case sss::EventKind::kCreated:
    case sss::EventKind::kUpdated:
      // "Basement Water Sensor ON" style. The payload is the state.
      alert.native_category = "Sensor " + event.variable.value;
      alert.subject = friendly + " Sensor " + event.variable.value;
      alert.body = "Aladdin: " + friendly + " sensor reported " +
                   event.variable.value + " at " + format_time(event.at);
      alert.high_importance = event.variable.value == "ON";
      break;
    case sss::EventKind::kTimedOut:
      // "Garage Door Sensor Broken" — missing supervision refreshes.
      alert.native_category = "Sensor Broken";
      alert.subject = friendly + " Sensor Broken";
      alert.body = "Aladdin: no supervision heartbeat from " + friendly +
                   " sensor; battery may be dead.";
      alert.high_importance = true;
      break;
    case sss::EventKind::kRefreshed:
    case sss::EventKind::kDeleted:
      return;
  }
  alert.attributes["device"] = event.variable.name;
  alert.attributes["state"] = event.variable.value;
  stats_.bump("alerts_generated");
  SIMBA_LOG_INFO("aladdin.gateway", "alert: " + alert.subject);
  if (sink_) sink_(alert);
}

}  // namespace simba::aladdin
