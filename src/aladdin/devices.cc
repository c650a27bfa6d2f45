#include "aladdin/devices.h"

namespace simba::aladdin {

Sensor::Sensor(sim::Simulator& sim, HomeNetwork& network, std::string id,
               Medium medium)
    : sim_(sim), network_(network), id_(std::move(id)), medium_(medium) {}

void Sensor::set_state(bool on) {
  on_ = on;
  transmit(on ? "ON" : "OFF");
}

void Sensor::start_heartbeat(Duration period) {
  stop_heartbeat();
  heartbeat_task_ = sim_.every(
      period, [this] { transmit("HEARTBEAT"); }, "sensor.heartbeat");
}

void Sensor::stop_heartbeat() { heartbeat_task_.cancel(); }

void Sensor::set_battery_dead(bool dead) { battery_dead_ = dead; }

void Sensor::transmit(const std::string& payload) {
  if (battery_dead_) return;
  HomeSignal signal;
  signal.source_id = id_;
  signal.payload = payload;
  signal.medium = medium_;
  network_.transmit(std::move(signal));
}

RemoteControl::RemoteControl(sim::Simulator& sim, HomeNetwork& network,
                             std::string id)
    : sim_(sim), network_(network), id_(std::move(id)) {}

void RemoteControl::press(const std::string& button) {
  HomeSignal signal;
  signal.source_id = id_;
  signal.payload = button;
  signal.medium = Medium::kRf;
  network_.transmit(std::move(signal));
}

Transceiver::Transceiver(sim::Simulator& sim, HomeNetwork& network,
                         Medium from, Medium to, Duration conversion_delay)
    : sim_(sim),
      network_(network),
      to_(to),
      conversion_delay_(conversion_delay) {
  listener_ = network_.listen(from, [this](const HomeSignal& signal) {
    sim_.after(
        conversion_delay_,
        [this, signal] {
          HomeSignal converted = signal;
          converted.medium = to_;
          network_.transmit(std::move(converted));
        },
        "transceiver.convert");
  });
}

Transceiver::~Transceiver() { network_.unlisten(listener_); }

}  // namespace simba::aladdin
