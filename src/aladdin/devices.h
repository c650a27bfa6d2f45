// Aladdin devices: sensors, remote controls, and the transceivers that
// bridge media (Section 5: "The RF signal was received by a powerline
// transceiver and converted into a powerline signal").
#pragma once

#include <functional>
#include <string>

#include "aladdin/home_network.h"
#include "sim/simulator.h"

namespace simba::aladdin {

/// A binary home sensor (water sensor, door sensor, motion...). State
/// changes are transmitted on its medium; a battery-powered sensor also
/// emits periodic supervision heartbeats, whose absence is how Aladdin
/// detects "Garage Door Sensor Broken".
class Sensor {
 public:
  Sensor(sim::Simulator& sim, HomeNetwork& network, std::string id,
         Medium medium);

  const std::string& id() const { return id_; }
  bool on() const { return on_; }

  /// Flips the sensed state and transmits "ON"/"OFF" (unless dead).
  void set_state(bool on);

  /// Emits "HEARTBEAT" every `period` while the battery lasts.
  void start_heartbeat(Duration period);
  void stop_heartbeat();

  /// Battery death: the sensor goes silent (no state changes, no
  /// heartbeats) — upstream only notices via missing refreshes.
  void set_battery_dead(bool dead);

 private:
  void transmit(const std::string& payload);

  sim::Simulator& sim_;
  HomeNetwork& network_;
  std::string id_;
  Medium medium_;
  bool on_ = false;
  bool battery_dead_ = false;
  sim::TaskHandle heartbeat_task_;
};

/// An RF keyfob remote control (the disarm scenario's trigger).
class RemoteControl {
 public:
  RemoteControl(sim::Simulator& sim, HomeNetwork& network, std::string id);

  /// Presses a button: transmits the payload on RF.
  void press(const std::string& button);

 private:
  sim::Simulator& sim_;
  HomeNetwork& network_;
  std::string id_;
};

/// Bridges frames from one medium onto another with a conversion
/// delay (RF -> powerline in the paper's scenario).
class Transceiver {
 public:
  Transceiver(sim::Simulator& sim, HomeNetwork& network, Medium from,
              Medium to, Duration conversion_delay = millis(250));
  ~Transceiver();

 private:
  sim::Simulator& sim_;
  HomeNetwork& network_;
  Medium to_;
  Duration conversion_delay_;
  HomeNetwork::ListenerId listener_;
};

}  // namespace simba::aladdin
