#include "aladdin/home_network.h"

#include "util/log.h"

namespace simba::aladdin {

const char* to_string(Medium medium) {
  switch (medium) {
    case Medium::kPowerline: return "powerline";
    case Medium::kPhoneline: return "phoneline";
    case Medium::kRf: return "rf";
    case Medium::kIr: return "ir";
  }
  return "?";
}

HomeNetwork::HomeNetwork(sim::Simulator& sim)
    : sim_(sim), rng_(sim.make_rng("aladdin.network")) {
  // X10-style powerline: one frame takes seconds; occasionally mangled
  // by appliance noise.
  models_[Medium::kPowerline] = {seconds(2.2), seconds(0.8), 0.02};
  // Phoneline Ethernet (HomePNA): fast and reliable.
  models_[Medium::kPhoneline] = {millis(4), millis(4), 0.001};
  // RF (keyfob remotes, sensor radios): fast, some collisions.
  models_[Medium::kRf] = {millis(150), millis(150), 0.01};
  // IR: near-instant but line-of-sight, lossiest.
  models_[Medium::kIr] = {millis(40), millis(20), 0.05};
}

void HomeNetwork::set_model(Medium medium, MediumModel model) {
  models_[medium] = model;
}

const MediumModel& HomeNetwork::model(Medium medium) const {
  return models_.at(medium);
}

HomeNetwork::ListenerId HomeNetwork::listen(
    Medium medium, std::function<void(const HomeSignal&)> callback) {
  listeners_.push_back(Listener{next_listener_, medium, std::move(callback)});
  return next_listener_++;
}

void HomeNetwork::unlisten(ListenerId id) {
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->id == id) {
      listeners_.erase(it);
      return;
    }
  }
}

void HomeNetwork::transmit(HomeSignal signal) {
  signal.transmitted_at = sim_.now();
  const MediumModel& model = models_.at(signal.medium);
  stats_.add(std::string("tx.") + to_string(signal.medium));
  for (const auto& listener : listeners_) {
    if (listener.medium != signal.medium) continue;
    if (rng_.chance(model.loss_probability)) {
      stats_.add(std::string("lost.") + to_string(signal.medium));
      continue;
    }
    const Duration latency =
        model.base_latency +
        rng_.uniform_duration(Duration::zero(), model.jitter);
    const ListenerId id = listener.id;
    sim_.after(
        latency,
        [this, id, signal] {
          // The listener may have unsubscribed while the frame was in
          // flight; look it up again.
          for (const auto& l : listeners_) {
            if (l.id == id) {
              l.callback(signal);
              return;
            }
          }
        },
        "aladdin.deliver");
  }
}

}  // namespace simba::aladdin
