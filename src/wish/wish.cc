#include "wish/wish.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"
#include "util/strings.h"

namespace simba::wish {

double distance(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

void FloorMap::add_ap(AccessPoint ap) { aps_.push_back(std::move(ap)); }

const AccessPoint* FloorMap::ap(const std::string& id) const {
  for (const auto& ap : aps_) {
    if (ap.id == id) return &ap;
  }
  return nullptr;
}

double RadioModel::sample_rssi(double dist_m, Rng& rng) const {
  const double d = std::max(dist_m, 0.5);
  const double mean = power_at_1m_dbm - 10.0 * path_loss_exponent * std::log10(d);
  return rng.normal(mean, shadow_sigma_db);
}

double RadioModel::distance_for_rssi(double rssi_dbm) const {
  return std::pow(10.0, (power_at_1m_dbm - rssi_dbm) /
                            (10.0 * path_loss_exponent));
}

// ---------------------------------------------------------------------------
// WishServer
// ---------------------------------------------------------------------------

WishServer::WishServer(sim::Simulator& sim, FloorMap map, RadioModel radio,
                       sss::SssServer& store)
    : sim_(sim), map_(std::move(map)), radio_(radio), store_(store) {
  store_.define_type("wish.user");
}

Estimate WishServer::estimate(const Report& report) const {
  Estimate e;
  const AccessPoint* ap = map_.ap(report.ap_id);
  if (ap == nullptr) {
    e.zone = "unknown";
    e.confidence_pct = 0.0;
    return e;
  }
  e.zone = ap->zone;
  e.distance_m = radio_.distance_for_rssi(report.rssi_dbm);
  // Confidence falls with estimated distance from the AP: near the AP
  // the zone label is almost certainly right; at the cell edge the user
  // could be in the neighboring zone.
  e.confidence_pct = std::clamp(100.0 - 4.0 * e.distance_m, 10.0, 99.0);
  return e;
}

void WishServer::handle_report(const Report& report) {
  stats_.bump("reports");
  const Estimate e = estimate(report);
  last_[report.user] = e;
  const std::string var = user_variable(report.user);
  if (!store_.read(var).ok()) {
    store_.create("wish.user", var, e.zone, user_refresh_period_,
                  user_max_missed_);
  } else {
    store_.write(var, e.zone);
  }
}

std::optional<Estimate> WishServer::last_estimate(
    const std::string& user) const {
  const auto it = last_.find(user);
  if (it == last_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// WishClient
// ---------------------------------------------------------------------------

WishClient::WishClient(sim::Simulator& sim, FloorMap map, RadioModel radio,
                       WishServer& server, std::string user,
                       Duration report_interval)
    : sim_(sim),
      map_(std::move(map)),
      radio_(radio),
      server_(server),
      user_(std::move(user)),
      report_interval_(report_interval),
      rng_(sim.make_rng("wish.client." + user_)) {}

void WishClient::start() {
  stop();
  report_task_ = sim_.every(
      report_interval_, [this] { report_now(); }, "wish.report",
      /*immediate=*/true);
}

void WishClient::stop() { report_task_.cancel(); }

void WishClient::report_now() {
  if (!in_range_) {
    stats_.bump("cycles.out_of_range");
    return;  // hears nothing; no report — soft state decays server-side
  }
  // Scan: sample RSSI from every AP, associate with the strongest
  // audible one (that is all the wireless card exposes per the paper).
  const AccessPoint* best = nullptr;
  double best_rssi = -1e9;
  for (const auto& ap : map_.aps()) {
    const double rssi = radio_.sample_rssi(distance(position_, ap.position), rng_);
    if (rssi < radio_.receiver_floor_dbm) continue;
    if (rssi > best_rssi) {
      best_rssi = rssi;
      best = &ap;
    }
  }
  if (best == nullptr) {
    stats_.bump("cycles.no_ap_heard");
    return;
  }
  Report report;
  report.user = user_;
  report.ap_id = best->id;
  report.rssi_dbm = best_rssi;
  report.sent_at = sim_.now();
  stats_.bump("reports_sent");
  // Wireless hop + LAN to the WISH server.
  const Duration hop = millis(30) + rng_.uniform_duration(Duration::zero(),
                                                          millis(120));
  sim_.after(hop, [this, report] { server_.handle_report(report); },
             "wish.report");
}

// ---------------------------------------------------------------------------
// WishAlertService
// ---------------------------------------------------------------------------

WishAlertService::WishAlertService(sim::Simulator& sim, sss::SssServer& store)
    : sim_(sim), store_(store) {}

void WishAlertService::subscribe(const std::string& subscriber,
                                 const std::string& target_user,
                                 Triggers triggers, core::AlertSink sink) {
  Tracking t;
  t.subscriber = subscriber;
  t.target = target_user;
  t.triggers = triggers;
  t.sink = std::move(sink);
  trackings_.push_back(std::move(t));
  const std::size_t index = trackings_.size() - 1;
  store_.subscribe_variable(
      WishServer::user_variable(target_user),
      [this, index](const sss::Event& event) { on_event(index, event); });
}

void WishAlertService::on_event(std::size_t tracking_index,
                                const sss::Event& event) {
  Tracking& t = trackings_[tracking_index];
  switch (event.kind) {
    case sss::EventKind::kCreated:
    case sss::EventKind::kUpdated: {
      const std::string& zone = event.variable.value;
      if (zone == t.last_zone) return;
      const bool was_outside = t.last_zone.empty();
      t.last_zone = zone;
      if (was_outside) {
        if (t.triggers.on_enter) emit(t, "entered", zone);
      } else {
        if (t.triggers.on_move) emit(t, "moved to", zone);
      }
      break;
    }
    case sss::EventKind::kTimedOut:
      if (!t.last_zone.empty()) {
        t.last_zone.clear();
        if (t.triggers.on_leave) emit(t, "left", "the building");
      }
      break;
    case sss::EventKind::kRefreshed:
    case sss::EventKind::kDeleted:
      break;
  }
}

void WishAlertService::emit(Tracking& t, const std::string& what,
                            const std::string& zone) {
  core::Alert alert;
  alert.source = "wish";
  alert.native_category = "Location";
  alert.subject = t.target + " " + what + " " + zone;
  alert.body = "WISH location alert for " + t.subscriber + ": " + t.target +
               " " + what + " " + zone + ".";
  alert.created_at = sim_.now();
  alert.id = strformat("wish-%llu",
                       static_cast<unsigned long long>(next_alert_++));
  alert.attributes["target"] = t.target;
  alert.attributes["subscriber"] = t.subscriber;
  stats_.bump("alerts_generated");
  SIMBA_LOG_INFO("wish.alerts", "alert: " + alert.subject);
  if (t.sink) t.sink(alert);
}

}  // namespace simba::wish
