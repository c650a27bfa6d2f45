// WISH wireless user-location service (Section 2.4, RADAR-style [11]).
//
// "The WISH client software, running on the user's handheld device,
// extracts from its RF wireless network card the identity of the Access
// Point (AP) the device is connected to and the strength of the signals
// received from the AP. It then sends that information along with the
// user's name and activity status to a WISH server. The WISH server
// maintains an RF signal propagation model and a table that maps each
// AP to a physical location. ... A confidence percentage is associated
// with each estimate."
//
// Substitution note (DESIGN.md): real Wi-Fi RSSI is replaced by a
// log-distance path-loss model with Gaussian shadowing over a synthetic
// floor map; the estimation and alerting code paths are identical.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/alert.h"
#include "sim/simulator.h"
#include "sss/sss.h"
#include "util/rng.h"
#include "util/stats.h"

namespace simba::wish {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

double distance(Point a, Point b);

struct AccessPoint {
  std::string id;
  Point position;
  std::string zone;  // physical location label for this AP's cell
};

/// AP map ("a table that maps each AP to a physical location").
class FloorMap {
 public:
  void add_ap(AccessPoint ap);
  const std::vector<AccessPoint>& aps() const { return aps_; }
  const AccessPoint* ap(const std::string& id) const;

 private:
  std::vector<AccessPoint> aps_;
};

/// Log-distance path loss with Gaussian shadowing.
struct RadioModel {
  double power_at_1m_dbm = -32.0;
  double path_loss_exponent = 3.2;
  double shadow_sigma_db = 4.0;
  double receiver_floor_dbm = -92.0;  // below this the AP is not heard

  /// Sampled RSSI at a given distance (includes shadowing noise).
  double sample_rssi(double dist_m, Rng& rng) const;
  /// Deterministic inverse: distance implied by an RSSI (no noise).
  double distance_for_rssi(double rssi_dbm) const;
};

/// One client position report, as it arrives at the server.
struct Report {
  std::string user;
  std::string ap_id;
  double rssi_dbm = 0.0;
  std::string activity = "active";
  TimePoint sent_at{};
};

/// The server's location estimate.
struct Estimate {
  std::string zone;
  double distance_m = 0.0;
  double confidence_pct = 0.0;
};

class WishServer {
 public:
  WishServer(sim::Simulator& sim, FloorMap map, RadioModel radio,
             sss::SssServer& store);

  /// Ingests a report: estimates the location and writes/refreshes the
  /// user's soft-state variable ("each user is represented by a
  /// soft-state variable").
  void handle_report(const Report& report);

  /// Soft-state parameters for user variables: how long with no report
  /// before the user is considered out of range / gone.
  void set_user_refresh(Duration period, int max_missed) {
    user_refresh_period_ = period;
    user_max_missed_ = max_missed;
  }

  Estimate estimate(const Report& report) const;
  std::optional<Estimate> last_estimate(const std::string& user) const;

  static std::string user_variable(const std::string& user) {
    return "wish.user." + user;
  }

  const Counters& stats() const { return stats_; }

 private:
  sim::Simulator& sim_;
  FloorMap map_;
  RadioModel radio_;
  sss::SssServer& store_;
  Duration user_refresh_period_ = seconds(10);
  int user_max_missed_ = 2;
  std::map<std::string, Estimate> last_;
  Counters stats_;
};

/// The WISH client on the user's handheld: connects to the strongest
/// audible AP and periodically reports to the server over the wireless
/// + LAN hop.
class WishClient {
 public:
  /// The client carries its own copy of the map purely as the set of
  /// APs that exist in the air; it does NOT consult zones (the server
  /// owns the AP-to-location table).
  WishClient(sim::Simulator& sim, FloorMap map, RadioModel radio,
             WishServer& server, std::string user,
             Duration report_interval = seconds(3));

  void set_position(Point p) { position_ = p; }
  Point position() const { return position_; }
  /// Powered off / out of building: stops hearing APs entirely.
  void set_in_range(bool in_range) { in_range_ = in_range; }

  void start();
  void stop();

  /// One report cycle (also called by the periodic task).
  void report_now();

  const Counters& stats() const { return stats_; }

 private:
  sim::Simulator& sim_;
  FloorMap map_;
  RadioModel radio_;
  WishServer& server_;
  std::string user_;
  Duration report_interval_;
  Rng rng_;
  Point position_{};
  bool in_range_ = true;
  sim::TaskHandle report_task_;
  Counters stats_;
};

/// Web-based location alert service: "A user of the alert service
/// specifies the name of the person to track ... An alert can be
/// generated when the tracked person enters a building, moves to a
/// different part of the building, and/or leaves the building."
class WishAlertService {
 public:
  struct Triggers {
    bool on_enter = true;
    bool on_move = true;
    bool on_leave = true;
  };

  WishAlertService(sim::Simulator& sim, sss::SssServer& store);

  /// Adds a tracking subscription; alerts flow to `sink`.
  void subscribe(const std::string& subscriber, const std::string& target_user,
                 Triggers triggers, core::AlertSink sink);

  const Counters& stats() const { return stats_; }

 private:
  struct Tracking {
    std::string subscriber;
    std::string target;
    Triggers triggers;
    core::AlertSink sink;
    std::string last_zone;  // empty = out of building
  };

  void on_event(std::size_t tracking_index, const sss::Event& event);
  void emit(Tracking& t, const std::string& what, const std::string& zone);

  sim::Simulator& sim_;
  sss::SssServer& store_;
  std::vector<Tracking> trackings_;
  std::uint64_t next_alert_ = 1;
  Counters stats_;
};

}  // namespace simba::wish
