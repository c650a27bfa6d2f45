// Simulated email infrastructure (the SMTP/Exchange stand-in).
//
// Section 3.1: "email delivery is not guaranteed to be reliable, and
// the unpredictable delivery time can range from seconds to days". That
// unpredictability is this module's whole reason to exist — it is why
// SIMBA uses IM as the primary channel and email only as fallback.
//
// Client <-> server interaction is modeled as direct calls (a local,
// always-reachable relay); the dependability-relevant delay and loss
// happen between submission and mailbox arrival.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/simulator.h"
#include "util/flat_map.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"

namespace simba::email {

struct Email {
  std::uint64_t id = 0;
  std::string from;
  std::string to;
  std::string subject;
  std::string body;
  util::FlatMap<std::string, std::string> headers;
  bool high_importance = false;
  TimePoint submitted_at{};
  TimePoint delivered_at{};
};

/// Mixture delay model: most mail arrives in seconds, a slow fraction
/// takes hours with a log-normal tail reaching days, and a little is
/// silently lost.
struct EmailDelayModel {
  double fast_probability = 0.95;
  Duration fast_median = seconds(8);
  double fast_sigma = 0.8;
  Duration slow_median = hours(2);
  double slow_sigma = 1.4;
  double loss_probability = 0.002;

  Duration sample(Rng& rng) const;
};

class EmailServer {
 public:
  explicit EmailServer(sim::Simulator& sim);

  void set_delay_model(EmailDelayModel model) { delay_ = model; }

  void create_mailbox(const std::string& address);
  bool has_mailbox(const std::string& address) const;

  /// Routes every address "<anything>@<domain>" to `handler` instead of
  /// a mailbox. The SMS gateway registers itself this way.
  void register_domain_handler(const std::string& domain,
                               std::function<void(const Email&)> handler);

  /// Relay outages: submission fails while down.
  void set_outage_plan(sim::OutagePlan plan) { outages_ = std::move(plan); }
  bool down() const { return outages_.down_at(sim_.now()); }

  /// Accepts a message for delivery. Failure = relay down or recipient
  /// unroutable. Success does NOT imply eventual arrival (loss model).
  Status submit(Email email);

  /// New mail in `address` since the given cursor; advances the cursor
  /// the caller keeps. Mailboxes retain everything (tests inspect them).
  const std::vector<Email>& mailbox(const std::string& address) const;

  /// Fires when a message lands in a mailbox (clients use this to model
  /// push notification; polling clients ignore it).
  void set_on_delivered(
      std::function<void(const std::string& address, const Email&)> cb) {
    on_delivered_ = std::move(cb);
  }

  const Counters& stats() const { return stats_; }

  /// Mail by mailbox address. Ordered, so checkpoint images list the
  /// mailboxes by address; std::less<> lets string_view probes avoid a
  /// key allocation.
  using Mailboxes = std::map<std::string, std::vector<Email>, std::less<>>;

  /// Checkpoint state (sim/snapshot.h): mailbox contents are long-lived
  /// server state (unread fallback mail must survive a crash-restart so
  /// the user's next mailbox check still finds it), so they carry over
  /// together with the id counter and stats. Mail still in transit —
  /// submitted but not yet delivered — dies with the process image,
  /// like any in-flight message.
  struct State {
    Mailboxes mailboxes;
    std::uint64_t next_id = 1;
    Counters stats;
  };
  State save_state() const { return State{mailboxes_, next_id_, stats_}; }
  /// Call on a freshly constructed server, before any mailbox exists;
  /// later create_mailbox() calls keep restored contents (try_emplace).
  void restore_state(State state);

 private:
  void deliver(Email email);

  sim::Simulator& sim_;
  Rng rng_;
  EmailDelayModel delay_;
  Mailboxes mailboxes_;
  std::map<std::string, std::function<void(const Email&)>, std::less<>>
      domain_handlers_;
  sim::OutagePlan outages_;
  std::function<void(const std::string&, const Email&)> on_delivered_;
  std::uint64_t next_id_ = 1;
  Counters stats_;
};

}  // namespace simba::email
