// Soft-State Store (SSS) — the daemon process from the Aladdin home
// networking system (paper reference [9], used in Sections 2.3 and 5).
//
// "The Soft-State Store (SSS) server is a daemon process that maintains
// a store of soft-state variables, each of which is associated with a
// required refresh frequency and the maximum number of allowed missing
// refreshes before the variable is timed out. Clients of SSS can define
// data types, create variables, read/write variables, and subscribe to
// events relating to changes in the types or variables."
//
// Aladdin's powerline monitor writes into its local SSS, "which
// replicated the update to other PCs through a multicast over the
// phoneline Ethernet" — SssReplicationGroup models that multicast.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"

namespace simba::sss {

struct Variable {
  std::string type;
  std::string name;
  std::string value;
  Duration refresh_period{};
  int max_missed_refreshes = 0;
  TimePoint last_refresh{};
  bool timed_out = false;
  /// Version for last-writer-wins replication; ties break by origin.
  std::uint64_t version = 0;
  std::string origin;  // node that produced this version
};

enum class EventKind { kCreated, kUpdated, kRefreshed, kTimedOut, kDeleted };

const char* to_string(EventKind kind);

struct Event {
  EventKind kind;
  Variable variable;  // snapshot at event time
  TimePoint at{};
};

using SubscriptionId = std::uint64_t;

class SssReplicationGroup;

class SssServer {
 public:
  SssServer(sim::Simulator& sim, std::string node_name);
  ~SssServer();

  SssServer(const SssServer&) = delete;
  SssServer& operator=(const SssServer&) = delete;

  const std::string& node() const { return node_; }

  // --- Types ---------------------------------------------------------------
  Status define_type(const std::string& type);
  bool has_type(const std::string& type) const;
  std::vector<std::string> types() const;

  // --- Variables -----------------------------------------------------------
  /// Creates a variable. refresh_period zero disables timeout tracking.
  Status create(const std::string& type, const std::string& name,
                const std::string& value, Duration refresh_period,
                int max_missed_refreshes);
  /// Writes a value; counts as a refresh and clears any timeout.
  Status write(const std::string& name, const std::string& value);
  /// Keep-alive without a value change.
  Status refresh(const std::string& name);
  Result<Variable> read(const std::string& name) const;
  Status remove(const std::string& name);
  std::vector<std::string> variable_names() const;

  // --- Subscriptions ---------------------------------------------------------
  SubscriptionId subscribe_variable(const std::string& name,
                                    std::function<void(const Event&)> cb);
  SubscriptionId subscribe_type(const std::string& type,
                                std::function<void(const Event&)> cb);
  void unsubscribe(SubscriptionId id);

  const Counters& stats() const { return stats_; }

 private:
  friend class SssReplicationGroup;

  struct Subscription {
    SubscriptionId id;
    bool by_type;
    std::string key;
    std::function<void(const Event&)> callback;
  };

  void emit(EventKind kind, const Variable& variable);
  void arm_timeout(const std::string& name);
  void on_timeout_deadline(const std::string& name, std::uint64_t version,
                           TimePoint armed_refresh);
  /// Applies a replicated update; returns true if it won LWW.
  bool apply_remote(const Variable& remote);
  void replicate(const Variable& variable);

  sim::Simulator& sim_;
  std::string node_;
  std::set<std::string> types_;
  // Stays ordered (subscription fan-out walks variables sorted);
  // std::less<> lets string_view probes avoid a key allocation.
  std::map<std::string, Variable, std::less<>> variables_;
  std::map<std::string, sim::EventId, std::less<>> timeout_events_;
  std::vector<Subscription> subscriptions_;
  SubscriptionId next_sub_ = 1;
  SssReplicationGroup* group_ = nullptr;
  Counters stats_;
};

/// Multicast replication over a shared medium (Aladdin: the phoneline
/// Ethernet). Joins several SSS nodes; every local create/write/refresh
/// is multicast to the other members after a sampled latency, with
/// last-writer-wins reconciliation at the receiver.
/// Latency/loss model of the replication medium.
struct MediumModel {
  Duration base_latency = millis(120);
  Duration jitter = millis(200);
  double loss_probability = 0.0;
};

class SssReplicationGroup {
 public:
  explicit SssReplicationGroup(sim::Simulator& sim, MediumModel medium = {});

  void join(SssServer& server);
  const MediumModel& medium() const { return medium_; }
  const Counters& stats() const { return stats_; }

 private:
  friend class SssServer;
  void multicast(const SssServer& from, const Variable& variable);

  sim::Simulator& sim_;
  MediumModel medium_;
  Rng rng_;
  std::vector<SssServer*> members_;
  Counters stats_;
};

}  // namespace simba::sss
