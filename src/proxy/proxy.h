// Information/web-store alert proxy (Sections 2.1, 2.2).
//
// "For each Web site, the user specifies the URL, the polling
// frequency, the starting and ending keywords enclosing the interesting
// block of information. The alert proxy periodically polls the site and
// generates an alert when the interesting block changes." The paper's
// running examples — the Florida-recount page and PlayStation2
// availability — appear in the benches and examples.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/alert.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace simba::proxy {

/// The simulated web: named pages whose content scenario scripts
/// mutate over time.
class WebDirectory {
 public:
  explicit WebDirectory(sim::Simulator& sim);

  void put(const std::string& url, std::string content);
  /// Schedules a content change.
  void put_at(TimePoint when, const std::string& url, std::string content);
  bool exists(const std::string& url) const;
  /// Immediate read of current content (the proxy adds fetch latency).
  std::optional<std::string> get(const std::string& url) const;

  /// Per-fetch HTTP latency model.
  Duration sample_fetch_latency(Rng& rng) const;
  /// Transient fetch failure probability (timeouts, 5xx).
  void set_fetch_failure_probability(double p) { fetch_failure_ = p; }
  double fetch_failure_probability() const { return fetch_failure_; }

 private:
  sim::Simulator& sim_;
  // Stays ordered; std::less<> lets string_view probes avoid a key
  // allocation.
  std::map<std::string, std::string, std::less<>> pages_;
  double fetch_failure_ = 0.01;
};

/// Extracts the block between the first occurrence of `start_keyword`
/// and the next occurrence of `end_keyword`; nullopt when the keywords
/// are not found.
std::optional<std::string> extract_block(const std::string& content,
                                         const std::string& start_keyword,
                                         const std::string& end_keyword);

class AlertProxy {
 public:
  struct WatchConfig {
    std::string url;
    Duration poll_interval = seconds(30);
    std::string start_keyword;
    std::string end_keyword;
    /// Identity stamped on generated alerts.
    std::string source_name = "alert.proxy";
    std::string category = "Web Change";
    bool high_importance = false;
  };

  AlertProxy(sim::Simulator& sim, WebDirectory& web);

  using WatchId = std::uint64_t;
  WatchId add_watch(WatchConfig config, core::AlertSink sink);
  void remove_watch(WatchId id);

  const Counters& stats() const { return stats_; }

 private:
  struct Watch {
    WatchId id;
    WatchConfig config;
    core::AlertSink sink;
    std::optional<std::string> last_block;
    sim::TaskHandle poll_task;
  };

  void poll(WatchId id);

  sim::Simulator& sim_;
  WebDirectory& web_;
  Rng rng_;
  std::map<WatchId, Watch> watches_;
  WatchId next_watch_ = 1;
  std::uint64_t next_alert_ = 1;
  Counters stats_;
};

}  // namespace simba::proxy
