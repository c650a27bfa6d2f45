// MyAlertBuddy (MAB) — the personal alert router at the center of the
// SIMBA architecture (Sections 3.3, 4.2).
//
// "All alerts for a user are first sent to the user's MyAlertBuddy,
// which then performs personalized alert routing." One incarnation of
// the MAB daemon process: it receives alert IMs and emails through the
// Communication Managers, applies pessimistic logging, acknowledges,
// classifies, aggregates, filters, and routes via delivery modes, and
// runs the self-stabilization checks. Restart policy lives outside (the
// MDC watchdog, src/core/mdc.h); one MyAlertBuddy object is one process
// incarnation, created fresh by the host on every (re)start.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "automation/email_manager.h"
#include "automation/im_manager.h"
#include "core/alert_log.h"
#include "core/category_map.h"
#include "core/classifier.h"
#include "core/coalescer.h"
#include "core/delivery_engine.h"
#include "core/digest.h"
#include "core/profile.h"
#include "core/rate_limit.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/trace.h"

namespace simba::core {

/// The user's persistent configuration: everything the paper lets the
/// user customize at their alert buddy. Owned by the host machine and
/// shared across MAB incarnations; remote commands mutate it.
struct MabConfig {
  UserProfile profile;
  /// Additional profiles for shared categories ("supports multiple
  /// subscribers per category to allow alert sharing").
  // simba-lint: ordered (config state; shared-category sweeps sorted)
  std::map<std::string, UserProfile> shared_profiles;
  SubscriptionRegistry subscriptions;
  AlertClassifier classifier;
  CategoryMap categories;

  const UserProfile* profile_for(const std::string& user) const;
};

/// Overload-control surface: admission limits, semantic coalescing,
/// priority-lane delivery, and bounded queues. Every knob defaults to
/// "off", leaving the pre-overload event schedule untouched.
struct OverloadOptions {
  /// Owner-wide admission bucket: total alert rate this MAB accepts
  /// for individual delivery. 0 rate = unlimited.
  TokenBucketConfig per_user;
  /// Per-source admission buckets (one per alert.source, lazily
  /// created). 0 rate = unlimited.
  TokenBucketConfig per_source;
  /// Fold over-limit alerts into per-category digest alerts instead of
  /// shedding them outright.
  bool coalesce_enabled = false;
  CoalescerOptions coalesce;
  /// Deferred-processing jobs (processing_delay > 0) the inbox holds;
  /// one more is shed. 0 = unbounded.
  std::size_t inbox_bound = 0;
  /// Delivery-engine concurrency limit and priority lanes.
  DeliveryEngineOptions engine;
};

/// Behavioral knobs (fault-tolerance toggles are the E8 ablation axes).
/// The housekeeping cadence (the paper's sanity check every minute and
/// stabilization every 20 s, plus a missed-event sweep every 30 s) and
/// the 08:00 daily digest are constants in mab.cc.
struct MabOptions {
  bool pessimistic_logging = true;
  bool self_stabilization = true;
  /// Per-alert processing cost between acknowledgement and routing
  /// (XML parsing, classification, automation-interface calls — the
  /// real MAB spent hundreds of milliseconds here).
  Duration processing_delay{};

  // Resource model for the MAB process itself.
  double base_memory_mb = 25.0;
  double leak_mb_per_alert = 0.0;
  double leak_mb_per_hour = 0.0;
  double memory_soft_limit_mb = 300.0;  // self-stabilization rejuvenates
  double memory_hard_limit_mb = 600.0;  // process hangs
  Duration mean_time_to_hang{};         // spontaneous hang (0 = never)

  /// Lifecycle tracing (null disables it). Owned by the world; shared
  /// across MAB incarnations so a restart keeps appending to the same
  /// alert timelines. Also handed to this incarnation's DeliveryEngine.
  util::Trace* trace = nullptr;

  /// Storm defenses (all off by default).
  OverloadOptions overload;
};

class MyAlertBuddy {
 public:
  MyAlertBuddy(sim::Simulator& sim, MabConfig& config, AlertLog& log,
               DigestStore& digest, AlertCoalescer& coalescer,
               automation::ImManager& im, automation::EmailManager& email,
               MabOptions options, Rng rng);
  ~MyAlertBuddy();

  MyAlertBuddy(const MyAlertBuddy&) = delete;
  MyAlertBuddy& operator=(const MyAlertBuddy&) = delete;

  /// Recovery scan ("first checks the log file for unprocessed IMs
  /// before accepting new alerts"), then event wiring and periodic
  /// tasks.
  void start();

  bool running() const { return running_ && !hung_; }
  bool terminated() const { return !running_; }
  bool hung() const { return hung_; }

  /// The MDC's non-blocking liveness probe. A hung process gives no
  /// answer — modeled as returning false (the MDC treats it as a
  /// missed reply either way).
  bool are_you_working();

  /// Graceful termination (software rejuvenation kinds 1 and 3, and
  /// the nightly shutdown). Fires on_terminated exactly once.
  void request_shutdown(const std::string& reason);

  /// Scripted fault hooks.
  void force_hang();

  double memory_mb() const;

  void set_on_terminated(std::function<void(const std::string& reason,
                                            bool expected)> cb) {
    on_terminated_ = std::move(cb);
  }

  DeliveryEngine& engine() { return *engine_; }
  const Counters& stats() const { return stats_; }
  Counters& stats() { return stats_; }

  /// Exposed for tests: one IM / email pump pass.
  void pump_im();
  void pump_email();

  /// Experiment hook: observes every alert the instant the MAB accepts
  /// it off a channel (before logging/processing) — used to measure
  /// the paper's one-way delivery times.
  void set_alert_observer(
      std::function<void(const Alert&, TimePoint received)> observer) {
    alert_observer_ = std::move(observer);
  }

  /// Observes every alert shed by a bounded queue (MAB inbox or a
  /// delivery lane) — the conservation checker's shed feed.
  void set_shed_observer(
      std::function<void(const std::string& alert_id, TimePoint at)> observer) {
    shed_observer_ = std::move(observer);
  }

  /// Observes every alert folded into a digest — the conservation
  /// checker's coalesced feed.
  void set_coalesce_observer(
      std::function<void(const std::string& alert_id, TimePoint at)> observer) {
    coalesce_observer_ = std::move(observer);
  }

 private:
  void handle_alert_im(const im::ImMessage& message);
  void send_ack(const std::string& to_user, const std::string& alert_id);
  void handle_command(const std::string& text, const std::string& from_user);
  /// Queues `alert` for processing after the per-alert processing
  /// delay (or processes immediately with no delay), shedding it when
  /// the bounded inbox is full.
  void process_after_delay(const Alert& alert);
  void process_alert(const Alert& alert);
  /// Admission decision for an already-classified alert. Returns true
  /// when the alert may be routed individually; false when it was
  /// coalesced or shed (terminal — the caller marks it processed).
  bool admit(const Alert& alert, const std::string& category);
  /// Folds an over-limit alert into its category window, scheduling
  /// the window flush when one opens.
  void coalesce(const Alert& alert, const std::string& category);
  /// Routes one flushed coalescer window as a digest alert.
  void emit_coalesced_digest(const AlertCoalescer::Digest& digest);
  void flush_coalescer(bool all, const char* trigger);
  /// Arms the next 08:00 digest; each one re-arms the following day's
  /// while this incarnation runs.
  void schedule_digest();
  void send_digest(const char* trigger);
  void route(const Alert& alert, const std::string& category);
  void stabilization_tick();
  void sanity_tick();
  /// Unhandled-exception path: "whenever MyAlertBuddy catches an
  /// exception that cannot be handled ... MyAlertBuddy gracefully
  /// terminates and gets restarted by the MDC."
  void fail_with(const std::string& reason);
  void progress() { last_progress_ = sim_.now(); }
  /// True when lifecycle tracing is armed; call sites that build a
  /// detail string check this first so untraced runs never pay for
  /// the concatenation.
  bool traced() const { return options_.trace != nullptr; }
  /// Instant trace event on `alert_id` (no-op untraced).
  void trace_event(const std::string& alert_id, const char* stage,
                   std::string detail);

  sim::Simulator& sim_;
  MabConfig& config_;
  AlertLog& log_;
  DigestStore& digest_;
  AlertCoalescer& coalescer_;
  automation::ImManager& im_;
  automation::EmailManager& email_;
  MabOptions options_;
  Rng rng_;
  std::unique_ptr<DeliveryEngine> engine_;
  bool running_ = true;
  bool hung_ = false;
  TimePoint started_at_{};
  TimePoint last_progress_{};
  std::uint64_t alerts_processed_ = 0;
  sim::TaskHandle sweep_task_;
  sim::TaskHandle sanity_task_;
  sim::TaskHandle stabilization_task_;
  sim::EventId digest_event_ = 0;
  sim::EventId hang_event_ = 0;
  /// Async work (log writes, deferred processing, ack completions) can
  /// outlive this incarnation; callbacks hold the token and bail once
  /// the object is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::function<void(const std::string&, bool)> on_terminated_;
  std::function<void(const Alert&, TimePoint)> alert_observer_;
  std::function<void(const std::string&, TimePoint)> shed_observer_;
  std::function<void(const std::string&, TimePoint)> coalesce_observer_;
  /// Admission state. Per-incarnation: a restarted MAB starts with
  /// full buckets, which only ever admits more, never loses alerts.
  TokenBucket user_bucket_;
  KeyedTokenBuckets source_buckets_;
  /// Deferred-processing jobs currently queued (inbox bound).
  int inbox_pending_ = 0;
  Counters stats_;
};

}  // namespace simba::core
