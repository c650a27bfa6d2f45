#include "core/mab.h"

#include "util/calendar.h"
#include "util/log.h"
#include "util/strings.h"

namespace simba::core {
namespace {

// Housekeeping cadence (Section 4.2): the sanity check runs every
// minute and the dialog-box stabilization check every 20 seconds; the
// sweep catches new-message events the clients lost.
constexpr Duration kSanityInterval = minutes(1);
constexpr Duration kStabilizationInterval = seconds(20);
constexpr Duration kPumpSweepInterval = seconds(30);
// The daily digest of retained (filtered) alerts.
const TimeOfDay kDigestTime = TimeOfDay::at(8, 0);

}  // namespace

const UserProfile* MabConfig::profile_for(const std::string& user) const {
  if (user == profile.user()) return &profile;
  const auto it = shared_profiles.find(user);
  return it == shared_profiles.end() ? nullptr : &it->second;
}

MyAlertBuddy::MyAlertBuddy(sim::Simulator& sim, MabConfig& config,
                           AlertLog& log, DigestStore& digest,
                           AlertCoalescer& coalescer,
                           automation::ImManager& im,
                           automation::EmailManager& email, MabOptions options,
                           Rng rng)
    : sim_(sim),
      config_(config),
      log_(log),
      digest_(digest),
      coalescer_(coalescer),
      im_(im),
      email_(email),
      options_(std::move(options)),
      rng_(std::move(rng)),
      engine_(std::make_unique<DeliveryEngine>(sim, &im, &email,
                                               options_.overload.engine)),
      started_at_(sim.now()),
      last_progress_(sim.now()),
      user_bucket_(options_.overload.per_user, sim.now()),
      source_buckets_(options_.overload.per_source) {
  engine_->set_trace(options_.trace);
}

void MyAlertBuddy::trace_event(const std::string& alert_id, const char* stage,
                               std::string detail) {
  if (options_.trace == nullptr) return;
  options_.trace->emit(alert_id, "mab", stage, sim_.now(), std::move(detail));
}

MyAlertBuddy::~MyAlertBuddy() {
  *alive_ = false;
  sweep_task_.cancel();
  sanity_task_.cancel();
  stabilization_task_.cancel();
  if (hang_event_ != 0) sim_.cancel(hang_event_);
  if (digest_event_ != 0) sim_.cancel(digest_event_);
  // Unhook our callbacks from the (longer-lived) managers.
  im_.set_on_new_message(nullptr);
  email_.set_on_new_mail(nullptr);
  im_.set_on_report(nullptr);
  email_.set_on_report(nullptr);
}

void MyAlertBuddy::start() {
  SIMBA_LOG_INFO("mab", "MyAlertBuddy starting");

  // Windows open when the previous incarnation died flush now: their
  // scheduled flush events died with that incarnation's alive token,
  // and the folded alerts must not wait for the next storm.
  if (coalescer_.open_windows() > 0) {
    stats_.bump("coalesce.restart_flushes");
    flush_coalescer(/*all=*/true, "restart");
  }

  // Recovery scan before accepting new alerts.
  if (options_.pessimistic_logging) {
    const auto pending = log_.unprocessed();
    if (!pending.empty()) {
      stats_.bump("recovery_replays", static_cast<std::int64_t>(pending.size()));
      SIMBA_LOG_INFO("mab", strformat("recovering %zu unprocessed alert(s)",
                                      pending.size()));
      for (const auto& alert : pending) {
        trace_event(alert.id, "recovery_replay",
                    "restart scan found unprocessed alert");
        process_alert(alert);
      }
    }
  }

  im_.set_on_new_message([this] { pump_im(); });
  email_.set_on_new_mail([this] { pump_email(); });
  im_.set_on_report([this](const automation::SanityReport& report) {
    if (!report.healthy) stats_.bump("sanity.im_unhealthy");
  });
  email_.set_on_report([this](const automation::SanityReport& report) {
    if (!report.healthy) stats_.bump("sanity.email_unhealthy");
  });

  sweep_task_ = sim_.every(
      kPumpSweepInterval,
      [this] {
        pump_im();
        pump_email();
      },
      "mab.sweep");
  sanity_task_ =
      sim_.every(kSanityInterval, [this] { sanity_tick(); }, "mab.sanity");
  if (options_.self_stabilization) {
    stabilization_task_ = sim_.every(kStabilizationInterval,
                                     [this] { stabilization_tick(); },
                                     "mab.stabilize");
  }
  if (options_.mean_time_to_hang > Duration::zero()) {
    hang_event_ =
        sim_.after(rng_.exponential_duration(options_.mean_time_to_hang),
                   [this] { force_hang(); }, "mab.hang");
  }
  schedule_digest();
}

void MyAlertBuddy::schedule_digest() {
  digest_event_ = sim_.at(
      next_occurrence(sim_.now(), kDigestTime),
      [this] {
        digest_event_ = 0;
        send_digest("daily");
        // A hung or terminated incarnation arms nothing; its successor
        // arms its own digest in start().
        if (running()) schedule_digest();
      },
      "mab.digest");
}

bool MyAlertBuddy::are_you_working() {
  if (!running_ || hung_) return false;
  progress();
  return true;
}

void MyAlertBuddy::force_hang() {
  if (!running_) return;
  hung_ = true;
  stats_.bump("hangs");
  log_warn("mab", "MyAlertBuddy hung");
  // A hung process does no further work; its timers keep firing but
  // every entry point below checks running().
}

void MyAlertBuddy::request_shutdown(const std::string& reason) {
  if (!running_) return;
  running_ = false;
  stats_.bump("graceful_shutdowns");
  SIMBA_LOG_INFO("mab", "graceful shutdown: " + reason);
  sweep_task_.cancel();
  sanity_task_.cancel();
  stabilization_task_.cancel();
  if (on_terminated_) on_terminated_(reason, /*expected=*/true);
}

void MyAlertBuddy::fail_with(const std::string& reason) {
  if (!running_) return;
  running_ = false;
  stats_.bump("failures");
  log_warn("mab", "terminating on unhandled anomaly: " + reason);
  sweep_task_.cancel();
  sanity_task_.cancel();
  stabilization_task_.cancel();
  if (on_terminated_) on_terminated_(reason, /*expected=*/false);
}

double MyAlertBuddy::memory_mb() const {
  const double hours = to_seconds(sim_.now() - started_at_) / 3600.0;
  return options_.base_memory_mb + options_.leak_mb_per_hour * hours +
         options_.leak_mb_per_alert * static_cast<double>(alerts_processed_);
}

// ---------------------------------------------------------------------------
// Pumps
// ---------------------------------------------------------------------------

void MyAlertBuddy::pump_im() {
  if (!running()) return;
  // Resource exhaustion wedges the process whether or not the
  // self-stabilization checks (which would have rejuvenated first at
  // the soft limit) are enabled.
  if (memory_mb() > options_.memory_hard_limit_mb) {
    force_hang();
    return;
  }
  progress();
  std::vector<im::ImMessage> messages;
  try {
    // Deliberately the raw automation call: an exception here is the
    // paper's dominant MAB-restart trigger ("Most of them were
    // triggered by IM exceptions").
    messages = im_.client().fetch_unread();
  } catch (const gui::AutomationError& e) {
    fail_with(std::string("IM exception: ") + e.what());
    return;
  }
  for (const auto& message : messages) {
    if (!running()) return;  // terminated mid-batch; rest is lost
    if (engine_->handle_incoming(message)) continue;
    const auto kind = message.headers.find(wire::kKind);
    if (kind != message.headers.end() && kind->second == wire::kKindCommand) {
      handle_command(message.body, message.from_user);
      continue;
    }
    if (kind != message.headers.end() && kind->second == wire::kKindAlert) {
      handle_alert_im(message);
      continue;
    }
    // A plain human IM or a remote command typed by the user.
    if (icontains(message.body, "SIMBA ")) {
      handle_command(message.body, message.from_user);
    } else {
      stats_.bump("im.ignored");
    }
  }
}

void MyAlertBuddy::pump_email() {
  if (!running()) return;
  progress();
  std::vector<email::Email> mails;
  try {
    mails = email_.client().fetch_unread();
  } catch (const gui::AutomationError& e) {
    fail_with(std::string("email exception: ") + e.what());
    return;
  }
  for (const auto& mail : mails) {
    if (!running()) return;
    if (icontains(mail.subject, "SIMBA REJUVENATE") ||
        icontains(mail.body, "SIMBA REJUVENATE")) {
      handle_command("SIMBA REJUVENATE", mail.from);
      continue;
    }
    Alert alert;
    if (mail.headers.count("alert_id") > 0) {
      // A SIMBA-library source falling back to the email channel.
      alert = alert_from_headers(mail.headers, mail.body);
      stats_.bump("email.simba_alerts");
    } else {
      // A legacy email-only alert service: "To existing alert services
      // that support only email delivery, MyAlertBuddy looks just like
      // any other regular human user." Yahoo-style services carry the
      // category keyword in the sender display name, so keep the full
      // From for the classifier while matching rules by address.
      const auto [display, address] = parse_email_from(mail.from);
      alert.source = address;
      alert.subject = mail.subject;
      alert.body = mail.body;
      alert.high_importance = mail.high_importance;
      alert.created_at = mail.submitted_at;
      alert.id = "em-" + std::to_string(mail.id);
      alert.attributes["email_from"] = mail.from;
      stats_.bump("email.legacy_alerts");
    }
    trace_event(alert.id, "receive",
                mail.headers.count("alert_id") > 0 ? "email.simba"
                                                   : "email.legacy");
    if (alert_observer_) alert_observer_(alert, sim_.now());
    if (options_.pessimistic_logging) {
      if (!log_.append(alert, sim_.now())) {
        stats_.bump("duplicates_suppressed");
        trace_event(alert.id, "duplicate_drop", "already logged (email)");
        continue;
      }
    }
    process_after_delay(alert);
  }
}

// ---------------------------------------------------------------------------
// Alert path
// ---------------------------------------------------------------------------

void MyAlertBuddy::handle_alert_im(const im::ImMessage& message) {
  const Alert alert = alert_from_headers(message.headers, message.body);
  stats_.bump("im.alerts_received");
  if (traced()) trace_event(alert.id, "receive", "im from " + message.from_user);
  if (alert_observer_) alert_observer_(alert, sim_.now());
  const bool wants_ack = message.headers.count(wire::kRequiresAck) > 0;

  if (options_.pessimistic_logging) {
    const bool fresh = log_.append(alert, sim_.now());
    // Save to the log file *before* sending the acknowledgement; the
    // disk write costs latency (this is the E2 measurement).
    sim_.after(
        log_.write_latency(),
        [this, alive = alive_, alert, fresh, wants_ack,
         from = message.from_user] {
          if (!*alive) return;
          if (!running()) return;  // crashed during the write
          if (wants_ack) send_ack(from, alert.id);
          if (fresh) {
            process_after_delay(alert);
          } else {
            // A resend of something we already acked (the sender never
            // got our ack, or got it late). Ack again, process once.
            stats_.bump("duplicates_suppressed");
            trace_event(alert.id, "duplicate_drop",
                        "already logged; re-acked");
          }
        },
        "mab.log_write");
  } else {
    // Ablation: ack immediately. A crash before processing now loses
    // the alert — the sender has its ack and will not resend.
    if (wants_ack) send_ack(message.from_user, alert.id);
    process_after_delay(alert);
  }
}

void MyAlertBuddy::send_ack(const std::string& to_user,
                            const std::string& alert_id) {
  util::FlatMap<std::string, std::string> headers;
  headers[wire::kKind] = wire::kKindAck;
  headers[wire::kAckFor] = alert_id;
  im_.send_im(to_user, "ACK " + alert_id, std::move(headers),
              [this, alive = alive_](Status status) {
                if (!*alive) return;
                if (!status.ok()) stats_.bump("acks.send_failed");
              });
  stats_.bump("acks.sent");
  if (traced()) trace_event(alert_id, "ack_send", "to " + to_user);
}

void MyAlertBuddy::process_after_delay(const Alert& alert) {
  // Processing (classification, routing, automation calls) costs time
  // beyond the ack; deferred so the sender's ack is not held up by it.
  if (options_.processing_delay <= Duration::zero()) {
    process_alert(alert);
    return;
  }
  const std::size_t bound = options_.overload.inbox_bound;
  if (bound != 0 && static_cast<std::size_t>(inbox_pending_) >= bound) {
    // Inbox full. The alert is logged and acked; shedding here is a
    // deliberate, accounted drop — marked processed so the recovery
    // scan does not resurrect it.
    stats_.bump("inbox.shed");
    if (traced()) {
      trace_event(alert.id, "shed",
                  strformat("inbox full (%d queued)", inbox_pending_));
    }
    if (options_.pessimistic_logging) log_.mark_processed(alert.id, sim_.now());
    if (shed_observer_) shed_observer_(alert.id, sim_.now());
    return;
  }
  ++inbox_pending_;
  sim_.after(
      options_.processing_delay,
      [this, alive = alive_, alert] {
        if (!*alive) return;
        --inbox_pending_;
        if (running()) process_alert(alert);
      },
      "mab.process");
}

void MyAlertBuddy::process_alert(const Alert& alert) {
  progress();
  ++alerts_processed_;
  stats_.bump("alerts_processed");

  const auto keyword = config_.classifier.classify(alert);
  if (!keyword) {
    stats_.bump("alerts_unclassified");
    trace_event(alert.id, "classify", "unclassified; dropped");
    if (options_.pessimistic_logging) log_.mark_processed(alert.id, sim_.now());
    return;
  }
  if (traced()) trace_event(alert.id, "classify", "keyword " + *keyword);
  // Aggregation: keyword -> personal category; an unmapped keyword is
  // its own category.
  std::string category =
      config_.categories.category_for(*keyword).value_or(*keyword);
  if (traced()) trace_event(alert.id, "aggregate", "category " + category);
  // Admission control: over-limit alerts coalesce into a digest (or
  // shed, both accounted and traced) instead of entering the delivery
  // path. High-importance alerts always bypass the limiters.
  if (!admit(alert, category)) {
    if (options_.pessimistic_logging) log_.mark_processed(alert.id, sim_.now());
    return;
  }
  // Filtering: a disabled category retains the alert for the digest
  // ("temporarily blocks unwanted alerts, which ... may be useful in
  // the future"); a closed delivery window defers routing until the
  // window next opens.
  if (!config_.categories.category_enabled(category)) {
    stats_.bump("alerts_filtered");
    trace_event(alert.id, "filter", "category disabled; retained for digest");
    digest_.add(alert, category, sim_.now());
    if (options_.pessimistic_logging) log_.mark_processed(alert.id, sim_.now());
    return;
  }
  const auto window = config_.categories.window_for(category);
  if (window.has_value() && !window->contains(sim_.now())) {
    stats_.bump("alerts_deferred");
    trace_event(alert.id, "filter", "delivery window closed; deferred");
    const TimePoint open_at = next_occurrence(sim_.now(), window->start);
    // Deliberately NOT marked processed: if this incarnation dies
    // before the window opens, the recovery scan replays the alert and
    // it is re-deferred.
    sim_.at(
        open_at,
        [this, alive = alive_, alert, category] {
          if (!*alive || !running()) return;
          stats_.bump("alerts_deferred_delivered");
          route(alert, category);
          if (options_.pessimistic_logging) {
            log_.mark_processed(alert.id, sim_.now());
          }
        },
        "mab.deferred_route");
    return;
  }
  trace_event(alert.id, "filter", "pass");
  route(alert, category);
  if (options_.pessimistic_logging) log_.mark_processed(alert.id, sim_.now());
}

bool MyAlertBuddy::admit(const Alert& alert, const std::string& category) {
  if (!user_bucket_.enabled() && !source_buckets_.enabled()) return true;
  if (alert.high_importance) {
    stats_.bump("admission.critical_bypass");
    return true;
  }
  const TimePoint now = sim_.now();
  // Check every limiter before taking from any: an alert blocked by
  // one bucket must not burn tokens in another.
  if (user_bucket_.can_take(now) && source_buckets_.can_take(alert.source, now)) {
    user_bucket_.try_take(now);
    source_buckets_.try_take(alert.source, now);
    stats_.bump("admission.admitted");
    return true;
  }
  stats_.bump("admission.over_limit");
  if (options_.overload.coalesce_enabled) {
    coalesce(alert, category);
    return false;
  }
  // No coalescing configured: shed with explicit accounting.
  stats_.bump("admission.shed");
  trace_event(alert.id, "shed", "over admission limit");
  if (shed_observer_) shed_observer_(alert.id, sim_.now());
  return false;
}

void MyAlertBuddy::coalesce(const Alert& alert, const std::string& category) {
  const auto result = coalescer_.add(alert, category, sim_.now());
  if (result == AlertCoalescer::FoldResult::kDuplicate) {
    // Already folded (a recovery replay of an alert whose coalesce
    // outlived the crash in the host-owned coalescer). Never counted
    // twice.
    stats_.bump("coalesce.duplicates");
    trace_event(alert.id, "coalesce", "already folded; duplicate");
    return;
  }
  stats_.bump("coalesce.folded");
  if (traced()) {
    trace_event(alert.id, "coalesce", "folded into " + category + " window");
  }
  if (coalesce_observer_) coalesce_observer_(alert.id, sim_.now());
  if (result == AlertCoalescer::FoldResult::kBatchFull) {
    flush_coalescer(/*all=*/false, "batch full");
  } else if (result == AlertCoalescer::FoldResult::kOpenedWindow) {
    sim_.after(
        coalescer_.options().window,
        [this, alive = alive_] {
          if (!*alive || !running()) return;
          flush_coalescer(/*all=*/false, "window closed");
        },
        "mab.coalesce_flush");
  }
}

void MyAlertBuddy::flush_coalescer(bool all, const char* trigger) {
  const auto digests = all ? coalescer_.flush_all(sim_.now())
                           : coalescer_.flush_due(sim_.now());
  for (const auto& digest : digests) {
    if (traced()) {
      trace_event(digest.alert_id(), "digest",
                  strformat("%zu %s alert(s) coalesced (%s)", digest.count,
                            digest.category.c_str(), trigger));
      // Representative trace links: the folded alerts' lifecycles
      // point at the digest that carried them, and vice versa.
      for (const auto& rep : digest.representative_ids) {
        trace_event(rep, "digest_link", "carried by " + digest.alert_id());
        trace_event(digest.alert_id(), "digest_link", "represents " + rep);
      }
    }
    emit_coalesced_digest(digest);
  }
}

void MyAlertBuddy::emit_coalesced_digest(const AlertCoalescer::Digest& digest) {
  Alert alert;
  alert.source = "simba.coalescer";
  alert.native_category = digest.category;
  alert.subject = digest.subject();
  alert.body = digest.body();
  alert.created_at = sim_.now();
  alert.id = digest.alert_id();
  stats_.bump("coalesce.digests_emitted");
  route(alert, digest.category);
}

void MyAlertBuddy::route(const Alert& alert, const std::string& category) {
  const auto subscriptions = config_.subscriptions.for_category(category);
  if (subscriptions.empty()) {
    stats_.bump("alerts_unsubscribed");
    if (traced()) {
      trace_event(alert.id, "route", "no subscription for " + category);
    }
    return;
  }
  for (const auto& sub : subscriptions) {
    const UserProfile* profile = config_.profile_for(sub.user);
    if (profile == nullptr) {
      stats_.bump("routing.unknown_user");
      if (traced()) trace_event(alert.id, "route", "unknown user " + sub.user);
      continue;
    }
    const DeliveryMode* mode = profile->mode(sub.mode_name);
    if (mode == nullptr) {
      stats_.bump("routing.unknown_mode");
      if (traced()) {
        trace_event(alert.id, "route",
                    "unknown mode " + sub.mode_name + " for " + sub.user);
      }
      continue;
    }
    stats_.bump("routing.dispatched");
    if (traced()) {
      trace_event(alert.id, "route",
                  "dispatch " + sub.mode_name + " for " + sub.user);
    }
    DeliveryPriority priority = DeliveryPriority::kNormal;
    if (alert.high_importance) {
      priority = DeliveryPriority::kCritical;
    } else if (is_digest_alert_id(alert.id)) {
      priority = DeliveryPriority::kDigest;
    }
    engine_->deliver(
        alert, profile->addresses(), *mode,
        [this, alive = alive_,
         alert_id = alert.id](const DeliveryOutcome& outcome) {
          if (!*alive) return;
          if (outcome.shed) {
            stats_.bump("routing.shed");
            if (shed_observer_) shed_observer_(alert_id, sim_.now());
            return;
          }
          stats_.bump(outcome.delivered
                          ? CounterName("routing.delivered")
                          : CounterName("routing.undeliverable"));
        },
        priority);
  }
}

void MyAlertBuddy::send_digest(const char* trigger) {
  if (digest_.empty()) return;
  // Digest goes to the owner's first enabled email address; without
  // one the alerts stay retained for a later attempt.
  const Address* target = nullptr;
  for (const Address* address :
       config_.profile.addresses().of_type(CommType::kEmail)) {
    if (address->enabled) {
      target = address;
      break;
    }
  }
  if (target == nullptr) {
    stats_.bump("digest.no_email_address");
    return;
  }
  email::Email mail;
  mail.to = target->value;
  mail.subject = strformat("SIMBA digest: %zu filtered alert(s)",
                           digest_.size());
  mail.body = digest_.render_body();
  mail.headers["simba_digest"] = trigger;
  const Status status = email_.send_email(std::move(mail));
  if (status.ok()) {
    stats_.bump("digest.sent");
    SIMBA_LOG_INFO("mab", strformat("digest (%s) sent with %zu alert(s)",
                                    trigger, digest_.size()));
    digest_.drain();
  } else {
    // Keep everything retained; tomorrow's digest retries.
    stats_.bump("digest.send_failed");
  }
}

// ---------------------------------------------------------------------------
// Commands (remote administration, Section 4.2.1 kind 3 + Section 3.3)
// ---------------------------------------------------------------------------

void MyAlertBuddy::handle_command(const std::string& text,
                                  const std::string& from_user) {
  stats_.bump("commands");
  SIMBA_LOG_INFO("mab", "command from " + from_user + ": " + text);
  const std::string upper = to_lower(text);
  if (icontains(text, "SIMBA REJUVENATE")) {
    request_shutdown("remote rejuvenation command");
    return;
  }
  if (icontains(text, "SIMBA DIGEST")) {
    send_digest("on demand");
    stats_.bump("commands.digest");
    return;
  }
  // "SIMBA DISABLE ADDRESS <friendly name>" / ENABLE
  auto address_command = [&](const char* verb, bool enabled) -> bool {
    const std::string needle = std::string("simba ") + verb + " address ";
    const std::size_t pos = upper.find(needle);
    if (pos == std::string::npos) return false;
    const std::string name(trim(text.substr(pos + needle.size())));
    const Status status =
        config_.profile.addresses().set_enabled(name, enabled);
    stats_.bump(status.ok() ? CounterName("commands.address_toggled")
                            : CounterName("commands.failed"));
    return true;
  };
  if (address_command("disable", false)) return;
  if (address_command("enable", true)) return;
  // "SIMBA DISABLE CATEGORY <name>" / ENABLE
  auto category_command = [&](const char* verb, bool enabled) -> bool {
    const std::string needle = std::string("simba ") + verb + " category ";
    const std::size_t pos = upper.find(needle);
    if (pos == std::string::npos) return false;
    const std::string name(trim(text.substr(pos + needle.size())));
    config_.categories.set_category_enabled(name, enabled);
    stats_.bump("commands.category_toggled");
    return true;
  };
  if (category_command("disable", false)) return;
  if (category_command("enable", true)) return;
  stats_.bump("commands.unknown");
}

// ---------------------------------------------------------------------------
// Self-stabilization and sanity
// ---------------------------------------------------------------------------

void MyAlertBuddy::sanity_tick() {
  if (!running()) return;
  progress();
  // Direct health probe against the IM client; a throwing undocumented
  // interface here is unhandleable and terminates MAB (paper: the
  // dominant cause of the 36 MDC restarts).
  try {
    (void)im_.client().is_logged_in();
  } catch (const gui::AutomationError& e) {
    fail_with(std::string("IM exception in health probe: ") + e.what());
    return;
  }
  // The reports go to the observers start() installed. A check can
  // finish after this incarnation is gone; its successor's observers
  // never hear of it (the managers drop it by report epoch).
  im_.sanity_check();
  email_.sanity_check();
}

void MyAlertBuddy::stabilization_tick() {
  if (!running()) return;
  progress();
  // Invariant 1: no unprocessed dialog boxes. The managers' monkey
  // threads click known ones; unknown captions are invariant violations
  // we cannot rectify in place (and a restart will not clear a
  // system-owned modal) — they are counted and left for the operator,
  // exactly the paper's two unrecovered dialog failures.
  const auto unknown_im = im_.unknown_dialog_captions();
  const auto unknown_email = email_.unknown_dialog_captions();
  if (!unknown_im.empty() || !unknown_email.empty()) {
    stats_.bump("stabilize.unknown_dialogs_pending");
  }
  // The check delegates clearing to the dialog-handling API; with the
  // monkey mechanism disabled (E8 ablation) nothing can click.
  if (im_.monkey_active()) im_.monkey_sweep();
  if (email_.monkey_active()) email_.monkey_sweep();

  // Invariant 2: no unprocessed IMs/emails sitting in client windows
  // because a new-message event was lost.
  if (im_.client().unread_count() > 0) {
    stats_.bump("stabilize.unprocessed_ims");
    pump_im();
  }
  if (email_.client().unread_count() > 0) {
    stats_.bump("stabilize.unprocessed_emails");
    pump_email();
  }

  // Invariant 3: resource consumption. Our own bloat is rectified by
  // graceful rejuvenation; a bloated client is restarted through the
  // Shutdown/Restart API.
  if (memory_mb() > options_.memory_soft_limit_mb) {
    stats_.bump("stabilize.memory_rejuvenation");
    request_shutdown("self-stabilization: memory over soft limit");
    return;
  }
  if (im_.client().memory_mb() > options_.memory_soft_limit_mb) {
    stats_.bump("stabilize.im_client_rejuvenated");
    im_.restart();
  }
  if (email_.client().memory_mb() > options_.memory_soft_limit_mb) {
    stats_.bump("stabilize.email_client_rejuvenated");
    email_.restart();
  }
  // Hard limit: past this the process wedges instead of recovering —
  // what happens when self-stabilization is ablated away.
  if (memory_mb() > options_.memory_hard_limit_mb) force_hang();
}

}  // namespace simba::core
