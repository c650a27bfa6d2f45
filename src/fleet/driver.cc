// The one shard driver (fleet/resume.h): plan, schedule, score, the
// epoch loop, the fleet runs built on it, and the one-epoch adapters
// behind run_portal_shard / run_chaos_shard / run_storm_shard. The
// checkpoint codec lives in fleet/checkpoint.cc.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/alert.h"
#include "fleet/checkpoint.h"
#include "fleet/resume.h"
#include "util/flat_map.h"

namespace simba::fleet {

const char* to_string(ResumeKind kind) {
  switch (kind) {
    case ResumeKind::kPortal: return "portal";
    case ResumeKind::kChaos: return "chaos";
    case ResumeKind::kStorm: return "storm";
  }
  return "?";
}

ResumeKind kind_of(const ResumableOptions& options) {
  return static_cast<ResumeKind>(options.workload.index() + 1);
}

namespace {

// --- The arrival plan -------------------------------------------------------

// Every arrival stream the three workload kinds submit. The whole
// schedule is realized once, at epoch 0, from the kind's dedicated rng
// stream — after that it is pure data, carried (and checkpointed) as
// such.
enum Stream : std::uint8_t {
  kStreamPortal = 0,      // portal mail, or source-IM portal alerts
  kStreamChaos = 1,       // chaos-workload source alerts
  kStreamBackground = 2,  // storm background floor
  kStreamCritical = 3,    // storm high-importance stream
  kStreamCascade = 4,     // Aladdin sensor cascades
  kStreamBurst = 5,       // proxy poll bursts
};

struct StreamInfo {
  const char* source;
  const char* native;
  const char* subject_prefix;
  bool critical;
};

StreamInfo stream_info(std::uint8_t stream) {
  switch (stream) {
    case kStreamChaos: return {"src", "K", "chaos alert ", false};
    case kStreamBackground: return {"src", "K", "storm alert ", false};
    case kStreamCritical: return {"aladdin", "Motion", "storm alert ", true};
    case kStreamCascade: return {"aladdin", "Motion", "storm alert ", false};
    case kStreamBurst: return {"proxy", "Poll", "storm alert ", false};
    default: return {"src", "K", "alert ", false};
  }
}

Duration horizon_of(const ResumableOptions& o) {
  return std::visit([](const auto& workload) { return workload.horizon; },
                    o.workload);
}

/// Portal e-mail: arrivals are mails into the buddy's mailbox rather
/// than alerts from a SIMBA-library source.
bool mails(const ResumableOptions& o) {
  const auto* portal = std::get_if<PortalWorkloadOptions>(&o.workload);
  return portal != nullptr && portal->traffic == Traffic::kPortalEmail;
}

/// The id of the shard's plan arrival `number`: "s<shard>-<number>".
std::string alert_id(std::size_t shard, std::uint64_t number) {
  return "s" + std::to_string(shard) + "-" + std::to_string(number);
}

TimePoint epoch_boundary(const ResumableOptions& o, int i) {
  return kTimeZero +
         Duration{horizon_of(o).count() * static_cast<std::int64_t>(i) /
                  static_cast<std::int64_t>(o.epochs)};
}

/// Realizes the full arrival schedule from the shard seed (epoch 0
/// only), then drops arrivals inside the quiesce window before each
/// interior boundary and orders everything by time. An arrival's plan
/// index is its alert id number.
void build_plan(UserWorld& world, const ResumableOptions& o, ShardDriver& d) {
  std::vector<Arrival> plan;
  const TimePoint start = world.sim.now();
  const TimePoint end = kTimeZero + horizon_of(o);
  const auto poisson = [&](Rng& rng, double per_day, std::uint8_t stream) {
    if (per_day <= 0.0) return;
    const Duration mean_gap{
        static_cast<std::int64_t>(86400.0 / per_day * 1e6)};
    TimePoint t = start;
    while (true) {
      t += rng.exponential_duration(mean_gap);
      if (t >= end) break;
      plan.push_back(Arrival{t, stream});
    }
  };
  // Correlated clumps: each starts at a uniform instant and fires
  // `size` arrivals spread over about `spread`.
  const auto clumps = [&](Rng& rng, int count, int size, Duration spread,
                          std::uint8_t stream) {
    const Duration mean_gap{static_cast<std::int64_t>(
        to_seconds(spread) / std::max(1, size) * 1e6)};
    for (int c = 0; c < count; ++c) {
      TimePoint t =
          start + rng.uniform_duration(Duration::zero(), end - start);
      for (int i = 0; i < size; ++i) {
        if (i > 0) t += rng.exponential_duration(mean_gap);
        if (t >= end) break;
        plan.push_back(Arrival{t, stream});
      }
    }
  };
  if (const auto* portal = std::get_if<PortalWorkloadOptions>(&o.workload)) {
    Rng rng = world.sim.make_rng("portal");
    poisson(rng, portal->alerts_per_user_day, kStreamPortal);
  } else if (const auto* chaos =
                 std::get_if<ChaosWorkloadOptions>(&o.workload)) {
    Rng rng = world.sim.make_rng("chaos.load");
    poisson(rng, chaos->alerts_per_user_day, kStreamChaos);
  } else {
    const auto& storm = std::get<StormWorkloadOptions>(o.workload);
    Rng rng = world.sim.make_rng("storm.load");
    poisson(rng, storm.background_per_day, kStreamBackground);
    poisson(rng, storm.critical_per_day, kStreamCritical);
    clumps(rng, storm.sensor_cascades, storm.cascade_size,
           storm.cascade_spread, kStreamCascade);
    clumps(rng, storm.poll_bursts, storm.burst_size, storm.burst_spread,
           kStreamBurst);
  }
  // Quiesce: no arrivals this close before an interior boundary, so
  // source-side deliveries resolve before the planned restart.
  std::erase_if(plan, [&](const Arrival& a) {
    for (int j = 1; j < o.epochs; ++j) {
      const TimePoint b = epoch_boundary(o, j);
      if (a.t >= b - o.boundary_gap && a.t < b) return true;
    }
    return false;
  });
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Arrival& x, const Arrival& y) { return x.t < y.t; });
  d.plan = std::move(plan);
}

/// Schedules every not-yet-scheduled arrival with t < window_end into
/// this epoch's kernel. Chaos and storm alerts feed the checker on
/// submit and on the source's done callback, source-IM portal alerts
/// keep their acks.
void schedule_arrivals(UserWorld& world, const ResumableOptions& o,
                       const ShardTask& task, ShardDriver& d,
                       TimePoint window_end) {
  const bool as_mail = mails(o);
  const bool portal = kind_of(o) == ResumeKind::kPortal;
  const std::size_t shard = task.shard_id;
  while (d.cursor < d.plan.size() && d.plan[d.cursor].t < window_end) {
    const Arrival arrival = d.plan[d.cursor];
    const std::uint64_t number = d.cursor++;
    if (as_mail) {
      world.sim.at(arrival.t, [&world, number] {
        email::Email mail;
        mail.from = "Yahoo! Alerts - Stocks <alerts@yahoo.example>";
        mail.to = world.host->email_address();
        mail.subject = "portal alert " + std::to_string(number);
        world.email_server.submit(std::move(mail));
      }, "fleet.mail_arrival");
      continue;
    }
    world.sim.at(arrival.t, [&world, &d, shard, number, portal] {
      const StreamInfo info = stream_info(d.plan[number].stream);
      core::Alert alert;
      // std::string rvalues: sidestep a GCC 12 -Werror=restrict false
      // positive on the const char* assign path at -O2.
      alert.source = std::string(info.source);
      alert.native_category = std::string(info.native);
      alert.subject = std::string(info.subject_prefix) + std::to_string(number);
      alert.high_importance = info.critical;
      alert.id = alert_id(shard, number);
      alert.created_at = world.sim.now();
      if (!portal) d.checker.on_submitted(alert.id, world.sim.now());
      world.source->send_alert(
          alert, [&world, &d, id = alert.id,
                  portal](const core::DeliveryOutcome& outcome) {
            if (portal) {
              if (outcome.delivered) {
                d.acked.emplace(id,
                                Ack{outcome.completed_at, outcome.block_used});
              }
            } else if (outcome.delivered) {
              // Probe the pessimistic log at the instant the source
              // learns of success: log-before-ack demands the record
              // is already on disk for a primary-leg (block 0) ack.
              d.checker.on_acked(id, outcome.block_used,
                                 world.host->alert_log().contains(id),
                                 outcome.completed_at);
            } else {
              d.checker.on_failed(id, outcome.completed_at);
            }
          });
    }, "fleet.alert_arrival");
  }
}

/// Counter keys copied from a component bag into the shard result, so
/// chaos sanity checks and overload accounting survive into the merged
/// report.
void copy_counters_with_prefix(const Counters& from, const std::string& prefix,
                               Counters& into) {
  for (const auto& [name, value] : from.all()) {
    if (name.rfind(prefix, 0) == 0) into.add(name, value);
  }
}

/// Final-epoch scoring, while the last world is still alive, over the
/// whole run's history (sightings, the checker, and all counter bags
/// span every epoch via WorldState). sorted_items() keeps every
/// Summary's add order deterministic.
ShardResult score_shard(UserWorld& world, const ResumableOptions& o,
                        const ShardTask& task, ShardDriver& d) {
  ShardResult result;
  const ResumeKind kind = kind_of(o);

  // Submit time per alert id: from the MAB's observer for portal mail
  // (created_at == mail.submitted_at), from the plan otherwise.
  util::FlatMap<std::string, TimePoint> sent_at;
  util::FlatSet<std::string> critical_ids;
  if (mails(o)) {
    sent_at = std::move(d.sent_at);
  } else {
    for (std::size_t n = 0; n < d.plan.size(); ++n) {
      std::string id = alert_id(task.shard_id, n);
      if (d.plan[n].stream == kStreamCritical) critical_ids.insert(id);
      sent_at.emplace(std::move(id), d.plan[n].t);
    }
  }

  if (kind != ResumeKind::kPortal) {
    // Horizon-time sweep: an alert with no terminal state must still be
    // *recoverable* — in the persistent log (the restart scan will
    // process it) or unread in the buddy's mailbox (the next email
    // pump will). Anything else has been silently lost, the violation
    // the paper's whole architecture exists to prevent. Shed and
    // coalesced alerts are terminal and never reach this sweep.
    util::FlatSet<std::string> mailbox_ids;
    for (const email::Email& mail :
         world.email_server.mailbox(world.host->email_address())) {
      const auto it = mail.headers.find("alert_id");
      if (it != mail.headers.end()) mailbox_ids.insert(it->second);
    }
    for (const std::string& id : d.checker.unresolved()) {
      if (world.host->alert_log().contains(id) || mailbox_ids.count(id) > 0) {
        d.checker.on_recoverable(id);
      }
    }
    // Acked-as-logged records must still be present now (a torn append
    // can only ever hit an unacked record).
    sim::InvariantChecker::LoggedNowMap logged_now;
    for (const auto& [id, submitted] : sent_at) {
      (void)submitted;
      logged_now[id] = world.host->alert_log().contains(id);
    }
    const sim::InvariantChecker::Report report = d.checker.check(&logged_now);
    report.export_to(result.counters);
    if (!report.ok()) {
      result.violation_details = report.describe(&world.trace);
    }
  }

  result.counters.bump("alerts.sent",
                       static_cast<std::int64_t>(d.plan.size()));
  if (kind == ResumeKind::kStorm) {
    result.counters.bump("alerts.critical",
                         static_cast<std::int64_t>(critical_ids.size()));
  }
  std::int64_t delivered = 0;
  std::int64_t critical_delivered = 0;
  std::int64_t duplicates = 0;
  for (const auto& [id, submitted] : sent_at.sorted_items()) {
    const auto seen = world.user->first_seen(id);
    if (!seen) continue;
    ++delivered;
    const double latency = to_seconds(*seen - submitted);
    result.delivery_latency.add(latency);
    if (critical_ids.count(id) > 0) {
      ++critical_delivered;
      result.critical_latency.add(latency);
    }
    duplicates += world.user->sightings(id) - 1;
  }
  result.counters.bump("alerts.delivered", delivered);
  if (kind == ResumeKind::kStorm) {
    result.counters.bump("alerts.critical_delivered", critical_delivered);
  }
  result.counters.bump(
      "alerts.lost", static_cast<std::int64_t>(d.plan.size()) - delivered);
  result.counters.bump("alerts.duplicates", duplicates);

  if (kind == ResumeKind::kPortal) {
    result.counters.merge(d.health);
    // Conservation: every sighting must trace back to a send this shard
    // made — the user cannot have seen an invented alert.
    result.counters.bump(
        "conservation.invented",
        static_cast<std::int64_t>(world.user->alerts_seen()) - delivered);
    if (!mails(o)) {
      // Log-before-ack: an IM-leg acknowledgement (block 0) means the
      // pessimistic log persisted the alert before the ack went out.
      for (const auto& [id, ack] : d.acked.sorted_items()) {
        result.ack_latency.add(to_seconds(ack.at - sent_at[id]));
        if (ack.block == 0 && !world.host->alert_log().contains(id)) {
          result.counters.bump("conservation.ack_unlogged");
        }
      }
      result.counters.bump("alerts.acked",
                           static_cast<std::int64_t>(d.acked.size()));
    }
  } else {
    // How much chaos actually bit, for scenario sanity checks.
    copy_counters_with_prefix(world.bus.stats(), "chaos.", result.counters);
    copy_counters_with_prefix(world.bus.stats(), "dropped.chaos",
                              result.counters);
    copy_counters_with_prefix(world.host->stats(), "chaos.", result.counters);
    copy_counters_with_prefix(world.host->stats(), "power_losses",
                              result.counters);
    copy_counters_with_prefix(world.host->alert_log().stats(), "torn_appends",
                              result.counters);
    if (kind == ResumeKind::kStorm) {
      // Overload accounting, aggregated across MAB incarnations, plus
      // the transport sheds.
      const Counters mab_totals = world.host->mab_stats_total();
      copy_counters_with_prefix(mab_totals, "admission.", result.counters);
      copy_counters_with_prefix(mab_totals, "coalesce.", result.counters);
      copy_counters_with_prefix(mab_totals, "inbox.", result.counters);
      copy_counters_with_prefix(mab_totals, "routing.shed", result.counters);
      copy_counters_with_prefix(world.bus.stats(), "pending.shed",
                                result.counters);
    }
  }

  result.events_processed = world.sim.events_processed();
  result.trace = std::move(world.trace);
  return result;
}

/// The world options every epoch of a shard builds with: the kind's
/// base knobs plus the plumbing its traffic needs.
UserWorldOptions shard_world(const ResumableOptions& o, const ShardTask& task,
                             ShardDriver& d) {
  UserWorldOptions world = std::visit(
      [](const auto& workload) { return workload.world; }, o.workload);
  world.user = "user" + std::to_string(task.shard_id);
  world.fault_horizon = horizon_of(o);
  // An image carries the trace as its span list, and decode rebuilds
  // the stage table from it: a world that kept no spans would resume
  // with only the rows recorded after the cut.
  if (o.epochs > 1) world.keep_spans = true;
  if (kind_of(o) == ResumeKind::kPortal) {
    world.with_source = !mails(o);
    return world;
  }
  world.with_source = true;
  world.chaos = kind_of(o) == ResumeKind::kChaos
                    ? std::get<ChaosWorkloadOptions>(o.workload).scenario
                    : std::get<StormWorkloadOptions>(o.workload).scenario;
  // Always traced, for the per-stage table; spans, which a violated
  // invariant needs to print the offending alert's full lifecycle,
  // only when the workload keeps them. Traces consume no randomness
  // and schedule no events, so the counters are unchanged either way.
  world.trace = true;
  world.shared_invariants = &d.checker;
  if (kind_of(o) == ResumeKind::kStorm) world.storm_config = true;
  return world;
}

/// One shard's remaining epochs: rebuild the world (cold or from the
/// carried WorldState), feed it its slice of the plan, run to the
/// boundary (or to horizon + drain on the last epoch), tear down. The
/// checkpoint, when requested, is encoded at the boundary — a pure
/// function of the driver, safe inside the parallel body.
ShardResult run_shard_epochs(const ResumableOptions& o, const ShardTask& task,
                             ShardDriver& d, int ckpt_epoch, bool stop) {
  const TimePoint end = kTimeZero + horizon_of(o);
  const Duration drain = std::visit(
      [](const auto& workload) { return workload.drain; }, o.workload);
  UserWorldOptions world_options = shard_world(o, task, d);
  for (std::uint32_t epoch = d.next_epoch;
       epoch < static_cast<std::uint32_t>(o.epochs); ++epoch) {
    world_options.resume = epoch > 0 ? &d.world : nullptr;
    UserWorld world(task.seed, world_options);

    if (epoch == 0) build_plan(world, o, d);

    std::optional<sim::ScopedTask> health_probe;
    if (kind_of(o) == ResumeKind::kPortal) {
      if (mails(o)) {
        world.host->set_alert_observer(
            [&d](const core::Alert& alert, TimePoint) {
              d.sent_at.emplace(alert.id, alert.created_at);
            });
      }
      // Availability probe. The lambda captures the shard world by
      // reference, so the task must die with this epoch — ScopedTask
      // guarantees the cancel.
      health_probe.emplace(world.sim.every(
          minutes(10),
          [&d, &world] {
            d.health.bump("health.samples");
            if (world.host->healthy()) d.health.bump("health.healthy");
          },
          "fleet.health"));
    }

    const bool last = epoch + 1 == static_cast<std::uint32_t>(o.epochs);
    const TimePoint boundary = last ? end : epoch_boundary(o, epoch + 1);
    schedule_arrivals(world, o, task, d, boundary);
    world.sim.run_until(last ? end + drain : boundary);

    if (last) return score_shard(world, o, task, d);

    d.world = save_world_state(world);
    d.next_epoch = epoch + 1;
    if (static_cast<int>(epoch) + 1 == ckpt_epoch) {
      d.image = encode_shard(o, task, d);
      if (stop) return ShardResult{};  // the run dies here; only the
                                       // checkpoint image survives
    }
  }
  return ShardResult{};
}

/// A plain run: one epoch of the driver, no checkpoint.
ShardResult run_one_epoch(const ShardTask& task, WorkloadOptions workload) {
  ResumableOptions options;
  options.workload = std::move(workload);
  options.epochs = 1;
  ShardDriver driver;
  return run_shard_epochs(options, task, driver, 0, false);
}

// --- Shared run loop --------------------------------------------------------

ResumableRun run_epochs(const ResumableOptions& o, const ResumeControl& control,
                        Counters* ckpt_stats,
                        std::vector<ShardDriver>& drivers) {
  const bool want_ckpt = control.checkpoint_after_epoch > 0 &&
                         control.checkpoint_after_epoch < o.epochs;
  const int ckpt_epoch = want_ckpt ? control.checkpoint_after_epoch : 0;
  const bool stop = want_ckpt && control.stop_at_checkpoint;

  ResumableRun run;
  FleetReport report = run_fleet(o.fleet, [&](const ShardTask& task) {
    return run_shard_epochs(o, task, drivers[task.shard_id], ckpt_epoch, stop);
  });
  run.completed = !stop;
  if (run.completed) run.report = std::move(report);

  if (want_ckpt) {
    // A resumed run past the requested epoch has no image to cut.
    bool all_cut = !drivers.empty();
    for (const ShardDriver& d : drivers) all_cut = all_cut && !d.image.empty();
    if (all_cut) {
      run.checkpoint =
          encode_fleet(o, drivers, static_cast<std::uint32_t>(ckpt_epoch));
      if (ckpt_stats != nullptr) {
        ckpt_stats->bump("ckpt.saved",
                         static_cast<std::int64_t>(drivers.size()));
        ckpt_stats->bump("ckpt.bytes",
                         static_cast<std::int64_t>(run.checkpoint.size()));
      }
    }
  }
  return run;
}

}  // namespace

ShardResult run_portal_shard(const ShardTask& task,
                             const PortalWorkloadOptions& options) {
  return run_one_epoch(task, options);
}

ShardResult run_chaos_shard(const ShardTask& task,
                            const ChaosWorkloadOptions& options) {
  return run_one_epoch(task, options);
}

ShardResult run_storm_shard(const ShardTask& task,
                            const StormWorkloadOptions& options) {
  return run_one_epoch(task, options);
}

ResumableRun run_resumable_fleet(const ResumableOptions& options,
                                 const ResumeControl& control,
                                 Counters* ckpt_stats) {
  std::vector<ShardDriver> drivers(options.fleet.shards);
  return run_epochs(options, control, ckpt_stats, drivers);
}

Result<ResumableRun> resume_fleet(const ResumableOptions& options,
                                  std::string_view image,
                                  const ResumeControl& control,
                                  Counters* ckpt_stats) {
  Result<std::vector<ShardDriver>> decoded = decode_fleet(options, image);
  if (!decoded.ok()) {
    if (ckpt_stats != nullptr) ckpt_stats->bump("ckpt.decode_failed");
    return make_error(decoded.error());
  }
  std::vector<ShardDriver> drivers = std::move(decoded).take();
  if (ckpt_stats != nullptr) {
    ckpt_stats->bump("ckpt.restored",
                     static_cast<std::int64_t>(drivers.size()));
  }
  return run_epochs(options, control, ckpt_stats, drivers);
}

}  // namespace simba::fleet
