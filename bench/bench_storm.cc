// Experiment E12 — alert storms and the overload defenses.
//
// A storm is correlated overload: Aladdin sensor cascades (one motion
// event trips many sensors within seconds) and legacy proxy poll
// bursts, stacked on the normal background and a sparse stream of
// high-importance critical alerts. The same storm (same seeds, burst
// for burst) is replayed twice across a fleet of per-user worlds:
//
//   * defenses OFF — the pre-overload configuration: every alert is
//     admitted into one unbounded FIFO delivery lane, so criticals
//     queue behind the whole cascade backlog;
//   * defenses ON  — token-bucket admission (criticals exempt),
//     semantic coalescing into digest alerts, strict priority lanes,
//     and bounded shed-accounted queues (DESIGN.md §14).
//
// The headline metric is the critical-alert p99 delivery latency, off
// vs on; the dependability gate is the extended conservation identity
//   submitted = delivered + failed + shed + coalesced + in-flight
// which must balance in BOTH modes — the defenses shed and coalesce
// loudly, never silently. Exit code 1 only on invariant violations;
// throughput drift is the perf-smoke job's advisory business.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "fleet/storm_workload.h"

using namespace simba;
using namespace simba::bench;

namespace {

fleet::StormWorkloadOptions storm_options(bool defended) {
  fleet::StormWorkloadOptions options;
  options.world.fidelity = fleet::ModelFidelity::kFast;
  options.world.email_check_interval = minutes(15);
  options.world.overload =
      defended ? fleet::storm_defenses() : fleet::storm_no_defenses();
  // The transport bound belongs to the defended posture; at this scale
  // it is headroom, not a shedder — any "pending.shed" activity
  // shows up in the accounting rows below.
  options.world.bus_pending_bound = defended ? 4096 : 0;
  // Dense criticals so the p99 is a real tail statistic, and cascades
  // heavy enough to keep the undefended FIFO congested for minutes.
  options.critical_per_day = 600.0;
  options.sensor_cascades = 12;
  options.cascade_size = 150;
  options.cascade_spread = seconds(60);
  options.poll_bursts = 8;
  options.burst_size = 200;
  options.burst_spread = seconds(45);
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);
  const int users = options.users > 0 ? options.users : 8;
  const int threads = std::max(1, options.threads);

  fleet::FleetOptions fleet_options;
  fleet_options.shards = static_cast<std::size_t>(users);
  fleet_options.threads = threads;
  fleet_options.base_seed = options.seed;

  const auto run = [&fleet_options](bool defended) {
    const fleet::StormWorkloadOptions workload = storm_options(defended);
    return fleet::run_fleet(fleet_options,
                            [&workload](const fleet::ShardTask& task) {
                              return fleet::run_storm_shard(task, workload);
                            });
  };
  const fleet::FleetReport off = run(/*defended=*/false);
  const fleet::FleetReport on = run(/*defended=*/true);

  const std::int64_t submitted = on.counters.get("invariant.submitted");
  const std::int64_t shed = on.counters.get("invariant.shed");
  const std::int64_t coalesced = on.counters.get("invariant.coalesced");
  const double shed_ratio = submitted == 0 ? 0.0 : 1.0 * shed / submitted;
  const double coalesce_ratio =
      submitted == 0 ? 0.0 : 1.0 * coalesced / submitted;
  const double p99_off = off.critical_latency.percentile(99.0);
  const double p99_on = on.critical_latency.percentile(99.0);
  const double speedup = p99_on <= 0.0 ? 0.0 : p99_off / p99_on;
  const std::int64_t violations =
      off.counters.get("invariant.violations.total") +
      on.counters.get("invariant.violations.total");

  print_header("E12: alert-storm overload defenses",
               "critical alerts stay fast while the storm coalesces");
  print_row("storm worlds", "-", std::to_string(users),
            "one per-user deployment each");
  print_row("fleet worker threads", "-", std::to_string(threads));
  print_row("alerts submitted per mode", "-", std::to_string(submitted));
  print_row("critical alerts", "-",
            std::to_string(on.counters.get("alerts.critical")),
            "admission-exempt, priority lane");

  print_section("defenses OFF (single unbounded FIFO)");
  print_summary_seconds("critical latency", "queued behind the storm",
                        off.critical_latency);
  print_row("delivered / lost", "-",
            strformat("%lld / %lld",
                      static_cast<long long>(
                          off.counters.get("alerts.delivered")),
                      static_cast<long long>(off.counters.get("alerts.lost"))));

  print_section("defenses ON (admission + coalescing + priority lanes)");
  print_summary_seconds("critical latency", "near-baseline",
                        on.critical_latency);
  print_row("coalesced into digests", "-",
            strformat("%lld (%.1f%%), %lld digest(s)",
                      static_cast<long long>(coalesced), 100.0 * coalesce_ratio,
                      static_cast<long long>(
                          on.counters.get("coalesce.digests_emitted"))));
  print_row("shed with accounting", "-",
            strformat("%lld (%.1f%%)", static_cast<long long>(shed),
                      100.0 * shed_ratio),
            "inbox + lane + transport bounds");
  print_row("admission over-limit", "-",
            std::to_string(on.counters.get("admission.over_limit")));
  print_row("critical bypasses", "-",
            std::to_string(on.counters.get("admission.critical_bypass")));

  print_section("verdict");
  print_row("critical p99, off vs on", ">= 5x",
            strformat("%.2f s vs %.2f s (%.1fx)", p99_off, p99_on, speedup));
  print_row("invariant violations (both modes)", "0",
            std::to_string(violations),
            violations == 0 ? "every shed/coalesce accounted"
                            : "CONTRACT BROKEN");
  const double wall = off.wall_seconds + on.wall_seconds;
  const std::uint64_t events = off.events_processed + on.events_processed;
  const double events_per_sec = events / std::max(wall, 1e-9);
  print_row("wall-clock (both modes)", "-", strformat("%.2f s", wall));
  const fleet::StormWorkloadOptions shape = storm_options(/*defended=*/true);
  const WallCost cost =
      wall_cost(wall, 2 * static_cast<std::size_t>(users),
                shape.horizon + shape.drain,
                off.counters.get("invariant.submitted") + submitted);
  print_row("wall per simulated user-day", "-",
            strformat("%.0f us", cost.us_per_user_day),
            "headline metric over both modes' worlds");
  print_row("wall per alert", "-", strformat("%.0f us", cost.us_per_alert),
            "over both modes' submitted alerts");
  print_row("kernel events per second", "-",
            strformat("%.0f", events_per_sec),
            "throughput metric tracked by BENCH_storm.json");
  print_row("peak RSS", "-",
            strformat("%.1f MiB", peak_rss_bytes() / (1024.0 * 1024.0)));

  if (!options.json.empty()) {
    JsonReport json;
    json.add("bench", std::string("bench_storm"));
    json.add("scheduler", std::string(sim::Simulator::kScheduler));
    json.add("seed", static_cast<std::int64_t>(options.seed));
    json.add("users", users);
    json.add("threads", threads);
    json.add("alerts_submitted", submitted);
    json.add("alerts_critical", on.counters.get("alerts.critical"));
    json.add("critical_p99_off_s", p99_off);
    json.add("critical_p99_on_s", p99_on);
    json.add("critical_p99_speedup_x", speedup);
    json.add("shed_ratio", shed_ratio);
    json.add("coalesce_ratio", coalesce_ratio);
    json.add("digests_emitted", on.counters.get("coalesce.digests_emitted"));
    json.add("invariant_violations", violations);
    json.add("events_processed", events);
    json.add("wall_seconds", wall);
    json.add("wall_us_per_user_day", cost.us_per_user_day);
    json.add("wall_us_per_alert", cost.us_per_alert);
    json.add("events_per_sec", events_per_sec);
    json.add("peak_rss_bytes", peak_rss_bytes());
    if (!json.write_to(options.json)) return 1;
  }
  return violations == 0 ? 0 : 1;
}
