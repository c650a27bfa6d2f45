// Experiment E9 — portal-scale workload (Section 1), fleet edition.
//
// Paper: "We analyzed a recent one-week usage log from a commercial
// portal site, and it showed that on average around 225 thousands of
// people received around 778 thousands of alerts every day from that
// site" — i.e. ~3.46 alerts per user per day.
//
// Per-user MyAlertBuddy routing is independent across users, so the
// replay shards one world per user across the fleet runner's thread
// pool (--users N --threads T). Shard seeds derive only from the base
// seed and shard id, and merging is shard-ordered, so the merged
// correctness counters are identical for every thread count — compare
// `--threads 1` against `--threads $(nproc)` to see the speedup with
// the same delivered/lost/duplicate numbers.
#include <algorithm>

#include "common.h"
#include "fleet/portal_workload.h"
#include "resumable.h"

using namespace simba;
using namespace simba::bench;

int main(int argc, char** argv) {
  const Options options = Options::parse(argc, argv);

  // --epochs / --checkpoint-every / --resume-from: the resumable
  // portal fleet (fleet/resume.h) instead of the one-shot replay.
  // Fast loss-free models keep the cross-process round-trip ctest
  // (tools/resume_roundtrip.py) sub-second; the legacy calibrated
  // path below is untouched when no checkpoint flag is given.
  if (resumable_mode(options)) {
    fleet::PortalWorkloadOptions portal;
    portal.world.fidelity = fleet::ModelFidelity::kFast;
    portal.world.email_check_interval = minutes(15);
    portal.world.trace = true;
    portal.alerts_per_user_day = 72.0;
    portal.horizon = hours(8);
    portal.drain = hours(2);
    fleet::ResumableOptions resumable;
    resumable.workload = portal;
    resumable.fleet.shards = 4;
    return run_resumable_bench("portal_scale", options, resumable);
  }

  const int users =
      options.users > 0 ? options.users : (options.n > 0 ? options.n : 64);
  const int threads = std::max(1, options.threads);
  const double alerts_per_user_day = 778000.0 / 225000.0;

  fleet::PortalWorkloadOptions workload;
  workload.traffic = fleet::Traffic::kPortalEmail;
  workload.alerts_per_user_day = alerts_per_user_day;
  workload.world.fidelity = fleet::ModelFidelity::kCalibrated;
  workload.world.email_check_interval = minutes(60);
  // Lifecycle tracing feeds the per-stage latency section below and
  // the optional --trace-jsonl dump, which alone needs the spans.
  // Traces consume no randomness, so the correctness numbers are
  // unchanged either way.
  workload.world.trace = true;
  workload.world.keep_spans = !options.trace_jsonl.empty();

  fleet::FleetOptions fleet_options;
  fleet_options.shards = static_cast<std::size_t>(users);
  fleet_options.threads = threads;
  fleet_options.base_seed = options.seed;

  const fleet::FleetReport report = fleet::run_fleet(
      fleet_options, [&workload](const fleet::ShardTask& task) {
        return fleet::run_portal_shard(task, workload);
      });

  const std::int64_t sent = report.counters.get("alerts.sent");
  const std::int64_t delivered = report.counters.get("alerts.delivered");

  print_header("E9: portal-scale replay (sharded fleet)",
               "~225k users x ~3.46 alerts/user/day = ~778k alerts/day");
  print_row("users simulated", "225,000 (paper's portal)",
            std::to_string(users), "one fleet shard per user");
  print_row("fleet worker threads", "-", std::to_string(threads));
  print_row("portal alerts in the virtual day",
            strformat("%.2f per user", alerts_per_user_day),
            std::to_string(sent));
  print_row("alerts seen by users", "-",
            strformat("%lld (%.1f%%)", static_cast<long long>(delivered),
                      sent == 0 ? 0.0 : 100.0 * delivered / sent),
            "email losses and unread tails account for the rest");
  print_row("alerts lost / duplicated", "-",
            strformat("%lld / %lld",
                      static_cast<long long>(report.counters.get("alerts.lost")),
                      static_cast<long long>(
                          report.counters.get("alerts.duplicates"))));
  print_row("simulator events processed", "-",
            std::to_string(report.events_processed));
  print_row("wall-clock for the virtual day", "-",
            strformat("%.2f s", report.wall_seconds));
  const WallCost cost =
      wall_cost(report.wall_seconds, static_cast<std::size_t>(users),
                workload.horizon + workload.drain, sent);
  print_row("wall per simulated user-day", "-",
            strformat("%.0f us", cost.us_per_user_day),
            "headline metric, as perfbench reports it");
  print_row("wall per alert", "-", strformat("%.0f us", cost.us_per_alert));
  const double events_per_sec =
      report.events_processed / std::max(report.wall_seconds, 1e-9);
  print_row("kernel events per second", "-",
            strformat("%.0f", events_per_sec),
            "throughput metric tracked by BENCH_portal_scale.json");
  print_row("peak RSS", "-",
            strformat("%.1f MiB", peak_rss_bytes() / (1024.0 * 1024.0)));
  print_row("virtual-day speedup", "-",
            strformat("%.0fx", 86400.0 / std::max(report.wall_seconds, 1e-9)));
  const double full_scale_estimate =
      report.wall_seconds * (225000.0 / std::max(users, 1));
  print_row("est. wall-clock at full 225k users", "-",
            strformat("%.0f s (%.1f h)", full_scale_estimate,
                      full_scale_estimate / 3600.0),
            "linear extrapolation at this thread count");

  print_section("per-stage latency (merged lifecycle trace)");
  std::printf("%s", report.trace.stage_report().c_str());

  if (!options.trace_jsonl.empty()) {
    std::FILE* out = std::fopen(options.trace_jsonl.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   options.trace_jsonl.c_str());
      return 1;
    }
    const std::string jsonl = report.trace.to_jsonl();
    std::fwrite(jsonl.data(), 1, jsonl.size(), out);
    std::fclose(out);
    print_row("trace dumped", "-",
              strformat("%zu spans -> %s", report.trace.size(),
                        options.trace_jsonl.c_str()));
  }

  print_section("merged fleet report");
  std::printf("%s", report.render().c_str());

  if (!options.json.empty()) {
    JsonReport json;
    json.add("bench", std::string("bench_portal_scale"));
    json.add("scheduler", std::string(sim::Simulator::kScheduler));
    json.add("seed", static_cast<std::int64_t>(options.seed));
    json.add("users", users);
    json.add("threads", threads);
    json.add("alerts_sent", sent);
    json.add("alerts_delivered", delivered);
    json.add("alerts_lost", report.counters.get("alerts.lost"));
    json.add("alerts_duplicates", report.counters.get("alerts.duplicates"));
    json.add("events_processed", report.events_processed);
    json.add("wall_seconds", report.wall_seconds);
    json.add("wall_us_per_user_day", cost.us_per_user_day);
    json.add("wall_us_per_alert", cost.us_per_alert);
    json.add("events_per_sec", events_per_sec);
    json.add("peak_rss_bytes", peak_rss_bytes());
    if (!json.write_to(options.json)) return 1;
  }
  return 0;
}
