// The chaos matrix (experiment E10): every preset scenario, across a
// seed sweep, must leave the alert-conservation invariants intact in
// every world — and the merged chaos fleet report must stay a pure
// function of the base seed, bit-identical for any thread count.
//
// Runs under `ctest -L chaos`.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/chaos_workload.h"
#include "fleet/fleet.h"
#include "fleet/storm_workload.h"
#include "sim/invariants.h"
#include "test_world.h"
#include "util/trace.h"

namespace simba::fleet {
namespace {

constexpr std::uint64_t kSeeds[] = {101, 202, 303, 404};

ChaosWorkloadOptions workload_for(const sim::ChaosScenario& scenario) {
  ChaosWorkloadOptions options;
  options.world = testing::fast_fleet_world();
  // Spans: the duplicate-span regression reads them, and a violation
  // report lists the offending alert's lifecycle from them.
  options.world.keep_spans = true;
  options.scenario = scenario;
  return options;
}

FleetReport run(std::uint64_t seed, int threads,
                const ChaosWorkloadOptions& workload) {
  FleetOptions options;
  options.shards = 4;
  options.threads = threads;
  options.base_seed = seed;
  return run_fleet(options, [&workload](const ShardTask& task) {
    return run_chaos_shard(task, workload);
  });
}

/// Asserts the conservation contract on one fleet report: a non-empty
/// population, disjoint terminal buckets that sum back to the
/// submissions, and zero of every violation class — per shard and
/// merged.
void expect_conserved(const FleetReport& report, const std::string& context) {
  const Counters& merged = report.counters;
  EXPECT_GT(merged.get("invariant.submitted"), 0) << context;
  EXPECT_EQ(merged.get("invariant.submitted"),
            merged.get("invariant.delivered") +
                merged.get("invariant.failed") +
                merged.get("invariant.shed") +
                merged.get("invariant.coalesced") +
                merged.get("invariant.in_flight"))
      << context;
  for (const char* violation :
       {"invariant.violations.phantom", "invariant.violations.ack_unlogged",
        "invariant.violations.log_vanished", "invariant.violations.vanished",
        "invariant.violations.illegal_duplicates",
        "invariant.violations.double_accounted",
        "invariant.violations.total"}) {
    EXPECT_EQ(merged.get(violation), 0) << context << ": " << violation;
  }
  for (std::size_t i = 0; i < report.per_shard.size(); ++i) {
    // On failure, the shard's violation report embeds each violating
    // alert's full lifecycle trace — print it.
    EXPECT_EQ(report.per_shard[i].counters.get("invariant.violations.total"),
              0)
        << context << ": shard " << i << "\n"
        << report.per_shard[i].violation_details;
  }
}

class ChaosMatrixTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosMatrixTest, EveryWorldConservesAlertsAcrossSeeds) {
  const sim::ChaosScenario scenario = sim::ChaosScenario::preset(GetParam());
  const ChaosWorkloadOptions workload = workload_for(scenario);

  // Injection counts summed across the seed sweep: one seed may draw an
  // empty fault schedule, sixteen worlds' worth cannot plausibly.
  Counters injected;
  for (const std::uint64_t seed : kSeeds) {
    const FleetReport report = run(seed, 4, workload);
    ASSERT_EQ(report.per_shard.size(), 4u);
    expect_conserved(report, scenario.name + "/seed " + std::to_string(seed));
    for (const auto& [name, value] : report.counters.all()) {
      injected.add(name, value);
    }
  }

  // The scenario's fault axes actually fired — a chaos run that injects
  // nothing would pass conservation vacuously.
  const auto any_of = [&injected](std::initializer_list<const char*> keys) {
    std::int64_t total = 0;
    for (const char* key : keys) total += injected.get(key);
    return total;
  };
  if (scenario.name == "baseline") {
    EXPECT_EQ(injected.get("alerts.lost"), 0) << "lossless control lost alerts";
    EXPECT_EQ(any_of({"chaos.duplicate", "chaos.reorder", "chaos.delay_spike",
                      "dropped.chaos_late_loss", "chaos.mab_crashes",
                      "chaos.mab_hangs", "chaos.reboots", "power_losses"}),
              0);
  } else if (scenario.name == "flaky_network") {
    EXPECT_GT(any_of({"chaos.duplicate", "chaos.reorder", "chaos.delay_spike",
                      "dropped.chaos_late_loss"}),
              0);
  } else if (scenario.name == "dup_storm") {
    EXPECT_GT(injected.get("chaos.duplicate"), 0);
  } else if (scenario.name == "crashy_daemon") {
    EXPECT_GT(any_of({"chaos.mab_crashes", "chaos.mab_hangs",
                      "chaos.reboots"}),
              0);
  } else if (scenario.name == "storm_crash") {
    EXPECT_GT(any_of({"chaos.mab_crashes", "chaos.mab_hangs"}), 0);
  } else if (scenario.name == "power_storms") {
    EXPECT_GT(injected.get("power_losses"), 0);
  } else if (scenario.name == "everything") {
    EXPECT_GT(any_of({"chaos.duplicate", "dropped.chaos_late_loss",
                      "chaos.mab_crashes", "power_losses"}),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ChaosMatrixTest,
    ::testing::Values("baseline", "flaky_network", "dup_storm",
                      "crashy_daemon", "storm_crash", "power_storms",
                      "everything"),
    [](const auto& info) { return info.param; });

class ChaosDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosDeterminismTest, SerialAndParallelReportsAreIdentical) {
  const ChaosWorkloadOptions workload =
      workload_for(sim::ChaosScenario::preset(GetParam()));
  const FleetReport serial = run(kSeeds[0], 1, workload);
  const FleetReport parallel = run(kSeeds[0], 4, workload);

  ASSERT_EQ(serial.per_shard.size(), parallel.per_shard.size());
  for (std::size_t i = 0; i < serial.per_shard.size(); ++i) {
    const ShardResult& s = serial.per_shard[i];
    const ShardResult& p = parallel.per_shard[i];
    EXPECT_EQ(s.counters.all(), p.counters.all()) << "shard " << i;
    EXPECT_EQ(s.events_processed, p.events_processed) << "shard " << i;
    EXPECT_EQ(s.delivery_latency.samples(), p.delivery_latency.samples())
        << "shard " << i;
  }
  EXPECT_EQ(serial.correctness_json(), parallel.correctness_json());
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ChaosDeterminismTest,
                         ::testing::Values("flaky_network", "everything"),
                         [](const auto& info) { return info.param; });

// --- Storm × crash: overload accounting across recovery replays -----------

StormWorkloadOptions storm_crash_workload() {
  StormWorkloadOptions options;
  options.world = testing::fast_fleet_world();
  options.world.overload = storm_defenses();
  options.scenario = sim::ChaosScenario::preset("storm_crash");
  return options;
}

FleetReport run_storm(std::uint64_t seed, int threads,
                      const StormWorkloadOptions& workload) {
  FleetOptions options;
  options.shards = 4;
  options.threads = threads;
  options.base_seed = seed;
  return run_fleet(options, [&workload](const ShardTask& task) {
    return run_storm_shard(task, workload);
  });
}

TEST(StormChaosTest, StormCrashNeverDoubleCountsAnAlert) {
  // MAB kills land mid-storm, while admission control is coalescing
  // and the bounded queues are shedding; the recovery replay then
  // crosses the shed/coalesce accounting. The extended conservation
  // identity (submitted = delivered + failed + shed + coalesced +
  // in-flight) must balance on every seed, with zero illegal
  // double-accounting — no alert counted in two outcome classes beyond
  // what duplicate-tolerant replay legally produces.
  const StormWorkloadOptions workload = storm_crash_workload();
  Counters injected;
  for (const std::uint64_t seed : kSeeds) {
    const FleetReport report = run_storm(seed, 4, workload);
    ASSERT_EQ(report.per_shard.size(), 4u);
    expect_conserved(report, "storm_crash/seed " + std::to_string(seed));
    for (const auto& [name, value] : report.counters.all()) {
      injected.add(name, value);
    }
  }
  // The sweep actually exercised the overload + crash machinery: the
  // defenses shed or coalesced real traffic and the chaos killed MABs.
  EXPECT_GT(injected.get("invariant.coalesced"), 0);
  EXPECT_GT(injected.get("invariant.coalesced") + injected.get("invariant.shed"),
            0);
  EXPECT_GT(injected.get("chaos.mab_crashes") + injected.get("chaos.mab_hangs"),
            0);
  EXPECT_GT(injected.get("alerts.critical"), 0);
}

TEST(StormChaosTest, StormReportsAreIdenticalSerialAndThreaded) {
  const StormWorkloadOptions workload = storm_crash_workload();
  const FleetReport serial = run_storm(kSeeds[0], 1, workload);
  const FleetReport parallel = run_storm(kSeeds[0], 4, workload);

  ASSERT_EQ(serial.per_shard.size(), parallel.per_shard.size());
  for (std::size_t i = 0; i < serial.per_shard.size(); ++i) {
    const ShardResult& s = serial.per_shard[i];
    const ShardResult& p = parallel.per_shard[i];
    EXPECT_EQ(s.counters.all(), p.counters.all()) << "shard " << i;
    EXPECT_EQ(s.events_processed, p.events_processed) << "shard " << i;
    EXPECT_EQ(s.critical_latency.samples(), p.critical_latency.samples())
        << "shard " << i;
  }
  EXPECT_EQ(serial.correctness_json(), parallel.correctness_json());
}

TEST(ChaosTraceTest, DuplicateDropsAreMatchedByBusDuplicateSpans) {
  // dup_storm is the isolation scenario for duplicate detection: the
  // bus only ever duplicates (never loses or delays), so every alert
  // the MAB drops as "already logged" must trace back to a bus-level
  // chaos duplication of a message carrying that alert's id.
  const ChaosWorkloadOptions workload =
      workload_for(sim::ChaosScenario::preset("dup_storm"));
  const ShardTask task{0, shard_seed(kSeeds[0], 0)};
  const ShardResult result = run_chaos_shard(task, workload);

  std::set<std::string> duplicated_ids;
  std::int64_t bus_duplicates = 0;
  std::vector<std::string> dropped_ids;
  for (const util::Span& span : result.trace.spans()) {
    if (std::string_view(span.component) == "bus" &&
        std::string_view(span.stage) == "duplicate") {
      ++bus_duplicates;
      duplicated_ids.insert(span.alert_id);
    }
    if (std::string_view(span.component) == "mab" &&
        std::string_view(span.stage) == "duplicate_drop") {
      dropped_ids.push_back(span.alert_id);
    }
  }

  // The storm actually duplicated alert traffic. The chaos counter can
  // exceed the span count: it also counts duplicated keepalive traffic
  // (pings, logins), which the bus deliberately leaves untraced.
  EXPECT_GT(bus_duplicates, 0);
  EXPECT_LE(bus_duplicates, result.counters.get("chaos.duplicate"));

  // Every duplicate-detection drop is explained by a bus duplication
  // of that same alert's traffic.
  for (const std::string& id : dropped_ids) {
    EXPECT_TRUE(duplicated_ids.count(id) > 0)
        << "MAB dropped '" << id
        << "' as a duplicate but the bus never duplicated it";
  }
}

TEST(ChaosTraceTest, ViolationReportEmbedsAlertTrace) {
  // A log-before-ack violation: the source was acked on the primary
  // leg but the pessimistic log never saw the alert.
  sim::InvariantChecker checker;
  checker.on_submitted("a-1", kTimeZero);
  checker.on_acked("a-1", /*block=*/0, /*logged=*/false,
                   kTimeZero + seconds(1));

  util::Trace trace;
  trace.emit("a-1", "mab", "receive", kTimeZero, "im from src");
  trace.emit("a-1", "mab", "ack_send", kTimeZero + seconds(1), "to src");

  const sim::InvariantChecker::Report report = checker.check();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violating_ids, std::vector<std::string>{"a-1"});

  const std::string details = report.describe(&trace);
  EXPECT_NE(details.find("trace for a-1"), std::string::npos) << details;
  EXPECT_NE(details.find("mab.receive"), std::string::npos) << details;
  EXPECT_NE(details.find("mab.ack_send"), std::string::npos) << details;
}

TEST(ChaosTraceTest, ViolationReportSaysWhenSpansWereNotKept) {
  // A world traced without keep_spans has only the stage table: the
  // report must not claim the alert left no spans.
  sim::InvariantChecker checker;
  checker.on_submitted("a-1", kTimeZero);
  checker.on_acked("a-1", /*block=*/0, /*logged=*/false,
                   kTimeZero + seconds(1));

  util::Trace trace(/*keep_spans=*/false);
  trace.emit("a-1", "mab", "receive", kTimeZero, "im from src");

  const std::string details = checker.check().describe(&trace);
  EXPECT_NE(details.find("trace for a-1"), std::string::npos) << details;
  EXPECT_NE(details.find("(spans not kept; set UserWorldOptions::keep_spans)"),
            std::string::npos)
      << details;
  EXPECT_EQ(details.find("no spans recorded"), std::string::npos) << details;
  EXPECT_EQ(details.find("mab.receive"), std::string::npos) << details;
}

TEST(ChaosPlanTest, SameInputsSamePlan) {
  const sim::ChaosScenario scenario = sim::ChaosScenario::everything();
  const sim::ChaosPlan a(99, scenario, days(2));
  const sim::ChaosPlan b(99, scenario, days(2));
  EXPECT_EQ(a.host().mab_kills, b.host().mab_kills);
  EXPECT_EQ(a.host().mab_hangs, b.host().mab_hangs);
  EXPECT_EQ(a.host().reboots, b.host().reboots);
  EXPECT_EQ(a.describe(), b.describe());

  const sim::ChaosPlan c(100, scenario, days(2));
  EXPECT_NE(a.host().mab_kills, c.host().mab_kills)
      << "seed ignored by the plan";
}

TEST(ChaosPlanTest, SchedulesRespectHorizonAndAreSorted) {
  const sim::ChaosPlan plan(7, sim::ChaosScenario::everything(), hours(8));
  const TimePoint horizon = kTimeZero + hours(8);
  for (const auto* schedule :
       {&plan.host().mab_kills, &plan.host().mab_hangs,
        &plan.host().reboots}) {
    for (std::size_t i = 0; i < schedule->size(); ++i) {
      EXPECT_GE((*schedule)[i], kTimeZero);
      EXPECT_LT((*schedule)[i], horizon);
      if (i > 0) {
        EXPECT_GE((*schedule)[i], (*schedule)[i - 1]);
      }
    }
  }
  for (const sim::Outage& outage : plan.host().power_plan.outages()) {
    EXPECT_GE(outage.start, kTimeZero);
    EXPECT_LT(outage.start, horizon);
  }
}

}  // namespace
}  // namespace simba::fleet
