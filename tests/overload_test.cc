// Overload-control tests (DESIGN.md §14, experiment E12): virtual-time
// token buckets, semantic coalescing into digest alerts, bounded
// shed-accounted queues, the host-owned coalescer surviving MAB
// crashes, and the storm workload's extended conservation identity
//   submitted = delivered + failed + shed + coalesced + in-flight.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/alert.h"
#include "core/coalescer.h"
#include "core/rate_limit.h"
#include "fleet/storm_workload.h"
#include "fleet/user_world.h"
#include "net/bus.h"
#include "sim/invariants.h"
#include "sim/simulator.h"
#include "test_world.h"
#include "util/trace.h"

namespace simba::fleet {
namespace {

// ---------------------------------------------------------------------------
// Token buckets

core::TokenBucketConfig bucket_config(double rate, double burst) {
  core::TokenBucketConfig config;
  config.rate_per_sec = rate;
  config.burst = burst;
  return config;
}

TEST(TokenBucketTest, RefillAdmitsExactlyAtTheVirtualTimeBoundary) {
  // 1 token/s, capacity 1: after draining the bucket, the next token
  // is available exactly one virtual second later — not a microsecond
  // earlier.
  core::TokenBucket bucket(bucket_config(1.0, 1.0), kTimeZero);
  EXPECT_TRUE(bucket.try_take(kTimeZero));
  EXPECT_FALSE(bucket.can_take(kTimeZero + seconds(1) - micros(1)));
  EXPECT_TRUE(bucket.try_take(kTimeZero + seconds(1)));
}

TEST(TokenBucketTest, FractionalRefillStepsAccumulateWithoutDrift) {
  // Refilled in four quarter-second steps (each can_take refills as a
  // side effect), the bucket must still admit at the one-second mark
  // exactly like a single refill of the same total duration — the
  // kSlack contract from core/rate_limit.cc.
  core::TokenBucket bucket(bucket_config(1.0, 1.0), kTimeZero);
  EXPECT_TRUE(bucket.try_take(kTimeZero));
  for (int quarter = 1; quarter <= 3; ++quarter) {
    EXPECT_FALSE(bucket.can_take(kTimeZero + millis(250 * quarter)));
  }
  EXPECT_TRUE(bucket.try_take(kTimeZero + seconds(1)));
}

TEST(TokenBucketTest, BurstThenDrainCapsAtCapacity) {
  core::TokenBucket bucket(bucket_config(1.0, 3.0), kTimeZero);
  // The initial burst drains the full capacity, then blocks.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.try_take(kTimeZero));
  EXPECT_FALSE(bucket.try_take(kTimeZero));
  // A long idle stretch refills to the cap, never beyond it.
  const TimePoint later = kTimeZero + minutes(10);
  EXPECT_DOUBLE_EQ(bucket.available(later), 3.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.try_take(later));
  EXPECT_FALSE(bucket.try_take(later));
}

TEST(TokenBucketTest, ZeroRateDisablesTheBucket) {
  core::TokenBucket bucket(bucket_config(0.0, 1.0), kTimeZero);
  EXPECT_FALSE(bucket.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(kTimeZero));
}

TEST(TokenBucketTest, KeyedBucketsIsolateSourcesAndPeekWithoutTaking) {
  core::KeyedTokenBuckets buckets(bucket_config(0.01, 1.0));
  const TimePoint now = kTimeZero;
  // can_take peeks: repeated checks never consume the token.
  EXPECT_TRUE(buckets.can_take("aladdin", now));
  EXPECT_TRUE(buckets.can_take("aladdin", now));
  EXPECT_TRUE(buckets.try_take("aladdin", now));
  EXPECT_FALSE(buckets.can_take("aladdin", now));
  // Draining one source leaves every other source untouched.
  EXPECT_TRUE(buckets.try_take("proxy", now));
  EXPECT_EQ(buckets.size(), 2u);
}

// ---------------------------------------------------------------------------
// Coalescer

core::Alert make_alert(const std::string& id) {
  core::Alert alert;
  alert.source = "aladdin";
  alert.native_category = "Motion";
  alert.id = id;
  return alert;
}

core::CoalescerOptions coalescer_options(Duration window,
                                         std::size_t max_batch = 0,
                                         std::size_t representatives = 3) {
  core::CoalescerOptions options;
  options.window = window;
  options.max_batch = max_batch;
  options.representatives = representatives;
  return options;
}

TEST(CoalescerTest, WindowFlushesExactlyAtItsDeadline) {
  core::AlertCoalescer coalescer(coalescer_options(seconds(30)));
  EXPECT_EQ(coalescer.add(make_alert("a-1"), "Aladdin", kTimeZero),
            core::AlertCoalescer::FoldResult::kOpenedWindow);
  EXPECT_EQ(coalescer.add(make_alert("a-2"), "Aladdin", kTimeZero + seconds(5)),
            core::AlertCoalescer::FoldResult::kFolded);
  // One microsecond before the deadline nothing is due; at the
  // deadline the window flushes.
  EXPECT_TRUE(coalescer.flush_due(kTimeZero + seconds(30) - micros(1)).empty());
  EXPECT_EQ(coalescer.open_windows(), 1u);
  const auto digests = coalescer.flush_due(kTimeZero + seconds(30));
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].count, 2u);
  EXPECT_EQ(coalescer.open_windows(), 0u);
}

TEST(CoalescerTest, DuplicateIdsFoldOnlyOnce) {
  // A recovery replay re-offers an alert whose coalesce survived the
  // crash in the host-owned coalescer; it must not count twice.
  core::AlertCoalescer coalescer(coalescer_options(seconds(30)));
  coalescer.add(make_alert("a-1"), "Aladdin", kTimeZero);
  EXPECT_EQ(coalescer.add(make_alert("a-1"), "Aladdin", kTimeZero + seconds(1)),
            core::AlertCoalescer::FoldResult::kDuplicate);
  EXPECT_EQ(coalescer.pending_alerts(), 1u);
}

TEST(CoalescerTest, FullBatchAsksForAnImmediateFlush) {
  core::AlertCoalescer coalescer(
      coalescer_options(minutes(10), /*max_batch=*/3));
  coalescer.add(make_alert("a-1"), "Aladdin", kTimeZero);
  coalescer.add(make_alert("a-2"), "Aladdin", kTimeZero);
  EXPECT_EQ(coalescer.add(make_alert("a-3"), "Aladdin", kTimeZero),
            core::AlertCoalescer::FoldResult::kBatchFull);
}

TEST(CoalescerTest, DigestCarriesCountRepresentativesAndDigestId) {
  core::AlertCoalescer coalescer(
      coalescer_options(seconds(30), /*max_batch=*/0, /*representatives=*/2));
  for (int i = 1; i <= 4; ++i) {
    coalescer.add(make_alert("a-" + std::to_string(i)), "Aladdin", kTimeZero);
  }
  const auto digests = coalescer.flush_all(kTimeZero + seconds(10));
  ASSERT_EQ(digests.size(), 1u);
  const core::AlertCoalescer::Digest& digest = digests[0];
  EXPECT_EQ(digest.count, 4u);
  EXPECT_EQ(digest.alert_id(), "dg.1");
  EXPECT_TRUE(core::is_digest_alert_id(digest.alert_id()));
  EXPECT_FALSE(core::is_digest_alert_id("a-1"));
  EXPECT_NE(digest.subject().find("4 Aladdin alerts in"), std::string::npos)
      << digest.subject();
  const std::vector<std::string> expected_reps{"a-1", "a-2"};
  EXPECT_EQ(digest.representative_ids, expected_reps);
  EXPECT_NE(digest.body().find("a-1"), std::string::npos) << digest.body();
  EXPECT_NE(digest.body().find("a-2"), std::string::npos) << digest.body();
}

TEST(CoalescerTest, DigestSequenceIsMonotonicAcrossFlushes) {
  // The coalescer outlives MAB incarnations, so digest ids must never
  // repeat after a restart flush.
  core::AlertCoalescer coalescer(coalescer_options(seconds(30)));
  coalescer.add(make_alert("a-1"), "Aladdin", kTimeZero);
  EXPECT_EQ(coalescer.flush_all(kTimeZero)[0].alert_id(), "dg.1");
  coalescer.add(make_alert("a-2"), "Aladdin", kTimeZero + minutes(1));
  EXPECT_EQ(coalescer.flush_all(kTimeZero + minutes(1))[0].alert_id(), "dg.2");
}

// ---------------------------------------------------------------------------
// Invariant checker: shed / coalesced outcome classes

TEST(InvariantTest, ShedAndCoalescedAreTerminalBuckets) {
  sim::InvariantChecker checker;
  checker.on_submitted("a-1", kTimeZero);
  checker.on_submitted("a-2", kTimeZero);
  checker.on_submitted("a-3", kTimeZero);
  checker.on_delivered("a-1", "im", kTimeZero + seconds(1));
  checker.on_shed("a-2", kTimeZero + seconds(1));
  checker.on_coalesced("a-3", kTimeZero + seconds(1));

  const sim::InvariantChecker::Report report = checker.check();
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.submitted, 3);
  EXPECT_EQ(report.delivered, 1);
  EXPECT_EQ(report.shed, 1);
  EXPECT_EQ(report.coalesced, 1);
  EXPECT_EQ(report.in_flight, 0);
  EXPECT_EQ(report.conservation_gap, 0);

  Counters counters;
  report.export_to(counters);
  EXPECT_EQ(counters.get("invariant.shed"), 1);
  EXPECT_EQ(counters.get("invariant.coalesced"), 1);
  EXPECT_EQ(counters.get("invariant.violations.total"), 0);
}

TEST(InvariantTest, DoubleAccountingIsTrackedAndLegalOnlyWithDuplicates) {
  // A crash after routing but before the processed-mark can replay an
  // alert into a second outcome class (delivered once, coalesced on
  // replay). With duplicates allowed this is tracked, not a violation.
  sim::InvariantChecker lenient;
  lenient.on_submitted("a-1", kTimeZero);
  lenient.on_delivered("a-1", "im", kTimeZero + seconds(1));
  lenient.on_coalesced("a-1", kTimeZero + seconds(2));
  const sim::InvariantChecker::Report ok_report = lenient.check();
  EXPECT_TRUE(ok_report.ok()) << ok_report.describe();
  EXPECT_EQ(ok_report.double_accounted, 1);
  EXPECT_EQ(ok_report.delivered, 1);  // buckets stay disjoint
  EXPECT_EQ(ok_report.coalesced, 0);

  sim::InvariantChecker strict{
      sim::InvariantChecker::Options{/*duplicates_allowed=*/false}};
  strict.on_submitted("a-1", kTimeZero);
  strict.on_delivered("a-1", "im", kTimeZero + seconds(1));
  strict.on_coalesced("a-1", kTimeZero + seconds(2));
  const sim::InvariantChecker::Report bad_report = strict.check();
  EXPECT_FALSE(bad_report.ok());
  EXPECT_EQ(bad_report.illegal_double_accounted, 1);
  ASSERT_EQ(bad_report.violating_ids, std::vector<std::string>{"a-1"});

  Counters counters;
  bad_report.export_to(counters);
  EXPECT_EQ(counters.get("invariant.violations.double_accounted"), 1);

  // The violation report embeds the offending alert's lifecycle trace.
  util::Trace trace;
  trace.emit("a-1", "mab", "coalesce", kTimeZero + seconds(2), "replayed");
  const std::string details = bad_report.describe(&trace);
  EXPECT_NE(details.find("trace for a-1"), std::string::npos) << details;
  EXPECT_NE(details.find("mab.coalesce"), std::string::npos) << details;
}

// ---------------------------------------------------------------------------
// Bounded bus pool

TEST(BusBoundTest, PendingBoundShedsWithExplicitAccounting) {
  sim::Simulator sim(1);
  net::MessageBus bus(sim);
  int received = 0;
  bus.attach("b", [&received](const net::Message&) { ++received; });
  bus.set_pending_bound(1);
  for (int i = 0; i < 3; ++i) {
    net::Message message;
    message.from = bus.intern("a");
    message.to = bus.intern("b");
    message.type = "t";
    bus.send(std::move(message));
  }
  EXPECT_EQ(bus.stats().get("pending.shed"), 2);
  sim.run_for(seconds(5));
  EXPECT_EQ(received, 1);
}

// ---------------------------------------------------------------------------
// Admission + coalescing end to end in a UserWorld

void submit(UserWorld& world, TimePoint at, std::string id, bool critical) {
  world.sim.at(
      at,
      [&world, id = std::move(id), critical] {
        core::Alert alert;
        alert.source = "aladdin";
        alert.native_category = "Motion";
        alert.subject = "storm " + id;
        alert.high_importance = critical;
        alert.id = id;
        alert.created_at = world.sim.now();
        world.source->send_alert(alert);
      },
      "test.submit");
}

UserWorldOptions overload_world_options() {
  UserWorldOptions options;
  options.fidelity = ModelFidelity::kFast;
  options.with_source = true;
  options.storm_config = true;
  options.overload.per_source.rate_per_sec = 0.01;
  options.overload.per_source.burst = 1.0;
  options.overload.coalesce_enabled = true;
  options.overload.coalesce.window = seconds(30);
  return options;
}

TEST(OverloadWorldTest, OverLimitAlertsCoalesceIntoOneDeliveredDigest) {
  UserWorld world(7, overload_world_options());
  const TimePoint t0 = world.sim.now();
  // Five same-source alerts against a 1-token bucket: the first is
  // admitted, the other four fold into one Aladdin window. A critical
  // alert bypasses admission even with the bucket drained.
  for (int i = 0; i < 5; ++i) {
    submit(world, t0 + seconds(1 + i), "ov-" + std::to_string(i),
           /*critical=*/false);
  }
  submit(world, t0 + seconds(10), "ov-crit", /*critical=*/true);
  world.sim.run_for(minutes(5));

  const Counters totals = world.host->mab_stats_total();
  EXPECT_EQ(totals.get("admission.admitted"), 1);
  EXPECT_EQ(totals.get("admission.critical_bypass"), 1);
  EXPECT_EQ(totals.get("admission.over_limit"), 4);
  EXPECT_EQ(totals.get("coalesce.folded"), 4);
  EXPECT_EQ(totals.get("coalesce.digests_emitted"), 1);
  EXPECT_EQ(totals.get("admission.shed"), 0);

  // The admitted alert, the critical, and the digest reach the user;
  // the folded alerts never arrive individually.
  EXPECT_TRUE(world.user->first_seen("ov-0").has_value());
  EXPECT_TRUE(world.user->first_seen("ov-crit").has_value());
  EXPECT_TRUE(world.user->first_seen("dg.1").has_value());
  for (int i = 1; i < 5; ++i) {
    EXPECT_FALSE(world.user->first_seen("ov-" + std::to_string(i)).has_value())
        << "folded alert ov-" << i << " was delivered individually";
  }
  EXPECT_EQ(world.host->coalescer().open_windows(), 0u);
}

TEST(OverloadWorldTest, OpenWindowsFlushWhenTheMabReboots) {
  // A long window holds folded alerts when the MAB crashes; the
  // coalescer is host-owned, so the next incarnation's start() flushes
  // the window instead of losing it.
  UserWorldOptions options = overload_world_options();
  options.overload.per_source.rate_per_sec = 0.001;
  options.overload.coalesce.window = minutes(60);
  UserWorld world(11, options);
  const TimePoint t0 = world.sim.now();
  for (int i = 0; i < 3; ++i) {
    submit(world, t0 + seconds(1 + i), "rb-" + std::to_string(i),
           /*critical=*/false);
  }
  world.sim.run_for(seconds(30));
  EXPECT_EQ(world.host->coalescer().open_windows(), 1u);
  EXPECT_EQ(world.host->coalescer().pending_alerts(), 2u);

  world.host->inject_mab_crash();
  world.sim.run_for(minutes(8));  // MDC heartbeat discovers + restarts

  const Counters totals = world.host->mab_stats_total();
  EXPECT_GE(totals.get("coalesce.restart_flushes"), 1);
  EXPECT_EQ(totals.get("coalesce.digests_emitted"), 1);
  EXPECT_EQ(world.host->coalescer().open_windows(), 0u);
  EXPECT_TRUE(world.user->first_seen("dg.1").has_value());
}

// ---------------------------------------------------------------------------
// Storm shards

StormWorkloadOptions small_storm(bool defended) {
  StormWorkloadOptions options;
  options.world = testing::fast_fleet_world();
  // Spans, so a violation report lists the offending alert's lifecycle.
  options.world.keep_spans = true;
  options.world.overload = defended ? storm_defenses() : storm_no_defenses();
  options.horizon = hours(2);
  options.drain = hours(1);
  options.background_per_day = 24.0;
  // Dense enough that several criticals land inside cascade-congested
  // stretches, so the undefended FIFO's queueing delay shows up in the
  // critical p99 and not just in the tail nobody sampled.
  options.critical_per_day = 600.0;
  options.sensor_cascades = 4;
  options.cascade_size = 120;
  options.cascade_spread = seconds(60);
  options.poll_bursts = 2;
  options.burst_size = 60;
  return options;
}

TEST(StormShardTest, DefendedStormConservesEveryAlertAndCoalesces) {
  const ShardTask task{0, shard_seed(101, 0)};
  const ShardResult result = run_storm_shard(task, small_storm(true));
  const Counters& c = result.counters;
  EXPECT_EQ(c.get("invariant.violations.total"), 0)
      << result.violation_details;
  EXPECT_EQ(c.get("invariant.submitted"),
            c.get("invariant.delivered") + c.get("invariant.failed") +
                c.get("invariant.shed") + c.get("invariant.coalesced") +
                c.get("invariant.in_flight"));
  // The storm actually overwhelmed admission: a healthy slice of the
  // population was coalesced, and the digests were delivered.
  EXPECT_GT(c.get("invariant.coalesced"), 0);
  EXPECT_GT(c.get("coalesce.digests_emitted"), 0);
  // Every critical alert bypassed admission and reached the user.
  EXPECT_GT(c.get("alerts.critical"), 0);
  EXPECT_EQ(c.get("alerts.critical"), c.get("alerts.critical_delivered"));
  EXPECT_EQ(static_cast<std::int64_t>(result.critical_latency.count()),
            c.get("alerts.critical"));
}

TEST(StormShardTest, StormShardIsAPureFunctionOfTheSeed) {
  const ShardTask task{1, shard_seed(202, 1)};
  const ShardResult a = run_storm_shard(task, small_storm(true));
  const ShardResult b = run_storm_shard(task, small_storm(true));
  EXPECT_EQ(a.counters.all(), b.counters.all());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.delivery_latency.samples(), b.delivery_latency.samples());
  EXPECT_EQ(a.critical_latency.samples(), b.critical_latency.samples());
}

TEST(StormShardTest, DefensesProtectCriticalLatencyUnderTheSameStorm) {
  const ShardTask task{0, shard_seed(303, 0)};
  const ShardResult defended = run_storm_shard(task, small_storm(true));
  const ShardResult undefended = run_storm_shard(task, small_storm(false));

  // Same storm, same engine concurrency. Undefended, every cascade
  // alert is admitted into one FIFO lane and the criticals queue
  // behind the backlog; defended, admission + priority lanes keep the
  // critical path clear.
  ASSERT_GT(defended.critical_latency.count(), 0u);
  ASSERT_GT(undefended.critical_latency.count(), 0u);
  EXPECT_EQ(undefended.counters.get("invariant.coalesced"), 0);
  EXPECT_GT(undefended.critical_latency.percentile(99.0),
            2.0 * defended.critical_latency.percentile(99.0))
      << "defended p99 " << defended.critical_latency.percentile(99.0)
      << "s vs undefended p99 " << undefended.critical_latency.percentile(99.0)
      << "s";
  // The undefended control still conserves alerts — nothing is shed or
  // coalesced, only slow.
  EXPECT_EQ(undefended.counters.get("invariant.violations.total"), 0)
      << undefended.violation_details;
}

}  // namespace
}  // namespace simba::fleet
