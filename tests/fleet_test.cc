// Fleet runner determinism: a fleet's merged report is a pure function
// of (base seed, shard count, workload) — never of the thread count or
// of scheduling. Shard seeds are stable, per-shard results identical,
// and merged floating-point statistics bit-identical between a serial
// run and a 4-thread run.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/portal_workload.h"
#include "util/strings.h"

namespace simba::fleet {
namespace {

PortalWorkloadOptions fast_workload() {
  PortalWorkloadOptions workload;
  workload.traffic = Traffic::kSourceIm;
  workload.world.fidelity = ModelFidelity::kFast;
  workload.world.email_check_interval = minutes(15);
  workload.alerts_per_user_day = 48.0;  // dense enough for a short run
  workload.horizon = hours(4);
  workload.drain = hours(1);
  // Traced with spans, so the determinism checks below also cover the
  // lifecycle trace: its merged JSONL must be as scheduling-independent
  // as every other merged statistic.
  workload.world.trace = true;
  workload.world.keep_spans = true;
  return workload;
}

FleetReport run(std::uint64_t seed, int threads,
                const PortalWorkloadOptions& workload) {
  FleetOptions options;
  options.shards = 4;
  options.threads = threads;
  options.base_seed = seed;
  return run_fleet(options, [&workload](const ShardTask& task) {
    return run_portal_shard(task, workload);
  });
}

TEST(ShardSeedTest, StableAndWellSpread) {
  // Pure function: same inputs, same seed — the property that makes
  // fleet runs reproducible across processes and platforms.
  EXPECT_EQ(shard_seed(42, 0), shard_seed(42, 0));
  EXPECT_EQ(shard_seed(1, 17), shard_seed(1, 17));
  // Distinct across shards and across base seeds, never zero.
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ull, 2ull, 42ull}) {
    for (std::size_t shard = 0; shard < 64; ++shard) {
      const std::uint64_t seed = shard_seed(base, shard);
      EXPECT_NE(seed, 0u);
      seen.insert(seed);
    }
  }
  EXPECT_EQ(seen.size(), 3u * 64u) << "seed collision across shards";
}

class FleetDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FleetDeterminismTest, SerialAndParallelReportsAreIdentical) {
  const PortalWorkloadOptions workload = fast_workload();
  const FleetReport serial = run(GetParam(), 1, workload);
  const FleetReport parallel = run(GetParam(), 4, workload);

  // The workload actually did something.
  EXPECT_GT(serial.counters.get("alerts.sent"), 0);
  EXPECT_GT(serial.counters.get("alerts.delivered"), 0);
  ASSERT_EQ(serial.per_shard.size(), 4u);

  // Same shard seeds regardless of which thread ran which shard.
  for (std::size_t i = 0; i < serial.per_shard.size(); ++i) {
    EXPECT_EQ(serial.per_shard[i].seed, shard_seed(GetParam(), i));
    EXPECT_EQ(parallel.per_shard[i].seed, serial.per_shard[i].seed);
  }

  // Every per-shard correctness number matches exactly.
  for (std::size_t i = 0; i < serial.per_shard.size(); ++i) {
    const ShardResult& s = serial.per_shard[i];
    const ShardResult& p = parallel.per_shard[i];
    EXPECT_EQ(s.counters.all(), p.counters.all()) << "shard " << i;
    EXPECT_EQ(s.events_processed, p.events_processed) << "shard " << i;
    EXPECT_EQ(s.delivery_latency.samples(), p.delivery_latency.samples())
        << "shard " << i;
    EXPECT_EQ(s.ack_latency.samples(), p.ack_latency.samples())
        << "shard " << i;
  }

  // And the merged snapshot is bit-identical, timing excluded.
  EXPECT_EQ(serial.correctness_json(), parallel.correctness_json());

  // The merged lifecycle trace too: byte-identical JSONL and an
  // identical per-stage latency report.
  EXPECT_FALSE(serial.trace.empty());
  EXPECT_EQ(serial.trace.to_jsonl(), parallel.trace.to_jsonl());
  EXPECT_EQ(serial.trace.stage_report(), parallel.trace.stage_report());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDeterminismTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(FleetRunnerTest, RerunningIsStableAcrossRuns) {
  const PortalWorkloadOptions workload = fast_workload();
  const FleetReport first = run(7, 2, workload);
  const FleetReport second = run(7, 3, workload);
  EXPECT_EQ(first.correctness_json(), second.correctness_json());
}

TEST(FleetRunnerTest, MoreThreadsThanShardsIsFine) {
  const PortalWorkloadOptions workload = fast_workload();
  FleetOptions options;
  options.shards = 2;
  options.threads = 16;
  options.base_seed = 5;
  const FleetReport report =
      run_fleet(options, [&workload](const ShardTask& task) {
        return run_portal_shard(task, workload);
      });
  EXPECT_EQ(report.per_shard.size(), 2u);
  EXPECT_GT(report.counters.get("alerts.sent"), 0);
}

TEST(FleetRunnerTest, EmptyFleetProducesEmptyReport) {
  FleetOptions options;
  options.shards = 0;
  options.threads = 4;
  const FleetReport report = run_fleet(
      options, [](const ShardTask&) { return ShardResult{}; });
  EXPECT_TRUE(report.per_shard.empty());
  EXPECT_TRUE(report.counters.all().empty());
  EXPECT_EQ(report.events_processed, 0u);
}

TEST(FleetRunnerTest, MergedTraceHoldsEachSpanOnce) {
  // Shard i emits i + 1 spans. The report holds all of them, in shard
  // order, and no shard result keeps a second copy of a span or of a
  // stage row.
  FleetOptions options;
  options.shards = 4;
  options.threads = 2;
  const FleetReport report = run_fleet(options, [](const ShardTask& task) {
    ShardResult result;
    for (std::size_t n = 0; n <= task.shard_id; ++n) {
      result.trace.emit(strformat("s%zu", task.shard_id), "bus", "send",
                        kTimeZero);
    }
    return result;
  });
  std::vector<std::string> ids;
  for (const util::Span& span : report.trace.spans()) {
    ids.push_back(span.alert_id);
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"s0", "s1", "s1", "s2", "s2", "s2",
                                           "s3", "s3", "s3", "s3"}));
  EXPECT_EQ(report.trace.stage_latency().at("bus.send").count(), 10u);
  ASSERT_EQ(report.per_shard.size(), 4u);
  for (const ShardResult& shard : report.per_shard) {
    EXPECT_TRUE(shard.trace.empty()) << "shard " << shard.shard_id;
    EXPECT_EQ(shard.trace.spans().capacity(), 0u) << "shard " << shard.shard_id;
    EXPECT_TRUE(shard.trace.stage_latency().empty())
        << "shard " << shard.shard_id;
  }
}

TEST(FleetReportTest, MergeShardAggregates) {
  ShardResult a;
  a.counters.bump("alerts.sent", 2);
  a.delivery_latency.add(1.0);
  a.events_processed = 10;
  a.wall_seconds = 0.5;
  ShardResult b;
  b.counters.bump("alerts.sent", 3);
  b.delivery_latency.add(3.0);
  b.events_processed = 7;
  b.wall_seconds = 0.25;

  FleetReport report;
  report.merge_shard(a);
  report.merge_shard(b);
  EXPECT_EQ(report.counters.get("alerts.sent"), 5);
  EXPECT_EQ(report.delivery_latency.count(), 2u);
  EXPECT_DOUBLE_EQ(report.delivery_latency.mean(), 2.0);
  EXPECT_EQ(report.events_processed, 17u);
  EXPECT_EQ(report.shard_wall_seconds.count(), 2u);
}

}  // namespace
}  // namespace simba::fleet
