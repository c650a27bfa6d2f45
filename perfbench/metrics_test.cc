// Checks the benchmark's own arithmetic (metrics.h): the tail rule,
// normalisation, the robust wall estimate, self times, alert
// accounting, trace bytes and the hash.
#include "metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

using simba::Counters;
using simba::Summary;

Summary counting_to(int n) {
  Summary s;
  for (int i = 1; i <= n; ++i) s.add(static_cast<double>(i));
  return s;
}

TEST(TailTest, ThousandDistinctSamplesLeaveTenBeyondP99) {
  const Tail t = tail(counting_to(1000), 99);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_TRUE(t.enough());
}

TEST(TailTest, NineHundredOneSamplesAreOneShort) {
  // The interpolated p99 of 1..901 is exactly 892, leaving 9 above it;
  // one more sample moves it between ranks and leaves 10.
  const Tail short_run = tail(counting_to(901), 99);
  EXPECT_DOUBLE_EQ(short_run.value, 892.0);
  EXPECT_EQ(short_run.beyond, 9u);
  EXPECT_FALSE(short_run.enough());
  const Tail long_enough = tail(counting_to(902), 99);
  EXPECT_EQ(long_enough.beyond, 10u);
  EXPECT_TRUE(long_enough.enough());
}

TEST(TailTest, TiesAtThePercentileAreNotBeyondIt) {
  Summary s;
  for (int i = 1; i <= 980; ++i) s.add(static_cast<double>(i));
  for (int i = 0; i < 20; ++i) s.add(5000.0);
  const Tail t = tail(s, 99);
  EXPECT_DOUBLE_EQ(t.value, 5000.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_FALSE(t.enough());
}

TEST(TailTest, EmptySummaryHasNoTail) {
  const Tail t = tail(Summary{}, 50);
  EXPECT_EQ(t.samples, 0u);
  EXPECT_FALSE(t.enough());
}

TEST(NormalisationTest, WorldDaysCountHorizonPlusDrain) {
  EXPECT_DOUBLE_EQ(world_days(200, simba::days(1), simba::hours(6)), 250.0);
  EXPECT_DOUBLE_EQ(world_days(8, simba::hours(4), simba::hours(2)), 2.0);
  EXPECT_DOUBLE_EQ(world_days(0, simba::hours(8), simba::hours(2)), 0.0);
}

TEST(NormalisationTest, MicrosecondsPerUserDayAndPerAlert) {
  const PerUnit u = per_unit(2.0, 250.0, 500);
  EXPECT_DOUBLE_EQ(u.us_per_user_day, 8000.0);
  EXPECT_DOUBLE_EQ(u.us_per_alert, 4000.0);
}

TEST(NormalisationTest, EmptyRunNormalisesToZero) {
  const PerUnit u = per_unit(1.0, 0.0, 0);
  EXPECT_EQ(u.us_per_user_day, 0.0);
  EXPECT_EQ(u.us_per_alert, 0.0);
}

TEST(RobustWallTest, MedianRatePerKindTimesItsWorldDays) {
  // Kind a: rates 1, 2, 100 s/day over 3 days -> median 2 -> 6 s.
  // Kind b: rates 3, 5 s/day over 4 days -> median 4 -> 16 s.
  const std::vector<ChunkTiming> chunks = {
      {"a", 1.0, 1.0}, {"b", 6.0, 2.0}, {"a", 2.0, 1.0},
      {"b", 10.0, 2.0}, {"a", 100.0, 1.0}};
  EXPECT_DOUBLE_EQ(robust_wall_seconds(chunks), 22.0);
}

TEST(RobustWallTest, SteadyChunksGiveTheirPlainSum) {
  const std::vector<ChunkTiming> chunks = {
      {"a", 0.5, 2.0}, {"a", 0.5, 2.0}, {"a", 0.5, 2.0}};
  EXPECT_DOUBLE_EQ(robust_wall_seconds(chunks), 1.5);
}

TEST(RobustWallTest, ChunksAreRescaledByTheirProbe) {
  // A chunk run while the probe took twice its nominal time counts
  // half its wall time; one with a quick probe counts more.
  const double slow = 2 * kProbeNominalSeconds;
  const double quick = kProbeNominalSeconds / 2;
  EXPECT_DOUBLE_EQ(host_normalised(3.0, slow), 1.5);
  EXPECT_DOUBLE_EQ(host_normalised(3.0, quick), 6.0);
  EXPECT_DOUBLE_EQ(host_normalised(3.0, 0.0), 3.0);
  const std::vector<ChunkTiming> chunks = {
      {"a", 2.0, 1.0, slow}, {"a", 1.0, 1.0, kProbeNominalSeconds},
      {"a", 0.5, 1.0, quick}};
  EXPECT_DOUBLE_EQ(robust_wall_seconds(chunks), 3.0);
}

TEST(ProbeTest, RunsAFixedAmountOfWork) {
  const double first = probe_seconds();
  EXPECT_GT(first, 0.0);
  EXPECT_LT(first, 5.0);
}

TEST(SelfTimeTest, ChildrenAreSubtractedOnceAndClipped) {
  std::vector<BenchSpan> spans(5);
  spans[0] = {"root", 0.0, 10.0, -1};
  spans[1] = {"a", 1.0, 3.0, 0};
  spans[2] = {"b", 2.0, 5.0, 0};   // overlaps a: [1, 5] counted once
  spans[3] = {"c", 9.0, 12.0, 0};  // runs past the parent: [9, 10]
  spans[4] = {"grandchild", 2.0, 2.5, 1};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
}

TEST(AccountingTest, CheckerBucketsGiveTheFailureIdentity) {
  Counters c;
  c.bump("invariant.submitted", 100);
  c.bump("invariant.delivered", 60);
  c.bump("invariant.coalesced", 30);
  c.bump("invariant.failed", 5);
  c.bump("invariant.shed", 3);
  c.bump("invariant.in_flight", 2);
  // alerts.lost also counts the coalesced alerts; it must be ignored.
  c.bump("alerts.sent", 100);
  c.bump("alerts.lost", 40);
  const Accounting a = accounting(c);
  EXPECT_EQ(a.submitted, 100);
  EXPECT_EQ(a.delivered, 60);
  EXPECT_EQ(a.coalesced, 30);
  EXPECT_EQ(a.failed, 10);
  EXPECT_TRUE(a.balanced());
}

TEST(AccountingTest, PortalCountersWithoutAChecker) {
  Counters c;
  c.bump("alerts.sent", 675);
  c.bump("alerts.delivered", 664);
  c.bump("alerts.lost", 11);
  const Accounting a = accounting(c);
  EXPECT_EQ(a.submitted, 675);
  EXPECT_EQ(a.coalesced, 0);
  EXPECT_EQ(a.failed, 11);
  EXPECT_TRUE(a.balanced());
}

TEST(AccountingTest, AGapIsUnbalanced) {
  Counters c;
  c.bump("invariant.submitted", 10);
  c.bump("invariant.delivered", 8);
  c.bump("invariant.failed", 1);
  EXPECT_FALSE(accounting(c).balanced());
}

TEST(TraceBytesTest, SmallStringsStayInline) {
  EXPECT_EQ(out_of_line_bytes(std::string("s0-12")), 0u);
  const std::string long_text(100, 'x');
  EXPECT_EQ(out_of_line_bytes(long_text), long_text.capacity() + 1);
}

TEST(TraceBytesTest, SlotsPlusOutOfLineStrings) {
  simba::util::Trace trace;
  EXPECT_EQ(trace_bytes(trace), 0u);
  trace.emit("s0-1", "bus", "send", simba::kTimeZero);
  trace.emit(std::string(40, 'a'), "log", "append", simba::kTimeZero,
             std::string(64, 'd'));
  const auto& spans = trace.spans();
  const std::size_t expected =
      spans.capacity() * sizeof(simba::util::Span) +
      (spans[1].alert_id.capacity() + 1) + (spans[1].detail.capacity() + 1);
  EXPECT_EQ(trace_bytes(trace), expected);
  EXPECT_GE(expected, 2 * sizeof(simba::util::Span) + 41 + 65);
}

TEST(TraceBytesTest, ReportCountsMergedAndPerShardTraces) {
  simba::fleet::FleetReport report;
  simba::fleet::ShardResult shard;
  shard.trace.emit("s0-1", "bus", "send", simba::kTimeZero);
  report.merge_shard(shard);
  report.per_shard.push_back(shard);
  EXPECT_EQ(report_trace_bytes(report),
            trace_bytes(report.trace) + trace_bytes(report.per_shard[0].trace));
  EXPECT_GT(report_trace_bytes(report), 0u);
}

TEST(HashTest, Fnv1aKnownValuesAndChaining) {
  EXPECT_EQ(fnv1a(kFnvOffset, ""), kFnvOffset);
  EXPECT_EQ(fnv1a(kFnvOffset, "a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(fnv1a(kFnvOffset, "ab"), "c"), fnv1a(kFnvOffset, "abc"));
}

}  // namespace
}  // namespace perfbench
