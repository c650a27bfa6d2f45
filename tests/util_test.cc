// Unit tests for src/util: time formatting, RNG determinism and
// distribution sanity, statistics, strings, and calendar arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/calendar.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/time.h"

namespace simba {
namespace {

// ---------------------------------------------------------------------------
// time
// ---------------------------------------------------------------------------

TEST(TimeTest, ConstructorsScale) {
  EXPECT_EQ(seconds(1).count(), 1'000'000);
  EXPECT_EQ(millis(1.5).count(), 1'500);
  EXPECT_EQ(minutes(2).count(), 120'000'000);
  EXPECT_EQ(hours(1).count(), 3'600'000'000LL);
  EXPECT_EQ(days(1).count(), 86'400'000'000LL);
}

TEST(TimeTest, ToSecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_minutes(minutes(3)), 3.0);
}

TEST(TimeTest, FormatDurationRanges) {
  EXPECT_EQ(format_duration(micros(500)), "500us");
  EXPECT_EQ(format_duration(millis(12)), "12ms");
  EXPECT_EQ(format_duration(seconds(2.5)), "2.50s");
  EXPECT_EQ(format_duration(minutes(4) + seconds(13)), "4m13s");
  EXPECT_EQ(format_duration(hours(2) + minutes(3) + seconds(9)), "2:03:09");
  EXPECT_EQ(format_duration(days(1) + hours(3)), "1d03:00:00");
}

TEST(TimeTest, FormatDurationNegative) {
  EXPECT_EQ(format_duration(millis(-12)), "-12ms");
}

TEST(TimeTest, FormatTimePoint) {
  const TimePoint t = kTimeZero + days(2) + hours(13) + minutes(5) +
                      seconds(7) + millis(89);
  EXPECT_EQ(format_time(t), "2+13:05:07.089");
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, ChildStreamsAreStableAndIndependent) {
  Rng root(7);
  Rng c1 = root.child("im.server");
  Rng c2 = root.child("im.server");
  Rng c3 = root.child("email.server");
  EXPECT_EQ(c1.next(), c2.next());
  Rng c1b = root.child("im.server");
  EXPECT_NE(c1b.next(), c3.next());
}

TEST(RngTest, ChildDoesNotConsumeParentState) {
  Rng a(9), b(9);
  (void)a.child("x");
  EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, ChildDerivesFromSeedNotPosition) {
  // Epoch rebuilds re-derive every component stream from a fresh
  // parent, so a child must not depend on how far its parent had drawn.
  Rng drawn(7);
  for (int i = 0; i < 5; ++i) (void)drawn.next();
  Rng child_of_drawn = drawn.child("sms.never_used");
  Rng child_of_fresh = Rng(7).child("sms.never_used");
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(child_of_drawn.next(), child_of_fresh.next());
  }
  // And grandchildren, as MAB incarnations derive from the host stream:
  // one derived from a child that has drawn equals one from a fresh child.
  Rng grand_of_drawn = child_of_drawn.child("leg.2");
  Rng grand_of_fresh = Rng(7).child("sms.never_used").child("leg.2");
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(grand_of_drawn.next(), grand_of_fresh.next());
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_FALSE(rng.chance(-1.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_TRUE(rng.chance(2.0));
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(17);
  const int n = 100'000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(RngTest, WeightedIndexHonorsWeights) {
  Rng rng(23);
  const double weights[] = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted_index(weights, 3), 1u);
  }
}

TEST(RngTest, WeightedIndexAllZeroPicksFirst) {
  Rng rng(29);
  const double weights[] = {0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(weights, 2), 0u);
}

TEST(RngTest, DurationHelpersNonNegative) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.exponential_duration(seconds(1)).count(), 0);
    EXPECT_GE(rng.normal_duration(millis(10), millis(50)).count(), 0);
    EXPECT_GE(rng.lognormal_duration(seconds(8), 1.0).count(), 0);
  }
}

TEST(RngTest, LognormalDurationMedianApproximatelyCorrect) {
  Rng rng(37);
  std::vector<double> xs;
  for (int i = 0; i < 20'001; ++i) {
    xs.push_back(to_seconds(rng.lognormal_duration(seconds(8), 1.0)));
  }
  std::nth_element(xs.begin(), xs.begin() + 10'000, xs.end());
  EXPECT_NEAR(xs[10'000], 8.0, 0.5);
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.total(), 10.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(SummaryTest, PercentilesInterpolate) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
}

TEST(SummaryTest, PercentileAfterAddResorts) {
  Summary s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  s.add(0.0);  // added after a percentile call; must re-sort
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
}

TEST(SummaryTest, EmptySafe) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.report(), "n=0");
}

TEST(SummaryTest, AddsDurationsAsSeconds) {
  Summary s;
  s.add(millis(1500));
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);
}

TEST(CountersTest, BumpAndGet) {
  Counters c;
  c.bump("a");
  c.bump("a", 2);
  c.bump("b", -1);
  EXPECT_EQ(c.get("a"), 3);
  EXPECT_EQ(c.get("b"), -1);
  EXPECT_EQ(c.get("missing"), 0);
  EXPECT_NE(c.report().find("a = 3"), std::string::npos);
}

// Two constexpr arrays with equal text: distinct objects, so distinct
// addresses, and Counters::bump must still file both under one entry.
constexpr char kSharedName[] = "shared.name";
constexpr char kSharedNameAgain[] = "shared.name";

TEST(CountersTest, EqualTextAtDistinctAddressesSharesOneEntry) {
  ASSERT_NE(static_cast<const void*>(kSharedName),
            static_cast<const void*>(kSharedNameAgain));
  Counters c;
  c.bump(kSharedName);
  c.bump(kSharedNameAgain, 2);
  c.add("shared.name", 4);
  c.bump("shared.name", 8);
  c.bump(kSharedName, 16);
  EXPECT_EQ(c.get("shared.name"), 31);
  ASSERT_EQ(c.all().size(), 1u);
  EXPECT_EQ(c.all()[0].first, "shared.name");
}

TEST(CountersTest, BumpsHitTheirOwnSlotAfterCopyMoveAndMerge) {
  Counters a;
  a.bump("a");
  a.bump("b");
  // A copy's index points into the copy's own entries.
  Counters copy = a;
  copy.bump("b", 10);
  EXPECT_EQ(a.get("b"), 1);
  EXPECT_EQ(copy.get("b"), 11);
  // So does a moved-to bag's.
  Counters moved = std::move(copy);
  moved.bump("a", 100);
  EXPECT_EQ(moved.get("a"), 101);
  EXPECT_EQ(moved.get("b"), 11);
  // Assignment replaces the index with the source's: "b" and "a" sit
  // in the other order here, so a kept index would cross them.
  Counters reordered;
  reordered.bump("b", 1000);
  reordered.bump("a", 2000);
  a = reordered;
  a.bump("a");
  EXPECT_EQ(a.get("a"), 2001);
  EXPECT_EQ(a.get("b"), 1000);
  // merge() appends entries after the existing ones; bumps before and
  // after it, across the map's graduation past its small-map size,
  // land where get() looks.
  Counters many;
  many.bump("y");
  many.merge(a);
  many.bump("a", 5);
  // Names "100".."109": "n" + std::to_string(i) trips GCC 12's
  // -Werror=restrict false positive at -O3.
  for (int i = 100; i < 110; ++i) many.add(std::to_string(i), 1);
  many.bump("y", 7);
  many.bump("b", 3);
  EXPECT_EQ(many.get("y"), 8);
  EXPECT_EQ(many.get("a"), 2006);
  EXPECT_EQ(many.get("b"), 1003);
  EXPECT_EQ(many.all().size(), 13u);
  // The merged-from bag is untouched by bumps into the merged one.
  EXPECT_EQ(a.get("a"), 2001);
}

TEST(CountersTest, AllAndReportMatchABagFilledByText) {
  // Ten names, so the bag graduates past its small-map size.
  Counters by_address;
  by_address.bump("delivered", 3);
  by_address.bump("sent");
  for (int i = 0; i < 3; ++i) by_address.bump("pings");
  by_address.bump("logins", 2);
  by_address.bump("alerts.sent", 5);
  by_address.bump("a", -4);
  by_address.bump("y");
  by_address.bump("dropped.loss", 9);
  by_address.bump("sent", 6);
  by_address.bump("heal.unmatched");
  by_address.bump("b", 0);
  Counters by_text;
  for (const auto& [name, value] : by_address.all()) {
    by_text.add(name, value);
  }
  EXPECT_EQ(by_address.all(), by_text.all());
  EXPECT_EQ(by_address.report(), by_text.report());
  EXPECT_EQ(by_address.get("sent"), 7);
  EXPECT_EQ(by_address.all().size(), 10u);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h({1.0, 2.0, 5.0});
  h.add(0.5);   // < 1
  h.add(1.5);   // [1,2)
  h.add(2.0);   // [2,5)
  h.add(7.0);   // >= 5
  EXPECT_EQ(h.count(), 4u);
  const auto& buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_FALSE(h.render().empty());
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(StringsTest, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitTrimmedDropsEmpties) {
  const auto parts = split_trimmed(" a , ,b ", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(iequals("SIMBA", "simba"));
  EXPECT_FALSE(iequals("SIMBA", "simb"));
  EXPECT_TRUE(icontains("Basement Water Sensor ON", "sensor on"));
}

TEST(StringsTest, JoinAndFormat) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
}

// ---------------------------------------------------------------------------
// result
// ---------------------------------------------------------------------------

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  Result<int> err = make_error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), "boom");
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(StatusTest, SuccessAndFailure) {
  EXPECT_TRUE(Status::success().ok());
  const Status f = Status::failure("nope");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error(), "nope");
}

// ---------------------------------------------------------------------------
// calendar
// ---------------------------------------------------------------------------

TEST(CalendarTest, DayAndTimeOfDay) {
  const TimePoint t = kTimeZero + days(3) + hours(23) + minutes(30);
  EXPECT_EQ(day_of(t), 3);
  EXPECT_EQ(time_of_day(t), TimeOfDay::at(23, 30));
  EXPECT_EQ(time_of_day(t).hour(), 23);
  EXPECT_EQ(time_of_day(t).minute(), 30);
}

TEST(CalendarTest, NextOccurrenceSameDay) {
  const TimePoint now = kTimeZero + hours(10);
  const TimePoint next = next_occurrence(now, TimeOfDay::at(23, 30));
  EXPECT_EQ(day_of(next), 0);
  EXPECT_EQ(time_of_day(next), TimeOfDay::at(23, 30));
}

TEST(CalendarTest, NextOccurrenceRollsToTomorrow) {
  const TimePoint now = kTimeZero + hours(23) + minutes(45);
  const TimePoint next = next_occurrence(now, TimeOfDay::at(23, 30));
  EXPECT_EQ(day_of(next), 1);
}

TEST(CalendarTest, NextOccurrenceIsStrictlyAfterNow) {
  const TimePoint now = kTimeZero + hours(23) + minutes(30);
  const TimePoint next = next_occurrence(now, TimeOfDay::at(23, 30));
  EXPECT_EQ(day_of(next), 1);
}

TEST(CalendarTest, DailyWindowPlain) {
  const DailyWindow w{TimeOfDay::at(9, 0), TimeOfDay::at(17, 0)};
  EXPECT_TRUE(w.contains(kTimeZero + hours(12)));
  EXPECT_FALSE(w.contains(kTimeZero + hours(18)));
  EXPECT_TRUE(w.contains(kTimeZero + hours(9)));
  EXPECT_FALSE(w.contains(kTimeZero + hours(17)));
}

TEST(CalendarTest, DailyWindowWrapsMidnight) {
  const DailyWindow w{TimeOfDay::at(22, 0), TimeOfDay::at(6, 0)};
  EXPECT_TRUE(w.contains(kTimeZero + hours(23)));
  EXPECT_TRUE(w.contains(kTimeZero + hours(3)));
  EXPECT_FALSE(w.contains(kTimeZero + hours(12)));
}

TEST(CalendarTest, EmptyWindowContainsNothing) {
  const DailyWindow w{TimeOfDay::at(9, 0), TimeOfDay::at(9, 0)};
  EXPECT_FALSE(w.contains(kTimeZero + hours(9)));
}


TEST(StringsTest, ParseEmailFrom) {
  auto [d1, a1] = parse_email_from("Yahoo! Alerts - Stocks <alerts@y.example>");
  EXPECT_EQ(d1, "Yahoo! Alerts - Stocks");
  EXPECT_EQ(a1, "alerts@y.example");
  auto [d2, a2] = parse_email_from("bare@addr.example");
  EXPECT_EQ(d2, "");
  EXPECT_EQ(a2, "bare@addr.example");
  auto [d3, a3] = parse_email_from("  Spacey Name   <x@y>  ");
  EXPECT_EQ(d3, "Spacey Name");
  EXPECT_EQ(a3, "x@y");
  auto [d4, a4] = parse_email_from("Broken <unterminated@y");
  EXPECT_EQ(d4, "Broken");
  EXPECT_EQ(a4, "unterminated@y");
}

TEST(CalendarTest, SinceMidnight) {
  EXPECT_EQ(since_midnight(kTimeZero + days(2) + hours(3) + minutes(4)),
            hours(3) + minutes(4));
  EXPECT_EQ(since_midnight(kTimeZero), Duration::zero());
}

}  // namespace
}  // namespace simba
