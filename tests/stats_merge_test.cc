// Merge semantics for the stats types the fleet runner aggregates:
// counter bags and sample summaries. The fleet's determinism guarantee
// rests on these being order-stable.
#include <gtest/gtest.h>

#include "util/stats.h"

namespace simba {
namespace {

TEST(CountersMergeTest, DisjointKeysUnion) {
  Counters a, b;
  a.bump("left", 3);
  b.bump("right", 5);
  a.merge(b);
  EXPECT_EQ(a.get("left"), 3);
  EXPECT_EQ(a.get("right"), 5);
  EXPECT_EQ(a.all().size(), 2u);
}

TEST(CountersMergeTest, OverlappingKeysSum) {
  Counters a, b;
  a.bump("shared", 3);
  a.bump("only_a", 1);
  b.bump("shared", 4);
  b.bump("only_b", -2);
  a.merge(b);
  EXPECT_EQ(a.get("shared"), 7);
  EXPECT_EQ(a.get("only_a"), 1);
  EXPECT_EQ(a.get("only_b"), -2);
}

TEST(CountersMergeTest, EmptyIntoNonEmptyAndBack) {
  Counters full, empty;
  full.bump("x", 9);
  full.merge(empty);
  EXPECT_EQ(full.get("x"), 9);
  EXPECT_EQ(full.all().size(), 1u);
  empty.merge(full);
  EXPECT_EQ(empty.get("x"), 9);
}

TEST(CountersMergeTest, ThreeWayMergeIsAssociative) {
  auto make = [](std::int64_t x, std::int64_t y) {
    Counters c;
    c.bump("x", x);
    c.bump("y", y);
    return c;
  };
  // (a + b) + c
  Counters left = make(1, 10);
  Counters b = make(2, 20);
  Counters c = make(3, 30);
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  Counters right = make(1, 10);
  Counters bc = make(2, 20);
  bc.merge(make(3, 30));
  right.merge(bc);
  EXPECT_EQ(left.all(), right.all());
}

TEST(CountersMergeTest, SelfMergeDoubles) {
  Counters a;
  a.bump("x", 4);
  a.merge(a);
  EXPECT_EQ(a.get("x"), 8);
}

TEST(SummaryMergeTest, MergedMatchesConcatenatedSamples) {
  // Two shard-style summaries vs one summary fed every sample in the
  // same order: identical counts, moments, and exact percentiles.
  Summary a, b, concat;
  const std::vector<double> left{3.0, 1.0, 4.0, 1.5, 9.2};
  const std::vector<double> right{2.6, 5.3, 5.0, 8.9, 7.0, 0.3};
  for (double x : left) {
    a.add(x);
    concat.add(x);
  }
  for (double x : right) {
    b.add(x);
    concat.add(x);
  }
  a.merge(b);
  ASSERT_EQ(a.count(), concat.count());
  EXPECT_DOUBLE_EQ(a.mean(), concat.mean());
  EXPECT_DOUBLE_EQ(a.variance(), concat.variance());
  EXPECT_DOUBLE_EQ(a.total(), concat.total());
  EXPECT_DOUBLE_EQ(a.min(), concat.min());
  EXPECT_DOUBLE_EQ(a.max(), concat.max());
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), concat.percentile(p)) << "p" << p;
  }
}

TEST(SummaryMergeTest, EmptyMergesAreNoOps) {
  Summary full, empty;
  full.add(1.0);
  full.add(2.0);
  full.merge(empty);
  EXPECT_EQ(full.count(), 2u);
  EXPECT_DOUBLE_EQ(full.mean(), 1.5);
  empty.merge(full);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 1.5);
}

TEST(SummaryMergeTest, SelfMergeDoublesSamples) {
  Summary s;
  s.add(1.0);
  s.add(3.0);
  s.merge(s);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

}  // namespace
}  // namespace simba
