// Unit tests for the discrete-event kernel and fault plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/simulator.h"

namespace simba::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), kTimeZero);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.after(seconds(3), [&] { order.push_back(3); });
  sim.after(seconds(1), [&] { order.push_back(1); });
  sim.after(seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), kTimeZero + seconds(3));
}

TEST(SimulatorTest, EqualTimesFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.after(seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  TimePoint inner_time{};
  sim.after(seconds(1), [&] {
    sim.after(seconds(2), [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, kTimeZero + seconds(3));
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.after(seconds(5), [&] {
    sim.at(kTimeZero, [&] { ran = true; });  // in the past
  });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), kTimeZero + seconds(5));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.after(seconds(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelUnknownIdIsSafe) {
  Simulator sim;
  sim.cancel(12345);
  sim.after(seconds(1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulatorTest, StaleIdDoesNotCancelRecycledSlot) {
  Simulator sim;
  bool first = false, second = false;
  const EventId a = sim.after(seconds(1), [&] { first = true; });
  sim.run();
  EXPECT_TRUE(first);
  const EventId b = sim.after(seconds(1), [&] { second = true; });
  // The pool recycles the slot, so the ids share the low 32 bits but
  // differ in generation; the stale id must miss the new occupant.
  EXPECT_EQ(a & 0xffffffffu, b & 0xffffffffu);
  EXPECT_NE(a, b);
  sim.cancel(a);
  sim.run();
  EXPECT_TRUE(second);
}

TEST(SimulatorTest, CancelOwnIdInsideCallbackIsSafe) {
  Simulator sim;
  int runs = 0;
  EventId id = 0;
  id = sim.after(seconds(1), [&] {
    ++runs;
    sim.cancel(id);  // already firing: must be a no-op
  });
  sim.run();
  EXPECT_EQ(runs, 1);
  // The slot was released before the callback ran. A new event may
  // reuse it immediately; the stale id must still not touch it.
  bool later = false;
  sim.after(seconds(1), [&] { later = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_TRUE(later);
}

TEST(SimulatorTest, CancelPendingEventFromAnotherCallback) {
  Simulator sim;
  bool victim = false;
  const EventId id = sim.after(seconds(2), [&] { victim = true; });
  sim.after(seconds(1), [&] { sim.cancel(id); });
  sim.run();
  EXPECT_FALSE(victim);
  // Kernel-cancelled events are dropped at the queue head without
  // counting as processed; only the cancelling event ran.
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.after(seconds(1), [&] { ++count; });
  sim.after(seconds(10), [&] { ++count; });
  sim.run_until(kTimeZero + seconds(5));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), kTimeZero + seconds(5));
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, RunForAdvancesRelative) {
  Simulator sim;
  sim.run_for(seconds(2));
  sim.run_for(seconds(3));
  EXPECT_EQ(sim.now(), kTimeZero + seconds(5));
}

TEST(SimulatorTest, StopFromCallback) {
  Simulator sim;
  int count = 0;
  sim.after(seconds(1), [&] {
    ++count;
    sim.stop();
  });
  sim.after(seconds(2), [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, EveryRepeatsUntilCancelled) {
  Simulator sim;
  int ticks = 0;
  TaskHandle task = sim.every(seconds(10), [&] { ++ticks; });
  sim.run_until(kTimeZero + seconds(35));
  EXPECT_EQ(ticks, 3);
  task.cancel();
  sim.run_until(kTimeZero + seconds(100));
  EXPECT_EQ(ticks, 3);
}

TEST(SimulatorTest, EveryImmediateFiresAtZeroDelay) {
  Simulator sim;
  int ticks = 0;
  sim.every(seconds(10), [&] { ++ticks; }, "t", /*immediate=*/true);
  sim.run_until(kTimeZero + seconds(5));
  EXPECT_EQ(ticks, 1);
}

TEST(SimulatorTest, CancelInsideOwnCallbackStopsRepetition) {
  Simulator sim;
  int ticks = 0;
  TaskHandle task;
  task = sim.every(seconds(1), [&] {
    ++ticks;
    if (ticks == 2) task.cancel();
  });
  sim.run_until(kTimeZero + seconds(10));
  EXPECT_EQ(ticks, 2);
}

TEST(SimulatorTest, EveryCancelledJustBeforeFireDoesNotRun) {
  Simulator sim;
  int ticks = 0;
  TaskHandle task;
  // Scheduled first, so it pops first at t=1s (FIFO among equal times)
  // and flag-cancels the periodic whose fire is already queued.
  sim.after(seconds(1), [&] { task.cancel(); });
  task = sim.every(seconds(1), [&] { ++ticks; });
  sim.run_until(kTimeZero + seconds(5));
  EXPECT_EQ(ticks, 0);
  // The queued periodic fire still popped: a flag-cancelled fire
  // advances time and counts as processed (unlike a kernel-cancelled
  // one-shot), matching the pre-pool kernel's semantics.
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, MillionEventChurnReusesPoolSlots) {
  Simulator sim;
  constexpr int kInFlight = 256;
  constexpr std::uint64_t kTotal = 1000000;
  std::uint64_t budget = kTotal;
  std::function<void()> tick = [&] {
    if (budget > 0) {
      --budget;
      sim.after(micros(1), Callback(tick));
    }
  };
  for (int i = 0; i < kInFlight; ++i) {
    --budget;
    sim.after(micros(i), Callback(tick));
  }
  sim.run();
  EXPECT_EQ(sim.events_processed(), kTotal);
  // The slab must plateau at the in-flight width, not grow with the
  // total event count — the allocation-light contract of DESIGN.md §12.
  EXPECT_LE(sim.pool_slots(), static_cast<std::size_t>(2 * kInFlight));
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
}

// Pop before fire (DESIGN.md §13): the head entry leaves the queue
// before its callback runs, and a push from that callback may shift
// the queue's prefix one slot left, into the popped slot. None of that
// may show through the kernel's interface.

TEST(SimulatorTest, QueueEmptyInsideTheLastCallback) {
  Simulator sim;
  std::vector<bool> empty_inside;
  sim.after(seconds(1), [&] { empty_inside.push_back(sim.queue_empty()); });
  TaskHandle task;
  task = sim.every(seconds(5), [&] {
    empty_inside.push_back(sim.queue_empty());
    task.cancel();
  });
  EXPECT_FALSE(sim.queue_empty());
  sim.run();
  // At 1 s the periodic's fire is still queued; at 5 s nothing is.
  EXPECT_EQ(empty_inside, (std::vector<bool>{false, true}));
  EXPECT_TRUE(sim.queue_empty());
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
}

TEST(SimulatorTest, StopInAOneShotThatScheduledNothingThenResume) {
  Simulator sim;
  std::vector<int> order;
  sim.at(kTimeZero + seconds(1), [&] {
    order.push_back(1);
    sim.stop();
  });
  sim.at(kTimeZero + seconds(2), [&] { order.push_back(2); });
  sim.at(kTimeZero + seconds(3), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), kTimeZero + seconds(1));
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_FALSE(sim.queue_empty());
  // Scheduled between runs, at the stopped time: it takes the stopped
  // event's place and fires first.
  sim.at(sim.now(), [&] { order.push_back(0); });
  sim.run_until(kTimeZero + seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(sim.now(), kTimeZero + seconds(2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_TRUE(sim.queue_empty());
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
}

TEST(SimulatorTest, PeriodicThatCancelsItselfKeepsTheOthersInOrder) {
  Simulator sim;
  std::vector<std::string> log;
  TaskHandle task;
  int fires = 0;
  task = sim.every(seconds(1), [&] {
    log.push_back("p");
    if (++fires == 2) task.cancel();
  });
  // Scheduled before the first re-arm, so it fires before the
  // periodic's second tick at the same time.
  sim.at(kTimeZero + seconds(2), [&] { log.push_back("a"); });
  sim.at(kTimeZero + seconds(3), [&] { log.push_back("b"); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"p", "a", "p", "b"}));
  EXPECT_FALSE(task.active());
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(sim.now(), kTimeZero + seconds(3));
  EXPECT_TRUE(sim.queue_empty());
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
}

TEST(SimulatorTest, CancelledEntryTakesTheFiredRootsPlace) {
  Simulator sim;
  std::vector<int> order;
  sim.at(kTimeZero + seconds(1), [&] {
    order.push_back(1);
    // Due now, so the entry lands at the head, in the queue slot the
    // fired entry left; it reuses that event's released pool slot.
    const EventId victim = sim.at(sim.now(), [&] { order.push_back(-1); });
    sim.cancel(victim);
  });
  sim.at(kTimeZero + seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.pool_slots(), 2u);
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
  EXPECT_TRUE(sim.queue_empty());
}

TEST(SimulatorTest, MakeRngIsDeterministicPerName) {
  Simulator a(99), b(99);
  EXPECT_EQ(a.make_rng("x").next(), b.make_rng("x").next());
  EXPECT_NE(a.make_rng("x").next(), a.make_rng("y").next());
}

TEST(SimulatorTest, DeterministicEndToEnd) {
  auto run = [](std::uint64_t seed) {
    Simulator sim(seed);
    Rng rng = sim.make_rng("load");
    std::vector<std::int64_t> times;
    for (int i = 0; i < 50; ++i) {
      sim.after(rng.exponential_duration(seconds(10)),
                [&times, &sim] { times.push_back(sim.now().time_since_epoch().count()); });
    }
    sim.run();
    return times;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---------------------------------------------------------------------------
// OutagePlan
// ---------------------------------------------------------------------------

TEST(OutagePlanTest, EmptyPlanAlwaysUp) {
  OutagePlan plan;
  EXPECT_FALSE(plan.down_at(kTimeZero));
  EXPECT_FALSE(plan.down_at(kTimeZero + days(100)));
  EXPECT_EQ(plan.total_downtime(kTimeZero + days(1)), Duration::zero());
}

TEST(OutagePlanTest, WindowBoundaries) {
  OutagePlan plan;
  plan.add(kTimeZero + minutes(10), minutes(5));
  EXPECT_FALSE(plan.down_at(kTimeZero + minutes(9)));
  EXPECT_TRUE(plan.down_at(kTimeZero + minutes(10)));
  EXPECT_TRUE(plan.down_at(kTimeZero + minutes(14)));
  EXPECT_FALSE(plan.down_at(kTimeZero + minutes(15)));  // closed-open
}

TEST(OutagePlanTest, OverlappingWindowsMerge) {
  OutagePlan plan;
  plan.add(kTimeZero + minutes(10), minutes(10));
  plan.add(kTimeZero + minutes(15), minutes(10));
  EXPECT_EQ(plan.outages().size(), 1u);
  EXPECT_EQ(plan.total_downtime(kTimeZero + hours(1)), minutes(15));
}

TEST(OutagePlanTest, OutOfOrderAddsSort) {
  OutagePlan plan;
  plan.add(kTimeZero + minutes(30), minutes(1));
  plan.add(kTimeZero + minutes(10), minutes(1));
  EXPECT_EQ(plan.outages()[0].start, kTimeZero + minutes(10));
}

TEST(OutagePlanTest, UpAgainAt) {
  OutagePlan plan;
  plan.add(kTimeZero + minutes(10), minutes(5));
  EXPECT_EQ(plan.up_again_at(kTimeZero + minutes(12)),
            kTimeZero + minutes(15));
  EXPECT_EQ(plan.up_again_at(kTimeZero + minutes(5)), kTimeZero + minutes(5));
}

TEST(OutagePlanTest, ZeroLengthIgnored) {
  OutagePlan plan;
  plan.add(kTimeZero + minutes(1), Duration::zero());
  EXPECT_TRUE(plan.outages().empty());
}

TEST(OutagePlanTest, GenerateRespectsHorizonAndIsDeterministic) {
  Rng rng1(5), rng2(5);
  const Duration horizon = days(30);
  OutagePlan p1 =
      OutagePlan::generate(rng1, horizon, days(6), minutes(12), 1.0);
  OutagePlan p2 =
      OutagePlan::generate(rng2, horizon, days(6), minutes(12), 1.0);
  ASSERT_EQ(p1.outages().size(), p2.outages().size());
  for (const auto& o : p1.outages()) {
    EXPECT_LT(o.start, kTimeZero + horizon);
    EXPECT_GT(o.length(), Duration::zero());
  }
}

TEST(OutagePlanTest, DescribeMentionsWindows) {
  OutagePlan plan;
  EXPECT_NE(plan.describe().find("no outages"), std::string::npos);
  plan.add(kTimeZero + minutes(1), minutes(2));
  EXPECT_NE(plan.describe().find("down"), std::string::npos);
}


TEST(TaskHandleTest, ActiveReflectsCancellation) {
  Simulator sim;
  TaskHandle empty;
  EXPECT_FALSE(empty.active());
  TaskHandle task = sim.every(seconds(1), [] {});
  EXPECT_TRUE(task.active());
  TaskHandle copy = task;  // copies share the task
  copy.cancel();
  EXPECT_FALSE(task.active());
}

TEST(SimulatorTest, RecurringTaskSurvivesHandleDestruction) {
  Simulator sim;
  int ticks = 0;
  {
    TaskHandle task = sim.every(seconds(1), [&] { ++ticks; });
    // handle goes out of scope WITHOUT cancel
  }
  sim.run_until(kTimeZero + seconds(5));
  EXPECT_EQ(ticks, 5);  // destruction does not cancel (documented)
}

TEST(ScopedTaskTest, DestructionCancelsTheTask) {
  Simulator sim;
  int ticks = 0;
  {
    ScopedTask task(sim.every(seconds(1), [&] { ++ticks; }));
    EXPECT_TRUE(task.active());
    sim.run_until(kTimeZero + seconds(3));
    // scope ends: the callback must never fire again
  }
  sim.run_until(kTimeZero + seconds(10));
  EXPECT_EQ(ticks, 3);
}

TEST(ScopedTaskTest, MoveTransfersOwnership) {
  Simulator sim;
  int ticks = 0;
  ScopedTask outer;
  {
    ScopedTask inner(sim.every(seconds(1), [&] { ++ticks; }));
    outer = std::move(inner);
    EXPECT_FALSE(inner.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(outer.active());
    // inner dies here; the task it no longer owns must keep running
  }
  sim.run_until(kTimeZero + seconds(4));
  EXPECT_EQ(ticks, 4);
  outer.cancel();
  sim.run_until(kTimeZero + seconds(8));
  EXPECT_EQ(ticks, 4);
}

TEST(ScopedTaskTest, MoveAssignmentCancelsThePreviousTask) {
  Simulator sim;
  int first = 0, second = 0;
  ScopedTask task(sim.every(seconds(1), [&] { ++first; }));
  task = ScopedTask(sim.every(seconds(1), [&] { ++second; }));
  sim.run_until(kTimeZero + seconds(3));
  EXPECT_EQ(first, 0);   // replaced before it ever fired
  EXPECT_EQ(second, 3);  // the replacement runs
}

TEST(ScopedTaskTest, DefaultConstructedIsInert) {
  ScopedTask task;
  EXPECT_FALSE(task.active());
  task.cancel();  // no-op, no crash
}

}  // namespace

// White-box seam for generation-wrap tests: the wrap takes 2^32
// release cycles of one slot to reach naturally, so the peer sets a
// slot's generation directly. Declared a friend in simulator.h.
class KernelTestPeer {
 public:
  static void set_generation(Simulator& sim, std::uint32_t slot,
                             std::uint32_t generation) {
    sim.pool_[slot].generation = generation;
  }
  static std::uint32_t generation(const Simulator& sim, std::uint32_t slot) {
    return sim.pool_[slot].generation;
  }
};

namespace {

// ---------------------------------------------------------------------------
// Kernel edge cases: generation wrap, zero-delay-at-now, cancel of a
// far-future event. The overflow calendar in a test name is the one
// the timing wheel kept before the kernel became a heap, and then a
// sorted array.
// ---------------------------------------------------------------------------

TEST(KernelEdgeTest, GenerationWrapSkipsZeroAndStaleIdsMiss) {
  Simulator sim;
  // Create slot 0 and recycle it once so it sits on the free list.
  sim.after(micros(1), [] {});
  sim.run();
  ASSERT_EQ(sim.pool_slots(), 1u);
  ASSERT_EQ(sim.pool_free(), 1u);

  // Pin the free slot's generation at the wrap point. The next event
  // issued from it carries generation 0xffffffff.
  KernelTestPeer::set_generation(sim, 0, 0xffffffffu);
  bool fired = false;
  const EventId id = sim.after(seconds(1), [&] { fired = true; }, "wrap");
  EXPECT_EQ(id >> 32, 0xffffffffu);
  EXPECT_EQ(id & 0xffffffffu, 0u);
  sim.run();
  EXPECT_TRUE(fired);

  // Release incremented 0xffffffff -> 0, which must be skipped: the
  // generation lands on 1, so no future id from this slot is ever 0
  // (callers use EventId 0 as the "no event" sentinel).
  EXPECT_EQ(KernelTestPeer::generation(sim, 0), 1u);

  // The stale pre-wrap id must miss the recycled occupant.
  bool second_fired = false;
  sim.after(seconds(1), [&] { second_fired = true; }, "occupant");
  sim.cancel(id);  // generation 0xffffffff vs current 1: no-op
  sim.run();
  EXPECT_TRUE(second_fired);
}

TEST(KernelEdgeTest, SequenceOrderSurvivesGenerationWrap) {
  Simulator sim;
  sim.after(micros(1), [] {});
  sim.run();
  KernelTestPeer::set_generation(sim, 0, 0xffffffffu);
  // Interleave the wrap-generation event among same-tick peers: the
  // FIFO tie-break keys on the global sequence counter, which is
  // independent of slot generations.
  std::vector<int> order;
  sim.after(seconds(1), [&] { order.push_back(0); });  // slot 0, gen ~max
  sim.after(seconds(1), [&] { order.push_back(1); });
  sim.after(seconds(1), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(KernelEdgeTest, SchedulingAtNowVersusCurrentTickBoundary) {
  Simulator sim;
  std::vector<int> order;
  sim.after(micros(100),
            [&] {
              order.push_back(0);
              // All three land on the current tick, after events
              // already queued there, in schedule order: at(now),
              // after(0), and at() in the past (clamped to now).
              sim.at(sim.now(), [&] { order.push_back(2); });
              sim.after(Duration::zero(), [&] { order.push_back(3); });
              sim.at(kTimeZero + micros(50), [&] { order.push_back(4); });
            });
  sim.after(micros(100), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), kTimeZero + micros(100));
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(KernelEdgeTest, CancelOfEventDemotedFromOverflowCalendar) {
  Simulator sim;
  // Victim sits past 2^32 us. A slightly earlier event cancels it by
  // its original id when it fires.
  bool victim_fired = false;
  const EventId victim = sim.at(kTimeZero + micros((1ll << 32) + 900000),
                                [&] { victim_fired = true; }, "victim");
  sim.at(kTimeZero + micros((1ll << 32) + 100),
         [&] { sim.cancel(victim); }, "demoter");
  sim.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_TRUE(sim.queue_empty());
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
}

}  // namespace
}  // namespace simba::sim
