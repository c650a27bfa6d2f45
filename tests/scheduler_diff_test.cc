// Differential test harness: the kernel vs the reference heap.
//
// The kernel (sim::Simulator, DESIGN.md §13) must reproduce the
// reference scheduler's (when, sequence) FIFO ordering *exactly* — the
// golden traces and the serial-vs-threaded fleet merge identity both
// depend on it. The kernel keeps one sorted array; the reference is a
// binary heap kept in the test tree, a different algorithm written
// independently, so a change to the kernel's queue, pool or run loop
// that breaks the order shows here. This harness generates
// seed-driven op programs (schedule / cancel / periodic re-arm /
// cancel-in-callback mixes, with delays from the same tick to past
// 2^32 us, dense with ties), runs the identical program through both
// kernels, and asserts byte-identical firing logs plus equal processed
// counts and final clocks.
//
// The matrix (16 seeds x 5 op-mix profiles) runs under tier1 as the
// `scheduler_diff` gate, plus the five profiles once more on a kernel
// restored to a clock past 2^32 us; the *Slow* suite repeats the matrix
// at 10x ops under `ctest -L slow`. The SchedulerWheelBoundaryTest
// cases pin hand-analyzed hard cases at the delays that were the
// boundaries of the timing wheel the kernel used before the heap that
// preceded its sorted array: ties around 256-us block edges, cancels
// of far-future events, and zero-delay scheduling at the current tick.
// Their names keep the wheel's terms.
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "reference_scheduler.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace simba::sim {
namespace {

// ---------------------------------------------------------------------------
// Op programs
// ---------------------------------------------------------------------------

// What a one-shot does when it fires, beyond logging.
enum Action : std::uint8_t {
  kActNone = 0,
  kActChild,        // schedule a plain one-shot after `param` us
  kActZeroChild,    // schedule a plain one-shot at now (same tick)
  kActCancelOther,  // cancel the live one-shot at rank `param`
  kActCancelSelf,   // cancel its own (already-released) id: must no-op
  kActTwoChildren,  // schedule a plain one-shot after `param` us and one
                    // at now
};

enum OpKind : std::uint8_t {
  kOpOneShot = 0,  // schedule a one-shot (with an Action)
  kOpCancel,       // cancel a live one-shot by rank
  kOpPeriodic,     // start a periodic task that self-cancels after N fires
  kOpCancelTask,   // cancel a live periodic task by rank, from outside
};

struct Op {
  OpKind kind;
  std::uint8_t action = kActNone;
  bool immediate = false;        // periodic: first fire at now
  std::int64_t delay_us = 0;     // one-shot delay / periodic period
  std::int64_t param = 0;        // child delay or victim rank
  std::uint32_t fires_limit = 1; // periodic: self-cancel after this many
  std::uint8_t children = 0;     // periodic: one-shots each fire schedules
};

// Weights over op kinds, and whether callbacks fan out.
struct Profile {
  const char* name;
  double weights[4];  // indexed by OpKind
  // Every callback schedules 0, 1 or 2 events: one-shots draw none, a
  // child or two children, and each periodic fire schedules a drawn
  // number of children. So the kernel's queue deepens and drains, and
  // its pushes take every path: a child due now lands at the head,
  // shifting the prefix into the slot the fire popped; a later one
  // lands in the middle or at the tail (DESIGN.md §13).
  bool fanout = false;
};

constexpr Profile kProfiles[] = {
    {"oneshot_heavy", {0.85, 0.10, 0.03, 0.02}},
    {"cancel_churn", {0.45, 0.45, 0.05, 0.05}},
    {"periodic_heavy", {0.30, 0.10, 0.40, 0.20}},
    {"mixed", {0.50, 0.20, 0.15, 0.15}},
    {"fanout", {0.55, 0.10, 0.30, 0.05}, /*fanout=*/true},
};
constexpr int kProfileCount = static_cast<int>(std::size(kProfiles));

// Delay palette from the same tick to past 2^32 us, banded at 256 us,
// 2^16, 2^24 and 2^32 us (the timing wheel's level edges, which the
// programs keep covering). Small discrete values repeat often so that
// same-tick ties — the whole point of the FIFO tie-break — occur
// constantly, not occasionally.
std::int64_t pick_delay(Rng& rng) {
  switch (rng.uniform_int(0, 11)) {
    case 0:
      return 0;  // same tick as the pump batch: guaranteed ties
    case 1:
    case 2:
      return rng.uniform_int(1, 7);  // heavy collisions
    case 3:
    case 4:
      return rng.uniform_int(1, 255);
    case 5:
      return 255 + rng.uniform_int(1, 3);  // straddle a 256-us edge
    case 6:
    case 7:
      return rng.uniform_int(256, (1 << 16) - 1);
    case 8:
      return rng.uniform_int(1 << 16, (1 << 24) - 1);
    case 9:
      return rng.uniform_int(1 << 24, (1ll << 32) - 1);
    case 10:
      // Past 2^32 us; close enough that a program of a few hundred
      // ops still reaches and fires these events.
      return rng.uniform_int(1ll << 32, (1ll << 32) + (1ll << 30));
    default:
      return rng.uniform_int(1, 4096);  // generic short-horizon churn
  }
}

std::vector<Op> make_program(std::uint64_t seed, const Profile& profile,
                             std::size_t n_ops) {
  Rng rng = Rng(seed).child("scheduler_diff");
  std::vector<Op> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    op.kind = static_cast<OpKind>(rng.weighted_index(profile.weights, 4));
    switch (op.kind) {
      case kOpOneShot: {
        op.delay_us = pick_delay(rng);
        if (profile.fanout) {
          constexpr std::uint8_t kFanout[] = {kActNone, kActChild,
                                              kActTwoChildren};
          op.action = kFanout[rng.uniform_int(0, 2)];
          op.param = pick_delay(rng);
          break;
        }
        const std::int64_t a = rng.uniform_int(0, 9);
        if (a <= 4) {
          op.action = kActNone;
        } else if (a <= 6) {
          op.action = kActChild;
          op.param = pick_delay(rng);
        } else if (a == 7) {
          op.action = kActZeroChild;
        } else if (a == 8) {
          op.action = kActCancelOther;
          op.param = rng.uniform_int(0, 1 << 20);
        } else {
          op.action = kActCancelSelf;
        }
        break;
      }
      case kOpCancel:
        op.param = rng.uniform_int(0, 1 << 20);  // victim rank
        break;
      case kOpPeriodic:
        // Periods stay modest so limited periodics don't dominate the
        // run's time horizon; every task self-cancels, so run() always
        // terminates.
        op.delay_us = rng.uniform_int(1, 1 << 14);
        op.fires_limit = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
        op.immediate = rng.chance(0.25);
        if (profile.fanout) {
          op.children = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
        }
        break;
      case kOpCancelTask:
        op.param = rng.uniform_int(0, 1 << 20);
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

// Where a Simulator's clock starts: Simulator::restore_clock aligns a
// fresh kernel to it, as a resumed world's kernel is aligned to its
// checkpoint. The default is a fresh kernel's own state. The reference
// scheduler always starts from zero.
struct Origin {
  TimePoint now = kTimeZero;
  std::uint64_t processed = 0;
  std::uint64_t sequence = 1;
};

// Runs one op program to completion on a scheduler and records every
// observable: each fire as "tag@usec", then the final clock, processed
// count, and pool drain state. Times and counts are logged relative to
// the origin, so identical programs must yield identical records on
// both kernels whatever clock the Simulator was restored to.
//
// Ops are applied in batches of kOpsPerBatch from inside the scheduler
// ("pump" events every 1ms of virtual time), so scheduling calls
// interleave with fires exactly the way real workloads interleave them
// — including cancels that race the fires of their victims.
template <typename Scheduler>
class Harness {
 public:
  explicit Harness(const std::vector<Op>& ops, const Origin& origin = {})
      : ops_(ops), origin_(origin) {
    if constexpr (std::is_same_v<Scheduler, Simulator>) {
      sched_.restore_clock(origin.now, origin.processed, origin.sequence);
    }
  }

  std::vector<std::string> run() {
    pump();
    sched_.run();
    // Built with appends, not operator+ chains: GCC 12's -Werror=restrict
    // false-positives on temporary-string concatenation.
    std::string end = "end now=";
    end += std::to_string(usec_since_origin());
    end += " processed=";
    end += std::to_string(sched_.events_processed() - origin_.processed);
    log_.push_back(std::move(end));
    return std::move(log_);
  }

  const Scheduler& scheduler() const { return sched_; }

 private:
  static constexpr int kOpsPerBatch = 8;

  void pump() {
    for (int i = 0; i < kOpsPerBatch && pc_ < ops_.size(); ++i) {
      apply(ops_[pc_++]);
    }
    if (pc_ < ops_.size()) {
      sched_.after(millis(1), [this] { pump(); }, "diff.pump");
    }
  }

  void apply(const Op& op) {
    switch (op.kind) {
      case kOpOneShot:
        spawn(op.delay_us, op.action, op.param);
        break;
      case kOpCancel:
        cancel_rank(static_cast<std::uint64_t>(op.param));
        break;
      case kOpPeriodic:
        spawn_periodic(op);
        break;
      case kOpCancelTask:
        cancel_task_rank(static_cast<std::uint64_t>(op.param));
        break;
    }
  }

  void spawn(std::int64_t delay_us, std::uint8_t action, std::int64_t param) {
    const std::uint64_t tag = next_tag_++;
    const EventId id = sched_.after(
        micros(delay_us),
        [this, tag, action, param] { fired(tag, action, param); },
        "diff.oneshot");
    live_.emplace(tag, id);
  }

  std::int64_t usec_since_origin() const {
    return (sched_.now() - origin_.now).count();
  }

  void record(const char* prefix, std::uint64_t tag) {
    std::string line = prefix;
    line += std::to_string(tag);
    line += '@';
    line += std::to_string(usec_since_origin());
    log_.push_back(std::move(line));
  }

  void fired(std::uint64_t tag, std::uint8_t action, std::int64_t param) {
    record("", tag);
    const auto it = live_.find(tag);
    const EventId own_id = it->second;
    live_.erase(it);
    switch (action) {
      case kActChild:
        spawn(param, kActNone, 0);
        break;
      case kActZeroChild:
        spawn(0, kActNone, 0);
        break;
      case kActTwoChildren:
        spawn(param, kActNone, 0);
        spawn(0, kActNone, 0);
        break;
      case kActCancelOther:
        cancel_rank(static_cast<std::uint64_t>(param));
        break;
      case kActCancelSelf:
        // Our slot was released before this callback ran; the stale id
        // must miss on the generation check and cancel nothing.
        sched_.cancel(own_id);
        break;
      default:
        break;
    }
  }

  void cancel_rank(std::uint64_t rank) {
    if (live_.empty()) return;
    auto it = live_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rank % live_.size()));
    sched_.cancel(it->second);
    live_.erase(it);
  }

  void spawn_periodic(const Op& op) {
    const std::uint64_t tag = next_tag_++;
    auto fired_count = std::make_shared<std::uint32_t>(0);
    TaskHandle handle = sched_.every(
        micros(op.delay_us),
        [this, tag, fired_count, limit = op.fires_limit,
         children = op.children, period = op.delay_us] {
          record("p", tag);
          // Children at now and half a period on: the first lands at
          // the head, due at the fired entry's own time, the second
          // before the re-arm.
          for (std::uint8_t k = 0; k < children; ++k) {
            spawn(k == 0 ? 0 : period / 2, kActNone, 0);
          }
          if (++*fired_count >= limit) {
            // Cancel-in-callback: the re-arm must be suppressed. The
            // task may already be gone from tasks_ if an external
            // kOpCancelTask flagged it after this fire was queued.
            const auto it = tasks_.find(tag);
            if (it != tasks_.end()) {
              it->second.cancel();
              tasks_.erase(it);
            }
          }
        },
        "diff.periodic", op.immediate);
    tasks_.emplace(tag, std::move(handle));
  }

  void cancel_task_rank(std::uint64_t rank) {
    if (tasks_.empty()) return;
    auto it = tasks_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rank % tasks_.size()));
    it->second.cancel();
    tasks_.erase(it);
  }

  const std::vector<Op>& ops_;
  const Origin origin_;
  Scheduler sched_{1};
  std::vector<std::string> log_;
  std::uint64_t next_tag_ = 0;
  std::size_t pc_ = 0;
  // Live one-shots (scheduled, not yet fired or cancelled) and live
  // periodic tasks, keyed by tag. Ordered maps: victim selection by
  // rank must be identical across kernels.
  std::map<std::uint64_t, EventId> live_;
  std::map<std::uint64_t, TaskHandle> tasks_;
};

void run_differential(std::uint64_t seed, const Profile& profile,
                      std::size_t n_ops, const Origin& origin = {}) {
  const std::vector<Op> program = make_program(seed, profile, n_ops);

  Harness<Simulator> kernel(program, origin);
  const std::vector<std::string> kernel_log = kernel.run();

  Harness<ReferenceScheduler> heap(program);
  const std::vector<std::string> heap_log = heap.run();

  // Identical firing order, clocks, and processed counts. Compare
  // sizes first so a divergence reports the first differing index,
  // not a wall of log text.
  ASSERT_EQ(kernel_log.size(), heap_log.size())
      << "seed=" << seed << " profile=" << profile.name;
  for (std::size_t i = 0; i < kernel_log.size(); ++i) {
    ASSERT_EQ(kernel_log[i], heap_log[i])
        << "seed=" << seed << " profile=" << profile.name << " record " << i;
  }

  // Both kernels must fully drain: every pool slot back on the free
  // list, no entries left queued.
  EXPECT_TRUE(kernel.scheduler().queue_empty());
  EXPECT_TRUE(heap.scheduler().queue_empty());
  EXPECT_EQ(kernel.scheduler().pool_free(), kernel.scheduler().pool_slots());
  EXPECT_EQ(heap.scheduler().pool_free(), heap.scheduler().pool_slots());
}

// ---------------------------------------------------------------------------
// The matrix: 16 seeds x 5 profiles (tier1), 10x ops under -L slow
// ---------------------------------------------------------------------------

class SchedulerDiffTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchedulerDiffTest, WheelMatchesHeap) {
  const auto [seed_index, profile_index] = GetParam();
  run_differential(/*seed=*/0x51b0a + static_cast<std::uint64_t>(seed_index),
                   kProfiles[profile_index], /*n_ops=*/400);
}

std::string diff_param_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  std::string name = "seed";
  name += std::to_string(std::get<0>(info.param));
  name += '_';
  name += kProfiles[std::get<1>(info.param)].name;
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchedulerDiffTest,
    ::testing::Combine(::testing::Range(0, 16),
                       ::testing::Range(0, kProfileCount)),
    diff_param_name);

// Extended sweep: same matrix at 10x ops. Matches SLOW_FILTER
// "*Slow*" in tests/CMakeLists.txt, so it runs under `ctest -L slow`.
class SchedulerDiffSlowTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchedulerDiffSlowTest, WheelMatchesHeap10x) {
  const auto [seed_index, profile_index] = GetParam();
  run_differential(/*seed=*/0xd1ff + static_cast<std::uint64_t>(seed_index),
                   kProfiles[profile_index], /*n_ops=*/4000);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchedulerDiffSlowTest,
    ::testing::Combine(::testing::Range(0, 16),
                       ::testing::Range(0, kProfileCount)),
    diff_param_name);

// A restored kernel: the same programs, with the Simulator first
// aligned by restore_clock to a clock past 2^32 us, a processed count
// and a sequence counter, as a resumed world's kernel is. Its log,
// relative to that origin, must match the reference run from zero.
class SchedulerDiffRestoredTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerDiffRestoredTest, RestoredClockMatchesHeap) {
  const Origin origin{kTimeZero + micros((1ll << 32) + 123456789),
                      /*processed=*/987654321, /*sequence=*/1ull << 40};
  run_differential(/*seed=*/0x51b0a, kProfiles[GetParam()], /*n_ops=*/400,
                   origin);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, SchedulerDiffRestoredTest, ::testing::Range(0, kProfileCount),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(kProfiles[info.param].name);
    });

// ---------------------------------------------------------------------------
// Boundary property tests at the timing wheel's edges
// ---------------------------------------------------------------------------

std::int64_t usec(const Simulator& sim) {
  return sim.now().time_since_epoch().count();
}

// Ties across a 256-us block edge: events for one tick scheduled
// before the clock enters their 256-us block and after it must still
// fire in schedule order.
TEST(SchedulerWheelBoundaryTest, TiesAcrossCascadeFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  // From t=0, tick 300 lies in the next 256-us block.
  sim.at(kTimeZero + micros(300), [&] { order.push_back(0); }, "t300.a");
  sim.at(kTimeZero + micros(300), [&] { order.push_back(1); }, "t300.b");
  // A callback at t=100 (clock still in block 0) adds another.
  sim.at(kTimeZero + micros(100),
         [&] { sim.at(kTimeZero + micros(300), [&] { order.push_back(2); },
                      "t300.c"); },
         "t100");
  // A callback at t=299 runs after the clock entered block 1; its
  // tick-300 event was scheduled last and must fire last.
  sim.at(kTimeZero + micros(299),
         [&] { sim.at(kTimeZero + micros(300), [&] { order.push_back(3); },
                      "t300.d"); },
         "t299");
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(usec(sim), 300);
  EXPECT_EQ(sim.events_processed(), 6u);
}

// Far-future events: two beyond 2^32 us. A cancel issued by the first
// when it fires must still stop the second (cancel keys on the slot
// and its generation, not on where the entry sits in the queue).
TEST(SchedulerWheelBoundaryTest, CancelAfterOverflowDemotion) {
  Simulator sim;
  bool late_fired = false;
  int mid_fires = 0;
  // Both beyond 2^32 us.
  const TimePoint mid = kTimeZero + micros((1ll << 32) + 1000);
  const TimePoint late = kTimeZero + micros((1ll << 32) + 500000);
  const EventId late_id =
      sim.at(late, [&] { late_fired = true; }, "late");
  // Firing `mid` cancels `late`, which is still queued.
  sim.at(mid,
         [&] {
           ++mid_fires;
           sim.cancel(late_id);
         },
         "mid");
  sim.at(kTimeZero + minutes(1), [&] {}, "early");
  sim.run();
  EXPECT_EQ(mid_fires, 1);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.events_processed(), 2u);  // early + mid; late dropped
  EXPECT_TRUE(sim.queue_empty());
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
}

// A cancel of a far-future event that nothing else comes near must
// also drain cleanly: run() releases the cancelled entry without
// firing it or advancing the clock, and ends with the pool fully free.
TEST(SchedulerWheelBoundaryTest, CancelWhileStillInOverflow) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.at(kTimeZero + hours(2), [&] { fired = true; },
                            "far");
  sim.at(kTimeZero + seconds(1), [&] { sim.cancel(id); }, "canceller");
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_TRUE(sim.queue_empty());
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
}

// Zero-delay scheduling from inside a callback: the new event fires at
// the same tick, after already-queued same-tick events, in schedule
// order.
TEST(SchedulerWheelBoundaryTest, ZeroDelayAppendsToSlotBeingDrained) {
  Simulator sim;
  std::vector<int> order;
  sim.at(kTimeZero + micros(50),
         [&] {
           order.push_back(0);
           sim.after(Duration::zero(), [&] { order.push_back(2); }, "zero.a");
           sim.at(sim.now(), [&] { order.push_back(3); }, "zero.b");
         },
         "first");
  sim.at(kTimeZero + micros(50), [&] { order.push_back(1); }, "second");
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(usec(sim), 50);  // all four fired on one tick
}

// Periodic re-arms landing exactly on 256-us block edges; the chain
// must neither skip nor duplicate.
TEST(SchedulerWheelBoundaryTest, PeriodicAcrossRepeatedCascades) {
  Simulator sim;
  int fires = 0;
  TaskHandle task = sim.every(micros(256), [&] { ++fires; }, "boundary");
  sim.run_until(kTimeZero + micros(256 * 100));
  EXPECT_EQ(fires, 100);
  EXPECT_EQ(usec(sim), 256 * 100);
  task.cancel();
  // The already-armed re-arm event still pops (advancing the clock one
  // period) but must not run the cancelled callback.
  sim.run();
  EXPECT_EQ(fires, 100);
  EXPECT_EQ(usec(sim), 256 * 101);
  EXPECT_TRUE(sim.queue_empty());
}

// The same straddle-and-tie scenario, differentially: a program that
// does nothing but collide on block-boundary ticks.
TEST(SchedulerWheelBoundaryTest, BoundaryTickCollisionsMatchHeap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng = Rng(seed).child("boundary_ties");
    std::vector<Op> program;
    for (int i = 0; i < 300; ++i) {
      Op op;
      op.kind = kOpOneShot;
      // Delays clustered on multiples of 256 and their immediate
      // neighbours.
      const std::int64_t base = 256 * rng.uniform_int(0, 64);
      op.delay_us = base + rng.uniform_int(-1, 1);
      if (op.delay_us < 0) op.delay_us = 0;
      op.action = rng.chance(0.2) ? kActZeroChild : kActNone;
      program.push_back(op);
    }
    Harness<Simulator> kernel(program);
    Harness<ReferenceScheduler> heap(program);
    EXPECT_EQ(kernel.run(), heap.run()) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace simba::sim
