// Discrete-event simulation kernel.
//
// The paper's evaluation ran for a month of wall-clock time against live
// services; this reproduction runs the same component graph on virtual
// time. The kernel is deliberately single-threaded and deterministic:
// events at equal times fire in scheduling order, and all randomness
// comes from named child streams of the simulator's seed.
//
// The kernel is allocation-light (DESIGN.md §12): events live in a
// slab pool with a free list, and EventIds pack (generation, slot) so
// cancel() is an O(1) slot check with no side index. Labels are
// `const char*` string literals naming the event kind, so scheduling
// never copies a label.
//
// Event ordering (DESIGN.md §13) is one array of plain (when, sequence,
// slot) entries kept sorted earliest first: equal times fire in
// sequence order, the FIFO tie-break the golden traces and fleet merges
// depend on. The run loop pops the head entry (an index increment)
// before it fires the callback. A push appends when it is the latest
// entry, and otherwise moves the shorter side of its place by one slot:
// the prefix left, into the slack that pops leave before the head, or
// the suffix right. Cancelled entries stay queued until they reach the
// head, where the run loop releases them without advancing time. A
// simulated world holds a few dozen events at a time, where a binary
// search over one contiguous array and a short shift beat a heap's
// data-dependent sift-downs (DESIGN.md §13).
// tests/scheduler_diff_test.cc diffs this kernel against
// sim::ReferenceScheduler, an independent binary heap.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "util/log.h"
#include "util/rng.h"
#include "util/time.h"

namespace simba::sim {

using Callback = std::function<void()>;

/// Identifies a scheduled event for cancellation. Packs the pool slot
/// index (low 32 bits) and the slot's generation at scheduling time
/// (high 32 bits). Generations start at 1 and skip 0 on wrap, so the
/// id 0 is never issued — callers use 0 as a "no event" sentinel.
using EventId = std::uint64_t;

/// Shared state of one periodic task (see Simulator::every). Owned
/// jointly by the pooled event that re-arms it and by every TaskHandle
/// copy; the cancelled flag is how handles stop the chain.
struct PeriodicTask {
  Callback callback;
  Duration period{};
  bool cancelled = false;
};

/// Handle to a periodic task. Copyable; copies share the task. The
/// task runs until cancel() is called — destruction alone does NOT
/// cancel (so handles can be passed around freely); owners that must
/// not outlive their callbacks cancel in their destructors, or wrap
/// the handle in a ScopedTask which does it for them.
class TaskHandle {
 public:
  TaskHandle() = default;
  explicit TaskHandle(std::shared_ptr<PeriodicTask> task)
      : task_(std::move(task)) {}
  void cancel() {
    if (task_) task_->cancelled = true;
  }
  bool active() const { return task_ && !task_->cancelled; }

 private:
  std::shared_ptr<PeriodicTask> task_;
};

/// RAII owner of a periodic task: cancels in its destructor. Move-only,
/// so exactly one owner exists. Use whenever the callback captures
/// state whose lifetime ends with the owner — e.g. fleet shard worlds,
/// whose samplers must not fire after the shard is torn down.
class ScopedTask {
 public:
  ScopedTask() = default;
  explicit ScopedTask(TaskHandle handle) : handle_(std::move(handle)) {}
  ScopedTask(ScopedTask&& other) noexcept
      : handle_(std::exchange(other.handle_, TaskHandle{})) {}
  ScopedTask& operator=(ScopedTask&& other) noexcept {
    if (this != &other) {
      handle_.cancel();
      handle_ = std::exchange(other.handle_, TaskHandle{});
    }
    return *this;
  }
  ScopedTask(const ScopedTask&) = delete;
  ScopedTask& operator=(const ScopedTask&) = delete;
  ~ScopedTask() { handle_.cancel(); }

  void cancel() { handle_.cancel(); }
  bool active() const { return handle_.active(); }

 private:
  TaskHandle handle_;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Which event-ordering structure this kernel uses; recorded in the
  /// BENCH_*.json baselines so wheel-, heap- and sorted-array-era runs
  /// are distinguishable in the perf trajectory.
  static constexpr const char* kScheduler = "sorted";

  TimePoint now() const { return now_; }
  std::uint64_t seed() const { return seed_; }

  /// Independent deterministic stream for a named component.
  Rng make_rng(std::string_view name) const { return root_rng_.child(name); }

  /// Schedules `cb` at absolute time `t` (clamped to now). Returns an
  /// id usable with cancel(). `label` names the event kind and must
  /// outlive the event; the kernel stores only the pointer. Pass a
  /// string literal (simba-lint's [label] rule enforces this in src/);
  /// the bus's per-message-type label, interned through
  /// util::StringInterner, is the one waived exception. `cb` is moved
  /// once, into its pool slot; pass `Callback(f)` to schedule a copy of
  /// a callback that is kept.
  EventId at(TimePoint t, Callback&& cb, const char* label = "");

  /// Schedules `cb` after `delay` (clamped to zero).
  EventId after(Duration delay, Callback&& cb, const char* label = "") {
    if (delay < Duration::zero()) delay = Duration::zero();
    return at(now_ + delay, std::move(cb), label);
  }

  /// Cancels a pending event; no-op if already fired or cancelled.
  /// O(1): decodes the slot from the id and checks the generation, so
  /// a stale id (slot since recycled) can never cancel the new
  /// occupant.
  void cancel(EventId id);

  /// Schedules `cb` every `period`, first firing after `period` (or
  /// immediately at now+0 if `immediate`). The task stops when the
  /// returned handle is cancelled. The kernel re-arms the same pool
  /// slot after each fire, so a steady-state periodic task allocates
  /// nothing per tick.
  TaskHandle every(Duration period, Callback cb, const char* label = "",
                   bool immediate = false);

  /// Runs until the event queue is empty or stop() is called.
  void run();
  /// Runs until virtual time would exceed `t`; leaves later events queued
  /// and sets now to exactly `t`.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }
  /// Requests that the run loop return after the current event.
  void stop() { stopped_ = true; }

  std::uint64_t events_processed() const { return processed_; }
  /// Cancelled entries that have not reached the head of the queue yet
  /// still count, so this is a conservative check for diagnostics.
  bool queue_empty() const { return head_ == queue_.size(); }

  /// Next tie-break sequence number; carried across crash-restarts so
  /// a resumed run's FIFO ordering stays monotonic with its past.
  std::uint64_t sequence_counter() const { return next_sequence_; }

  /// Crash-restart support (sim/snapshot.h): re-aligns a *fresh* kernel
  /// (nothing scheduled, nothing fired yet — asserted) to a
  /// checkpointed clock. Pending events are deliberately NOT carried: a
  /// checkpoint models a process image that died, so components re-arm
  /// their own timers when they start, and the pessimistic log replays
  /// whatever the crash dropped — the paper's own restart path.
  void restore_clock(TimePoint now, std::uint64_t events_processed,
                     std::uint64_t sequence_counter);

  /// Pool introspection for tests and bench_kernel: total slots ever
  /// created, and slots currently on the free list.
  std::size_t pool_slots() const { return pool_.size(); }
  std::size_t pool_free() const { return free_.size(); }

 private:
  friend class KernelTestPeer;  // tests/sim_test.cc: generation-wrap seams

  /// One pool slot. A slot is `pending` from scheduling until its queue
  /// entry is popped (even while cancelled — the entry still
  /// references it); release bumps the generation so stale EventIds
  /// miss.
  struct Event {
    Callback callback;                       // one-shot payload
    std::shared_ptr<PeriodicTask> periodic;  // periodic payload, else null
    TimePoint when{};
    const char* label = "";
    std::uint32_t generation = 1;
    bool cancelled = false;
    bool pending = false;
  };
  /// Queue entry: plain value type, no indirection. At most one entry
  /// per pending slot (a periodic slot re-arms only after its previous
  /// entry was popped).
  struct QueueEntry {
    TimePoint when;
    std::uint64_t sequence;  // tie-break: FIFO among equal times
    std::uint32_t slot;
  };
  /// Earlier(a, b): a fires before b. The queue is sorted by it.
  struct Earlier {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.when != b.when) return a.when < b.when;
      return a.sequence < b.sequence;
    }
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  std::uint32_t allocate_slot();
  void release_slot(std::uint32_t slot);
  /// Queues `entry`, which carries the largest sequence so far, after
  /// every entry not later than it.
  void push(const QueueEntry& entry);
  /// Advances head_ past the head entry; an emptied queue restarts at 0.
  void pop_head() {
    if (++head_ == queue_.size()) {
      queue_.clear();
      head_ = 0;
    }
  }
  /// Pops and releases kernel-cancelled entries from the head of the
  /// queue: no time advance, no events_processed tick.
  void release_cancelled_heads();
  /// Pops the head entry, which must be live, and fires it.
  void fire_head();

  TimePoint now_{};
  std::uint64_t seed_;
  Rng root_rng_;

  std::vector<Event> pool_;
  std::vector<std::uint32_t> free_;
  /// queue_[head_, size()) are the pending entries, sorted by Earlier:
  /// queue_[head_] fires next. queue_[0, head_) are popped entries, the
  /// slack a push shifts its prefix into.
  std::vector<QueueEntry> queue_;
  std::size_t head_ = 0;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace simba::sim
