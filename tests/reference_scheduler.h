// Reference event scheduler: an independent binary-heap kernel, kept
// as the test oracle for sim::Simulator.
//
// scheduler_diff_test.cc drives seed-generated op sequences
// (schedule / cancel / periodic re-arm / cancel-in-callback mixes)
// through both this class and sim::Simulator and asserts identical
// firing orders — the proof that the kernel keeps the exact
// (when, sequence) FIFO tie-break the golden traces and fleet merges
// depend on. It lives in the test tree and is compiled only into that
// test; the production kernel is sim::Simulator (DESIGN.md §13).
//
// The implementation is the PR-5 heap kernel: slab/free-list event
// pool, generation-tagged EventIds, a std::priority_queue of plain
// (when, sequence, slot) entries, release-before-fire one-shots, and
// in-place periodic re-arm. sim::Simulator orders its queue with a
// different algorithm (one sorted array, DESIGN.md §13), so the diff
// catches a change to either. It shares Callback / PeriodicTask /
// TaskHandle with the real kernel so op scripts are written once.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/simulator.h"
#include "util/time.h"

namespace simba::sim {

class ReferenceScheduler {
 public:
  explicit ReferenceScheduler(std::uint64_t seed = 1) : seed_(seed) {}

  ReferenceScheduler(const ReferenceScheduler&) = delete;
  ReferenceScheduler& operator=(const ReferenceScheduler&) = delete;

  /// See Simulator::kScheduler.
  static constexpr const char* kScheduler = "heap";

  TimePoint now() const { return now_; }
  std::uint64_t seed() const { return seed_; }

  EventId at(TimePoint t, Callback cb, const char* label = "");
  EventId after(Duration delay, Callback cb, const char* label = "");
  void cancel(EventId id);
  TaskHandle every(Duration period, Callback cb, const char* label = "",
                   bool immediate = false);

  void run();
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }
  void stop() { stopped_ = true; }

  std::uint64_t events_processed() const { return processed_; }
  bool queue_empty() const { return queue_.empty(); }
  std::size_t pool_slots() const { return pool_.size(); }
  std::size_t pool_free() const { return free_.size(); }

 private:
  struct Event {
    Callback callback;
    std::shared_ptr<PeriodicTask> periodic;
    TimePoint when{};
    const char* label = "";
    std::uint32_t generation = 1;
    bool cancelled = false;
    bool pending = false;
  };
  struct QueueEntry {
    TimePoint when;
    std::uint64_t sequence;  // tie-break: FIFO among equal times
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  std::uint32_t allocate_slot();
  void release_slot(std::uint32_t slot);
  bool step();
  void drop_cancelled_head();

  TimePoint now_{};
  std::uint64_t seed_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, Later> queue_;
  std::vector<Event> pool_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace simba::sim
