#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace simba::sim {

Simulator::Simulator(std::uint64_t seed)
    : seed_(seed), root_rng_(Rng{seed}.child("root")) {
  // Log lines carry virtual time while this simulator is alive.
  Log::set_time_source([this] { return now_; });
}

Simulator::~Simulator() { Log::clear_time_source(); }

std::uint32_t Simulator::allocate_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(pool_.size());
  pool_.emplace_back();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Event& event = pool_[slot];
  event.callback = nullptr;
  event.periodic.reset();
  event.label = "";
  event.cancelled = false;
  event.pending = false;
  // Bumping the generation invalidates every EventId issued for the
  // old occupant; skipping 0 keeps all ids nonzero (0 is the callers'
  // "no event" sentinel).
  if (++event.generation == 0) event.generation = 1;
  free_.push_back(slot);
}

void Simulator::push(const QueueEntry& entry) {
  if (queue_.size() == queue_.capacity() && head_ > 0) {
    // Reuse the popped prefix rather than grow: the vector stays
    // bounded by the peak pending count.
    queue_.erase(queue_.begin(), queue_.begin() + head_);
    head_ = 0;
  }
  if (queue_empty() || Earlier{}(queue_.back(), entry)) {
    queue_.push_back(entry);
    return;
  }
  // `entry` carries the largest sequence so far, so it goes after every
  // entry not later than it: equal times stay in FIFO order.
  const auto first = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto place = std::partition_point(
      first, queue_.end(),
      [&entry](const QueueEntry& queued) { return Earlier{}(queued, entry); });
  if (head_ > 0 && place - first <= queue_.end() - place) {
    // Shift the shorter prefix one slot left, into the popped slack.
    std::move(first, place, first - 1);
    *(place - 1) = entry;
    --head_;
    return;
  }
  queue_.insert(place, entry);
}

EventId Simulator::at(TimePoint t, Callback&& cb, const char* label) {
  if (t < now_) t = now_;
  const std::uint32_t slot = allocate_slot();
  Event& event = pool_[slot];
  event.when = t;
  event.callback = std::move(cb);
  event.label = label == nullptr ? "" : label;
  event.pending = true;
  push(QueueEntry{t, next_sequence_++, slot});
  return make_id(slot, event.generation);
}

void Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= pool_.size()) return;
  Event& event = pool_[slot];
  if (!event.pending || event.generation != generation) return;
  // The queue entry still references this slot, so the slot is only
  // freed (and its generation bumped) when that entry reaches the head
  // and release_cancelled_heads() pops it.
  event.cancelled = true;
}

TaskHandle Simulator::every(Duration period, Callback cb, const char* label,
                            bool immediate) {
  assert(period > Duration::zero());
  auto task = std::make_shared<PeriodicTask>();
  task->callback = std::move(cb);
  task->period = period;
  const std::uint32_t slot = allocate_slot();
  Event& event = pool_[slot];
  event.when = now_ + (immediate ? Duration::zero() : period);
  event.periodic = task;
  event.label = label == nullptr ? "" : label;
  event.pending = true;
  push(QueueEntry{event.when, next_sequence_++, slot});
  return TaskHandle{std::move(task)};
}

void Simulator::release_cancelled_heads() {
  // Only cancel(id) marks an entry here. A periodic task cancelled
  // through its handle is not marked: its already-armed fire still
  // pops as a real event (see fire_head()).
  while (!queue_empty() && pool_[queue_[head_].slot].cancelled) {
    const std::uint32_t slot = queue_[head_].slot;
    pop_head();
    release_slot(slot);
  }
}

void Simulator::fire_head() {
  // Pop before firing: whatever the callback schedules, or the periodic
  // re-arm below, is pushed onto a queue that no longer holds this
  // entry.
  const QueueEntry entry = queue_[head_];
  pop_head();
  assert(entry.when >= now_);
  now_ = entry.when;
  ++processed_;
  Event& event = pool_[entry.slot];
  if (event.periodic != nullptr) {
    // A raw pointer is enough: the slot's shared_ptr keeps the task
    // alive until release_slot(), which runs only after the callback
    // returns, and the task does not move when the callback grows the
    // pool.
    PeriodicTask* const task = event.periodic.get();
    if (task->cancelled) {
      // The handle was cancelled after this fire was armed: the pending
      // fire still pops (advancing time and counting as processed) but
      // runs nothing and ends the chain.
      release_slot(entry.slot);
      return;
    }
    task->callback();
    if (task->cancelled) {
      release_slot(entry.slot);
      return;
    }
    // Re-arm the same slot. Refresh the reference (the callback may
    // have grown the pool) and take the next sequence only now, after
    // the callback ran — events the callback scheduled at now+period
    // fire before the next tick, matching FIFO expectations.
    Event& rearmed = pool_[entry.slot];
    rearmed.when = now_ + task->period;
    push(QueueEntry{rearmed.when, next_sequence_++, entry.slot});
    return;
  }
  // One-shot: free the slot before invoking, so cancel(own id) inside
  // the callback is a clean no-op (the generation already moved on)
  // and the slot is immediately reusable by whatever the callback
  // schedules.
  Callback cb = std::move(event.callback);
  release_slot(entry.slot);
  cb();
}

void Simulator::restore_clock(TimePoint now, std::uint64_t events_processed,
                              std::uint64_t sequence_counter) {
  // Only a kernel that has never scheduled or fired anything can be
  // re-aligned: an entry queued before the jump could fire in the
  // restored clock's past.
  assert(queue_empty() && processed_ == 0 && pool_.empty());
  now_ = now;
  processed_ = events_processed;
  next_sequence_ = sequence_counter;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_) {
    release_cancelled_heads();
    if (queue_empty()) break;
    fire_head();
  }
}

void Simulator::run_until(TimePoint t) {
  stopped_ = false;
  while (!stopped_) {
    release_cancelled_heads();
    if (queue_empty() || queue_[head_].when > t) break;
    fire_head();
  }
  if (now_ < t) now_ = t;
}

}  // namespace simba::sim
