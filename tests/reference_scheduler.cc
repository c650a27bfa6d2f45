#include "reference_scheduler.h"

#include <cassert>

namespace simba::sim {

std::uint32_t ReferenceScheduler::allocate_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(pool_.size());
  pool_.emplace_back();
  return slot;
}

void ReferenceScheduler::release_slot(std::uint32_t slot) {
  Event& event = pool_[slot];
  event.callback = nullptr;
  event.periodic.reset();
  event.label = "";
  event.cancelled = false;
  event.pending = false;
  if (++event.generation == 0) event.generation = 1;
  free_.push_back(slot);
}

EventId ReferenceScheduler::at(TimePoint t, Callback cb, const char* label) {
  if (t < now_) t = now_;
  const std::uint32_t slot = allocate_slot();
  Event& event = pool_[slot];
  event.when = t;
  event.callback = std::move(cb);
  event.label = label == nullptr ? "" : label;
  event.pending = true;
  queue_.push(QueueEntry{t, next_sequence_++, slot});
  return make_id(slot, event.generation);
}

EventId ReferenceScheduler::after(Duration delay, Callback cb,
                                  const char* label) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return at(now_ + delay, std::move(cb), label);
}

void ReferenceScheduler::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= pool_.size()) return;
  Event& event = pool_[slot];
  if (!event.pending || event.generation != generation) return;
  event.cancelled = true;
}

TaskHandle ReferenceScheduler::every(Duration period, Callback cb,
                                     const char* label, bool immediate) {
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
  queue_.push(QueueEntry{event.when, next_sequence_++, slot});
  return TaskHandle{std::move(task)};
}

void ReferenceScheduler::drop_cancelled_head() {
  while (!queue_.empty()) {
    const std::uint32_t slot = queue_.top().slot;
    if (!pool_[slot].cancelled) break;
    queue_.pop();
    release_slot(slot);
  }
}

bool ReferenceScheduler::step() {
  drop_cancelled_head();
  if (queue_.empty()) return false;
  const QueueEntry entry = queue_.top();
  queue_.pop();
  assert(entry.when >= now_);
  now_ = entry.when;
  ++processed_;
  Event& event = pool_[entry.slot];
  if (event.periodic != nullptr) {
    std::shared_ptr<PeriodicTask> task = event.periodic;
    if (task->cancelled) {
      release_slot(entry.slot);
      return true;
    }
    task->callback();
    if (task->cancelled) {
      release_slot(entry.slot);
      return true;
    }
    Event& rearmed = pool_[entry.slot];
    rearmed.when = now_ + task->period;
    queue_.push(QueueEntry{rearmed.when, next_sequence_++, entry.slot});
    return true;
  }
  Callback cb = std::move(event.callback);
  release_slot(entry.slot);
  cb();
  return true;
}

void ReferenceScheduler::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void ReferenceScheduler::run_until(TimePoint t) {
  stopped_ = false;
  while (!stopped_) {
    drop_cancelled_head();
    if (queue_.empty() || queue_.top().when > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace simba::sim
