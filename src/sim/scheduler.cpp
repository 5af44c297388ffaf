#include "sim/scheduler.hpp"

#include <limits>

namespace ibc::sim {

EventId Scheduler::schedule_at(TimePoint t, EventFn fn) {
  IBC_REQUIRE_MSG(t >= now_, "cannot schedule events in the past");
  IBC_REQUIRE(static_cast<bool>(fn));
  auto index = static_cast<std::uint32_t>(slots_.size());
  if (free_.empty()) {
    IBC_REQUIRE(slots_.size() < std::numeric_limits<std::uint32_t>::max());
    slots_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  queue_.push(Entry{t, next_seq_++, index});
  ++live_;
  return (EventId{slot.generation} << 32) | index;
}

void Scheduler::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (slot.generation != (id >> 32) || !slot.fn) return;
  // Moved out first: the captures' destructors may re-enter the scheduler.
  const EventFn doomed = std::move(slot.fn);
  --live_;
}

void Scheduler::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  if (++slot.generation == 0) slot.generation = 1;
  free_.push_back(index);
}

bool Scheduler::skip_cancelled() {
  while (!queue_.empty()) {
    const std::uint32_t index = queue_.top().slot;
    if (slots_[index].fn) return true;
    queue_.pop();
    release(index);
  }
  return false;
}

bool Scheduler::step() {
  if (!skip_cancelled()) return false;
  const Entry e = queue_.top();
  queue_.pop();
  // The callback leaves its slot before it runs: it may schedule (growing
  // the slot vector) or cancel its own, already stale, id.
  EventFn fn = std::move(slots_[e.slot].fn);
  release(e.slot);
  --live_;
  IBC_ASSERT(e.time >= now_);
  now_ = e.time;
  ++executed_;
  fn();
  return true;
}

std::size_t Scheduler::run_until(TimePoint t) {
  IBC_REQUIRE(t >= now_);
  std::size_t executed = 0;
  // Peek: stop before events beyond the horizon.
  while (skip_cancelled() && queue_.top().time <= t) {
    step();
    ++executed;
  }
  now_ = t;
  return executed;
}

std::size_t Scheduler::run_all(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && step()) ++executed;
  return executed;
}

}  // namespace ibc::sim
