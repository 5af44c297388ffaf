// Deterministic discrete-event scheduler.
//
// The simulator's single source of truth for time. Events fire in
// (time, insertion-sequence) order, so simultaneous events run in the exact
// order they were scheduled — together with seeded RNG streams this makes
// every simulation bit-reproducible.
//
// Storage: the heap orders plain {time, seq, slot} entries; each event's
// callback lives in a reusable slot of a vector. A slot returns to a LIFO
// free list when its heap entry pops (fired or cancelled), so steady-state
// scheduling allocates nothing: EventFn keeps small captures inline. An
// EventId names a slot plus that slot's generation, which is bumped on
// every release, so a stale id (fired, or its slot reused) cancels nothing.
//
// The scheduler is strictly single-threaded: all protocol code, network
// model code and test harness code runs inside event callbacks.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace ibc::sim {

/// Identifies a scheduled event so it can be cancelled: the slot's
/// generation in the high 32 bits, the slot index in the low 32. A
/// generation is never 0, so 0 is never issued.
using EventId = std::uint64_t;

class Scheduler {
 public:
  using EventFn = sim::EventFn;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Advances only while events execute.
  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now).
  EventId schedule_at(TimePoint t, EventFn fn);

  /// Schedules `fn` after `delay` (>= 0) from now.
  EventId schedule_after(Duration delay, EventFn fn) {
    IBC_REQUIRE(delay >= 0);
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event and destroys its callback at once.
  /// Cancelling an already-fired or already-cancelled event is a harmless
  /// no-op (timer races are normal in protocol code).
  void cancel(EventId id);

  /// Executes the next event, if any. Returns false when the queue is
  /// empty (cancelled events are skipped silently).
  bool step();

  /// Runs events with time <= `t`, then advances the clock to exactly `t`.
  /// Returns the number of events executed.
  std::size_t run_until(TimePoint t);

  /// Runs until the queue drains or `max_events` fire. Returns the number
  /// of events executed. A hit on the limit usually means a livelocked
  /// protocol — callers treat it as a failure.
  std::size_t run_all(std::size_t max_events = kDefaultEventLimit);

  bool empty() const { return live_ == 0; }

  /// Total events executed so far (diagnostics / benchmarks).
  std::uint64_t events_executed() const { return executed_; }

  static constexpr std::size_t kDefaultEventLimit = 50'000'000;

 private:
  struct Entry {
    TimePoint time;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// A pending event's callback; empty once cancelled. Reserved from
  /// schedule until its heap entry pops.
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;
  };

  /// Pops and releases cancelled entries off the top of the heap.
  /// Returns false if no pending event remains.
  bool skip_cancelled();
  void release(std::uint32_t slot);

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;  // scheduled, neither fired nor cancelled
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // LIFO: the warmest slot first
};

}  // namespace ibc::sim
