// Unit tests for the discrete-event scheduler.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace ibc::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, SimultaneousEventsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ClockOnlyAdvances) {
  Scheduler s;
  TimePoint seen = -1;
  s.schedule_at(7, [&] { seen = s.now(); });
  EXPECT_EQ(s.now(), 0);
  s.run_all();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(s.now(), 7);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(10, [&] { fired = true; });
  s.cancel(id);
  s.run_all();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  const EventId id = s.schedule_at(1, [] {});
  s.run_all();
  s.cancel(id);  // must not crash or corrupt state
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, EventsScheduledDuringExecutionRun) {
  Scheduler s;
  int depth = 0;
  s.schedule_at(1, [&] {
    ++depth;
    s.schedule_after(1, [&] {
      ++depth;
      s.schedule_after(1, [&] { ++depth; });
    });
  });
  s.run_all();
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(s.now(), 3);
}

TEST(Scheduler, RunUntilStopsAtHorizonAndAdvancesClock) {
  Scheduler s;
  std::vector<TimePoint> fired;
  for (TimePoint t : {5, 10, 15, 20})
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  const std::size_t count = s.run_until(12);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(s.now(), 12);
  EXPECT_EQ(fired, (std::vector<TimePoint>{5, 10}));
  s.run_all();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Scheduler, RunUntilBoundaryIsInclusive) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(10, [&] { fired = true; });
  s.run_until(10);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunAllHonoursEventLimit) {
  Scheduler s;
  // A self-perpetuating event chain: the limit must stop it.
  std::function<void()> loop = [&] { s.schedule_after(1, loop); };
  s.schedule_after(1, loop);
  const std::size_t executed = s.run_all(100);
  EXPECT_EQ(executed, 100u);
}

TEST(Scheduler, ZeroDelayEventRunsAtSameTime) {
  Scheduler s;
  TimePoint at = -1;
  s.schedule_at(5, [&] {
    s.schedule_after(0, [&] { at = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(at, 5);
}

TEST(Scheduler, EmptyAndCounters) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  s.schedule_at(1, [] {});
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(Scheduler, StableUnderManyMixedOperations) {
  Scheduler s;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(s.schedule_at(i % 97, [&] { ++fired; }));
  for (std::size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
  s.run_all();
  EXPECT_EQ(fired, 1000 - 334);
  EXPECT_TRUE(s.empty());
}

// Slot reuse. Each test below cancels an id whose slot a later event has
// taken over; a scheduler that reused slots without bumping a generation
// would cancel the newcomer instead.

/// Fires one event, then schedules `fn` into the slot it freed. Returns
/// the stale id of the fired event.
template <class F>
EventId stale_id_then_schedule(Scheduler& s, F&& fn, EventId* fresh) {
  const EventId stale = s.schedule_after(1, [] {});
  s.run_all();
  *fresh = s.schedule_after(1, std::forward<F>(fn));
  return stale;
}

TEST(SchedulerSlots, StaleCancelAfterSlotReuseIsNoop) {
  Scheduler s;
  bool fired = false;
  EventId fresh = 0;
  const EventId stale =
      stale_id_then_schedule(s, [&fired] { fired = true; }, &fresh);
  EXPECT_NE(stale, fresh);
  s.cancel(stale);
  EXPECT_FALSE(s.empty()) << "the stale cancel hit the new event";
  s.run_all();
  EXPECT_TRUE(fired);
  s.cancel(fresh);  // fired by now: also stale
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerSlots, CapturesDieAtCancelAndAfterFiring) {
  Scheduler s;
  const auto token = std::make_shared<int>(7);
  // Fired: the captures live while the callback runs, then die.
  long during = 0;
  s.schedule_after(1, [token, &during] { during = token.use_count(); });
  EXPECT_EQ(token.use_count(), 2);
  s.run_all();
  EXPECT_EQ(during, 2);
  EXPECT_EQ(token.use_count(), 1) << "fired captures outlived the event";

  // Cancelled: the captures die at cancel, not when the entry pops.
  EventId fresh = 0;
  const EventId stale =
      stale_id_then_schedule(s, [token] { ADD_FAILURE(); }, &fresh);
  s.cancel(stale);
  EXPECT_EQ(token.use_count(), 2) << "a stale cancel destroyed a capture";
  s.cancel(fresh);
  EXPECT_EQ(token.use_count(), 1) << "cancel kept the captures alive";
  s.run_all();
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerSlots, MoveOnlyCapturesRun) {
  Scheduler s;
  int seen = 0;
  EventId fresh = 0;
  const EventId stale = stale_id_then_schedule(
      s,
      [box = std::make_unique<int>(42), &seen] { seen = *box; },
      &fresh);
  s.cancel(stale);
  s.run_all();
  EXPECT_EQ(seen, 42);
}

TEST(SchedulerSlots, CaptureLargerThanInlineBufferFiresAndIsFreed) {
  struct Big {
    std::array<std::uint8_t, 256> bytes{};
    std::shared_ptr<int> token;
  };
  static_assert(!EventFn::stored_inline<Big>());
  Scheduler s;
  const auto token = std::make_shared<int>(0);
  Big big;
  big.bytes.fill(3);
  big.token = token;
  int sum = 0;
  EventId fresh = 0;
  const EventId stale = stale_id_then_schedule(
      s,
      [big, &sum] {
        for (const std::uint8_t b : big.bytes) sum += b;
      },
      &fresh);
  big.token.reset();
  EXPECT_EQ(token.use_count(), 2);
  s.cancel(stale);
  s.run_all();
  EXPECT_EQ(sum, 3 * 256);
  EXPECT_EQ(token.use_count(), 1) << "the heap-stored capture leaked";
}

TEST(SchedulerSlots, FifoAmongEqualTimesHoldsAcrossSlotReuse) {
  // A random mix of schedules, cancels (of pending, fired and cancelled
  // ids alike) and partial runs, against a reference multimap: it keeps
  // equal keys in insertion order, which is the FIFO the scheduler owes.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Scheduler s;
    std::vector<int> fired;
    std::vector<int> want;
    std::multimap<TimePoint, int> pending;
    std::vector<EventId> ids;  // indexed by tag
    const auto run_reference_until = [&](TimePoint horizon) {
      while (!pending.empty() && pending.begin()->first <= horizon) {
        want.push_back(pending.begin()->second);
        pending.erase(pending.begin());
      }
    };
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t kind = rng.next_below(10);
      if (kind < 6) {
        // Few distinct times, so ties are the common case.
        const TimePoint t = s.now() + rng.next_in(0, 3);
        const int tag = static_cast<int>(ids.size());
        ids.push_back(
            s.schedule_at(t, [&fired, tag] { fired.push_back(tag); }));
        pending.emplace(t, tag);
      } else if (kind < 8 && !ids.empty()) {
        const auto tag = static_cast<int>(rng.next_below(ids.size()));
        s.cancel(ids[tag]);
        for (auto it = pending.begin(); it != pending.end(); ++it) {
          if (it->second == tag) {
            pending.erase(it);
            break;
          }
        }
      } else {
        const TimePoint horizon = s.now() + rng.next_in(0, 2);
        s.run_until(horizon);
        run_reference_until(horizon);
      }
    }
    s.run_all();
    run_reference_until(std::numeric_limits<TimePoint>::max());
    EXPECT_EQ(fired, want);
    EXPECT_TRUE(s.empty());
  }
}

TEST(SchedulerSlots, NoIdIsZeroAcrossManyReusesOfOneSlot) {
  Scheduler s;
  std::set<EventId> ids;
  for (int i = 0; i < 10'000; ++i) {
    const EventId id = s.schedule_after(1, [] {});
    EXPECT_NE(id, 0u);
    ids.insert(id);
    s.run_all();  // frees the one slot again
  }
  EXPECT_EQ(ids.size(), 10'000u) << "a reused slot repeated an id";
}

}  // namespace
}  // namespace ibc::sim
