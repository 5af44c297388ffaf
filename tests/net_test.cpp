// Unit tests for the simulated network: cost pipeline, processor-sharing
// NIC, crash semantics, determinism.
#include <gtest/gtest.h>

#include <vector>

#include "net/simnet.hpp"
#include "sim/scheduler.hpp"

namespace ibc::net {
namespace {

struct Event {
  ProcessId src, dst;
  std::size_t size;
  TimePoint at;
};

struct Fixture {
  explicit Fixture(NetModel model, std::uint32_t n = 3,
                   std::uint64_t seed = 1)
      : net(sched, n, model, Rng(seed)) {
    net.set_deliver([this](ProcessId s, ProcessId d, BytesView m) {
      events.push_back(Event{s, d, m.size(), sched.now()});
    });
  }
  sim::Scheduler sched;
  SimNetwork net;
  std::vector<Event> events;
};

NetModel simple_model() {
  NetModel m;
  m.send_overhead = microseconds(10);
  m.recv_overhead = microseconds(20);
  m.cpu_per_byte_send = 0;
  m.cpu_per_byte_recv = 0;
  m.bandwidth_bytes_per_sec = 1e6;  // 1 B/us: easy arithmetic
  m.propagation = microseconds(100);
  m.jitter = 0;
  m.self_delivery_cost = microseconds(5);
  m.header_bytes = 0;
  return m;
}

TEST(SimNetwork, DeliveryTimeMatchesCostModel) {
  Fixture f(simple_model());
  f.net.send(1, 2, Bytes(100, 7));
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
  // send cpu 10us + wire 100B at 1B/us = 100us + prop 100us + recv 20us.
  EXPECT_EQ(f.events[0].at, microseconds(10 + 100 + 100 + 20));
  EXPECT_EQ(f.events[0].src, 1u);
  EXPECT_EQ(f.events[0].dst, 2u);
  EXPECT_EQ(f.events[0].size, 100u);
}

TEST(SimNetwork, PerByteCpuCostsApply) {
  NetModel m = simple_model();
  m.cpu_per_byte_send = nanoseconds(100);
  m.cpu_per_byte_recv = nanoseconds(50);
  Fixture f(m);
  f.net.send(1, 2, Bytes(1000, 7));
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
  // +100ns*1000 on send cpu, +50ns*1000 on recv cpu.
  EXPECT_EQ(f.events[0].at, microseconds(10 + 100) + microseconds(1000) +
                                microseconds(100) +
                                microseconds(20 + 50));
}

TEST(SimNetwork, LoopbackSkipsNicAndPropagation) {
  Fixture f(simple_model());
  f.net.send(2, 2, Bytes(100, 1));
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
  EXPECT_EQ(f.events[0].at, microseconds(5));
}

TEST(SimNetwork, SenderCpuIsFifo) {
  Fixture f(simple_model());
  f.net.send(1, 2, Bytes(50, 1));
  f.net.send(1, 3, Bytes(50, 1));  // CPU starts only after the first
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 2u);
  // First: 10 (cpu) + 50 (wire, alone until second joins) ...
  // Both transfers overlap on the NIC after the second's CPU completes.
  EXPECT_LT(f.events[0].at, f.events[1].at);
  // Second message's CPU could only start at 10us.
  EXPECT_GE(f.events[1].at, microseconds(20 + 50 + 100 + 20));
}

TEST(SimNetwork, ProcessorSharingLetsSmallOvertakeLarge) {
  Fixture f(simple_model());
  f.net.send(1, 2, Bytes(100'000, 1));  // 100ms of wire time alone
  f.net.send(1, 3, Bytes(100, 1));      // tiny
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 2u);
  // The tiny message must complete long before the bulk transfer.
  EXPECT_EQ(f.events[0].dst, 3u);
  EXPECT_LT(f.events[0].at, milliseconds(2));
  EXPECT_EQ(f.events[1].dst, 2u);
  EXPECT_GT(f.events[1].at, milliseconds(100));
}

TEST(SimNetwork, ProcessorSharingHalvesRate) {
  Fixture f(simple_model());
  // Two equal transfers started back to back share the 1 B/us link.
  f.net.send(1, 2, Bytes(1000, 1));
  f.net.send(1, 3, Bytes(1000, 1));
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 2u);
  // Each would take 1ms alone; sharing pushes both towards ~2ms.
  EXPECT_GT(f.events[1].at, microseconds(10 + 1900 + 100 + 20));
}

TEST(SimNetwork, CrashDropsQueuedCpuWork) {
  Fixture f(simple_model());
  f.net.send(1, 2, Bytes(100, 1));
  f.net.crash(1);  // before the send's CPU task completes
  f.sched.run_all();
  EXPECT_TRUE(f.events.empty());
  EXPECT_EQ(f.net.counters().dropped_crash, 1u);
}

TEST(SimNetwork, RestartDropsTheOldIncarnationsQueuedCpuWork) {
  // p2's CPU is busy for 10 ms, so a receive, a loopback and a send
  // queue behind it. p2 crashes at 1 ms and restarts at 2 ms, before any
  // of them runs: they belong to the dead incarnation and must reach
  // neither the new one nor the wire. A message still on the wire at the
  // restart arrives, at the new incarnation, which can also send.
  Fixture f(simple_model());
  f.net.charge_cpu(2, milliseconds(10));
  f.net.send(1, 2, Bytes(10, 1));  // queued on p2's CPU at 120 us
  f.net.send(2, 2, Bytes(11, 2));  // loopback
  f.net.send(2, 3, Bytes(12, 3));  // not yet on p2's NIC
  f.net.crash_at(milliseconds(1), 2);
  f.sched.schedule_at(milliseconds(2), [&f] { f.net.restart(2); });
  // Arrives at 2.08 ms: CPU 10 us + NIC 20 us + propagation 100 us.
  f.sched.schedule_at(milliseconds(2) - microseconds(50),
                      [&f] { f.net.send(1, 2, Bytes(20, 4)); });
  f.sched.schedule_at(milliseconds(3),
                      [&f] { f.net.send(2, 3, Bytes(30, 5)); });
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 2u);
  EXPECT_EQ(f.events[0].src, 1u);
  EXPECT_EQ(f.events[0].dst, 2u);
  EXPECT_EQ(f.events[0].size, 20u);
  EXPECT_EQ(f.events[1].src, 2u);
  EXPECT_EQ(f.events[1].dst, 3u);
  EXPECT_EQ(f.events[1].size, 30u);
  EXPECT_EQ(f.net.counters().dropped_crash, 3u);
}

TEST(SimNetwork, CrashCountsQueuedReceiveAndLoopbackOnce) {
  // A receive and a loopback whose process crashes (and stays down)
  // while the task is queued are lost exactly like a queued send: each
  // counts once in dropped_crash.
  Fixture f(simple_model());
  // Arrives at 120 us (CPU 10 + NIC 10 + propagation 100); its receive
  // runs until 140 us.
  f.net.send(1, 2, Bytes(10, 1));
  f.net.crash_at(microseconds(130), 2);
  f.net.send(3, 3, Bytes(10, 2));  // loopback done at 5 us
  f.net.crash_at(microseconds(2), 3);
  f.sched.run_all();
  EXPECT_TRUE(f.events.empty());
  EXPECT_EQ(f.net.counters().dropped_crash, 2u);
}

TEST(SimNetwork, CrashAbortsNicTransfers) {
  Fixture f(simple_model());
  f.net.send(1, 2, Bytes(100'000, 1));         // ~100ms on the wire
  f.net.crash_at(milliseconds(50), 1);         // mid-transfer
  f.sched.run_all();
  EXPECT_TRUE(f.events.empty());
}

TEST(SimNetwork, InFlightMessageSurvivesSenderCrash) {
  Fixture f(simple_model());
  f.net.send(1, 2, Bytes(10, 1));
  // CPU (10us) + wire (10us) done by 20us; propagation ends at 120us.
  // Crashing at 50us leaves the message on the wire: it must arrive.
  f.net.crash_at(microseconds(50), 1);
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
}

TEST(SimNetwork, ArrivalAtCrashedDestinationDropped) {
  Fixture f(simple_model());
  f.net.send(1, 2, Bytes(10, 1));
  f.net.crash_at(microseconds(50), 2);
  f.sched.run_all();
  EXPECT_TRUE(f.events.empty());
  EXPECT_EQ(f.net.counters().dropped_crash, 1u);
  EXPECT_EQ(f.net.counters().dropped_fault, 0u);
}

TEST(SimNetwork, CrashedProcessCannotSend) {
  Fixture f(simple_model());
  f.net.crash(1);
  f.net.send(1, 2, Bytes(10, 1));
  f.sched.run_all();
  EXPECT_TRUE(f.events.empty());
  EXPECT_EQ(f.net.counters().messages_sent, 0u);
}

TEST(SimNetwork, ChargeCpuDelaysSubsequentDeliveries) {
  Fixture f(simple_model());
  f.net.charge_cpu(2, milliseconds(10));
  f.net.send(1, 2, Bytes(10, 1));
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
  // Receiver CPU is busy until 10ms; recv processing queues behind it.
  EXPECT_GE(f.events[0].at, milliseconds(10) + microseconds(20));
}

TEST(SimNetwork, CrashListenersFire) {
  Fixture f(simple_model());
  std::vector<ProcessId> crashed;
  f.net.subscribe_crash([&](ProcessId p) { crashed.push_back(p); });
  f.net.crash(3);
  f.net.crash(3);  // idempotent
  EXPECT_EQ(crashed, (std::vector<ProcessId>{3}));
  EXPECT_TRUE(f.net.crashed(3));
  EXPECT_EQ(f.net.alive_count(), 2u);
}

TEST(SimNetwork, CountersTrackTraffic) {
  Fixture f(simple_model());
  f.net.send(1, 2, Bytes(10, 1));
  f.net.send(2, 3, Bytes(20, 1));
  f.net.send(3, 3, Bytes(30, 1));  // loopback
  f.sched.run_all();
  const auto& c = f.net.counters();
  EXPECT_EQ(c.messages_sent, 3u);
  EXPECT_EQ(c.messages_delivered, 3u);
  EXPECT_EQ(c.payload_bytes_sent, 60u);
  EXPECT_EQ(c.wire_bytes_sent, 30u);  // loopback excluded
  EXPECT_EQ(f.net.messages_sent_by(1), 1u);
  EXPECT_EQ(f.net.messages_delivered_to(3), 2u);
}

TEST(SimNetwork, JitterIsDeterministicPerSeed) {
  NetModel m = simple_model();
  m.jitter = microseconds(50);
  auto run = [&](std::uint64_t seed) {
    Fixture f(m, 3, seed);
    for (int i = 0; i < 20; ++i) f.net.send(1, 2, Bytes(10, 1));
    f.sched.run_all();
    std::vector<TimePoint> times;
    for (const Event& e : f.events) times.push_back(e.at);
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(SimNetwork, ZeroByteMessageDelivered) {
  Fixture f(simple_model());
  f.net.send(1, 2, Bytes{});
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
  EXPECT_EQ(f.events[0].size, 0u);
}

// --- Adversary layer -------------------------------------------------

FaultEvent make_fault(FaultKind kind, TimePoint from, TimePoint until) {
  FaultEvent e;
  e.kind = kind;
  e.from = from;
  e.until = until;
  return e;
}

TEST(SimNetworkFaults, BufferingPartitionHoldsUntilHeal) {
  Fixture f(simple_model());
  FaultEvent cut = make_fault(FaultKind::kPartition, 0, milliseconds(10));
  cut.group = 1u << 0;  // {1} vs {2,3}
  f.net.set_fault_plan(FaultPlan{{cut}});
  f.net.send(1, 2, Bytes(10, 1));
  f.sched.run_all();
  // Held at the cut, released at the 10ms heal, then normal transit.
  ASSERT_EQ(f.events.size(), 1u);
  EXPECT_GE(f.events[0].at, milliseconds(10) + microseconds(100 + 20));
  EXPECT_EQ(f.net.counters().delayed_fault, 1u);
  EXPECT_EQ(f.net.counters().dropped_fault, 0u);
}

TEST(SimNetworkFaults, PartitionOnlyCutsCrossingLinks) {
  Fixture f(simple_model());
  FaultEvent cut = make_fault(FaultKind::kPartition, 0, seconds(10));
  cut.group = 1u << 0;  // {1} vs {2,3}
  f.net.set_fault_plan(FaultPlan{{cut}});
  f.net.send(2, 3, Bytes(10, 1));  // same side: unaffected
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
  EXPECT_EQ(f.events[0].at, microseconds(10 + 10 + 100 + 20));
  EXPECT_EQ(f.net.counters().delayed_fault, 0u);
}

TEST(SimNetworkFaults, HeldMessageDiesWithCrashedSender) {
  Fixture f(simple_model());
  FaultEvent cut = make_fault(FaultKind::kPartition, 0, milliseconds(10));
  cut.group = 1u << 0;
  f.net.set_fault_plan(FaultPlan{{cut}});
  f.net.send(1, 2, Bytes(10, 1));
  f.net.crash_at(milliseconds(5), 1);  // dies while the message is parked
  f.sched.run_all();
  EXPECT_TRUE(f.events.empty());
  EXPECT_EQ(f.net.counters().dropped_crash, 1u);
}

TEST(SimNetworkFaults, LossyPartitionDropsAndCounts) {
  Fixture f(simple_model());
  FaultEvent cut = make_fault(FaultKind::kPartitionDrop, 0, seconds(1));
  cut.group = 1u << 1;  // {2} vs {1,3}
  f.net.set_fault_plan(FaultPlan{{cut}});
  f.net.send(1, 2, Bytes(10, 1));  // crosses: dropped
  f.net.send(1, 3, Bytes(10, 1));  // same side: delivered
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
  EXPECT_EQ(f.events[0].dst, 3u);
  EXPECT_EQ(f.net.counters().dropped_fault, 1u);
  EXPECT_EQ(f.net.counters().dropped_crash, 0u);
}

TEST(SimNetworkFaults, AsymmetricDelayIsOneWay) {
  Fixture f(simple_model());
  FaultEvent slow = make_fault(FaultKind::kDelay, 0, seconds(10));
  slow.src = 1;
  slow.dst = 2;
  slow.extra = milliseconds(5);
  f.net.set_fault_plan(FaultPlan{{slow}});
  f.net.send(1, 2, Bytes(10, 1));
  f.net.send(2, 1, Bytes(10, 1));  // reverse direction: unaffected
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 2u);
  EXPECT_EQ(f.events[0].dst, 1u);  // the undelayed reverse arrives first
  EXPECT_EQ(f.events[0].at, microseconds(10 + 10 + 100 + 20));
  EXPECT_EQ(f.events[1].dst, 2u);
  EXPECT_EQ(f.events[1].at,
            milliseconds(5) + microseconds(10 + 10 + 100 + 20));
  EXPECT_EQ(f.net.counters().delayed_fault, 1u);
}

TEST(SimNetworkFaults, ProbabilisticDropAtCertainty) {
  Fixture f(simple_model());
  FaultEvent drop = make_fault(FaultKind::kDrop, 0, seconds(10));
  drop.prob = 1.0;
  f.net.set_fault_plan(FaultPlan{{drop}});
  for (int i = 0; i < 5; ++i) f.net.send(1, 2, Bytes(10, 1));
  f.sched.run_all();
  EXPECT_TRUE(f.events.empty());
  EXPECT_EQ(f.net.counters().dropped_fault, 5u);
}

TEST(SimNetworkFaults, DuplicateDeliversTwice) {
  Fixture f(simple_model());
  FaultEvent dup = make_fault(FaultKind::kDuplicate, 0, seconds(10));
  dup.prob = 1.0;
  f.net.set_fault_plan(FaultPlan{{dup}});
  f.net.send(1, 2, Bytes(10, 1));
  f.sched.run_all();
  EXPECT_EQ(f.events.size(), 2u);
  EXPECT_EQ(f.net.counters().duplicated_fault, 1u);
  EXPECT_EQ(f.net.counters().messages_delivered, 2u);
}

TEST(SimNetworkFaults, FaultWindowIsHalfOpen) {
  Fixture f(simple_model());
  // Drop window ends exactly when the message leaves the NIC
  // (10us CPU + 10us wire): at t == until the fault is inactive.
  FaultEvent drop = make_fault(FaultKind::kDrop, 0, microseconds(20));
  drop.prob = 1.0;
  f.net.set_fault_plan(FaultPlan{{drop}});
  f.net.send(1, 2, Bytes(10, 1));
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
  EXPECT_EQ(f.net.counters().dropped_fault, 0u);
}

TEST(SimNetworkFaults, ReorderLetsLaterOvertakeEarlier) {
  Fixture f(simple_model());
  FaultEvent shuffle = make_fault(FaultKind::kReorder, 0, seconds(10));
  shuffle.extra = milliseconds(50);  // >> the inter-send spacing
  f.net.set_fault_plan(FaultPlan{{shuffle}});
  // Distinct sizes identify the messages in the delivery log.
  for (std::size_t i = 1; i <= 16; ++i) f.net.send(1, 2, Bytes(i, 1));
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 16u);
  // With 50ms of random skew on microsecond spacing, FIFO delivery is
  // statistically impossible for 16 messages under any healthy RNG.
  bool reordered = false;
  for (std::size_t i = 1; i < f.events.size(); ++i) {
    if (f.events[i].size < f.events[i - 1].size) reordered = true;
  }
  EXPECT_EQ(f.net.counters().delayed_fault, 16u);
  EXPECT_TRUE(reordered);
}

TEST(SimNetworkFaults, LoopbackNeverFaulted) {
  Fixture f(simple_model());
  FaultEvent drop = make_fault(FaultKind::kDrop, 0, seconds(10));
  drop.prob = 1.0;
  f.net.set_fault_plan(FaultPlan{{drop}});
  f.net.send(2, 2, Bytes(10, 1));
  f.sched.run_all();
  ASSERT_EQ(f.events.size(), 1u);
  EXPECT_EQ(f.net.counters().dropped_fault, 0u);
}

TEST(SimNetworkFaults, EmptyPlanIsBitIdenticalToNoPlan) {
  NetModel m = simple_model();
  m.jitter = microseconds(50);
  auto run = [&](bool install_empty_plan) {
    Fixture f(m, 3, 42);
    if (install_empty_plan) f.net.set_fault_plan(FaultPlan{});
    for (int i = 0; i < 20; ++i) f.net.send(1, 2, Bytes(10, 1));
    f.sched.run_all();
    std::vector<TimePoint> times;
    for (const Event& e : f.events) times.push_back(e.at);
    return times;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(SimNetworkFaults, FaultScheduleIsDeterministicPerSeed) {
  auto run = [&](std::uint64_t seed) {
    Fixture f(simple_model(), 3, seed);
    FaultEvent drop = make_fault(FaultKind::kDrop, 0, seconds(10));
    drop.prob = 0.5;
    FaultEvent shuffle = make_fault(FaultKind::kReorder, 0, seconds(10));
    shuffle.extra = milliseconds(10);
    f.net.set_fault_plan(FaultPlan{{drop, shuffle}});
    for (int i = 0; i < 50; ++i) f.net.send(1, 2, Bytes(10, 1));
    f.sched.run_all();
    std::vector<TimePoint> times;
    for (const Event& e : f.events) times.push_back(e.at);
    return times;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(FaultPlan, TextRoundTrip) {
  FaultEvent cut = make_fault(FaultKind::kPartition, milliseconds(1),
                              milliseconds(7));
  cut.group = 0b101;
  FaultEvent drop = make_fault(FaultKind::kDrop, 0, seconds(1));
  drop.src = 2;
  drop.dst = 3;
  drop.prob = 0.123456789;
  FaultEvent slow = make_fault(FaultKind::kDelay, 5, 17);
  slow.extra = microseconds(250);
  for (const FaultEvent& e : {cut, drop, slow}) {
    const std::optional<FaultEvent> back = parse_fault_event(to_text(e));
    ASSERT_TRUE(back.has_value()) << to_text(e);
    EXPECT_EQ(back->kind, e.kind);
    EXPECT_EQ(back->from, e.from);
    EXPECT_EQ(back->until, e.until);
    EXPECT_EQ(back->src, e.src);
    EXPECT_EQ(back->dst, e.dst);
    EXPECT_EQ(back->group, e.group);
    EXPECT_EQ(back->extra, e.extra);
    EXPECT_DOUBLE_EQ(back->prob, e.prob);
  }
  EXPECT_FALSE(parse_fault_event("bogus 0 1 0 0 0 0 1").has_value());
  EXPECT_FALSE(parse_fault_event("drop 5 1 0 0 0 0 1").has_value());
  EXPECT_FALSE(parse_fault_event("").has_value());
}

TEST(FaultPlan, WholePlanParsesWithCommentsAndBlanks) {
  // The file format ibcd --fault-plan consumes: one event per line,
  // comments and blank lines allowed anywhere.
  FaultPlan plan;
  plan.events.push_back(make_fault(FaultKind::kPartition, 0,
                                   milliseconds(10)));
  plan.events.back().group = 0b001;
  plan.events.push_back(make_fault(FaultKind::kDelay, 5, seconds(1)));
  plan.events.back().src = 2;
  plan.events.back().extra = microseconds(300);

  const std::string text = "# adversary for the smoke run\n\n" +
                           to_text(plan.events[0]) + "\n" +
                           "  \t  \n"
                           "   # indented comment\n" +
                           to_text(plan.events[1]) + "\n";
  const std::optional<FaultPlan> back = parse_fault_plan(text);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(to_text(back->events[i]), to_text(plan.events[i]));
  }

  // An empty (or comment-only) file is a valid empty plan...
  ASSERT_TRUE(parse_fault_plan("").has_value());
  const std::optional<FaultPlan> comments_only =
      parse_fault_plan("# nothing\n\n");
  ASSERT_TRUE(comments_only.has_value());
  EXPECT_TRUE(comments_only->empty());
  // ...but one malformed line poisons the whole plan: ibcd must refuse
  // a half-parsed adversary rather than arm part of it.
  EXPECT_FALSE(parse_fault_plan(to_text(plan.events[0]) + "\nbogus line\n")
                   .has_value());
}

TEST(FaultPlan, LosslessAndQuietAfter) {
  FaultPlan plan;
  EXPECT_TRUE(plan.lossless());
  EXPECT_EQ(plan.quiet_after(), 0);
  plan.events.push_back(make_fault(FaultKind::kPartition, 0, 100));
  plan.events.push_back(make_fault(FaultKind::kDelay, 50, 400));
  EXPECT_TRUE(plan.lossless());
  EXPECT_EQ(plan.quiet_after(), 400);
  plan.events.push_back(make_fault(FaultKind::kDrop, 10, 20));
  EXPECT_FALSE(plan.lossless());
}

TEST(SimNetwork, DeliveredHookCanCrashDestination) {
  Fixture f(simple_model());
  f.net.set_delivered_hook([&](ProcessId, ProcessId dst, BytesView) {
    f.net.crash(dst);  // scripted scenarios crash mid-delivery
  });
  f.net.send(1, 2, Bytes(10, 1));
  f.sched.run_all();
  // The hook crashed p2 before the stack saw the message.
  EXPECT_TRUE(f.events.empty());
  EXPECT_TRUE(f.net.crashed(2));
}

}  // namespace
}  // namespace ibc::net
