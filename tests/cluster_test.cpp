// Tests for the ibc::Cluster facade: one-call wiring, deterministic
// replay, crash schedules, bounds checking, subscription lifetime, and
// the cross-host guarantee (the same scenario satisfies total order on
// the simulator and on real TCP sockets).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "runtime/cluster.hpp"

namespace ibc {
namespace {

abcast::StackConfig tcp_friendly_stack() {
  abcast::StackConfig config;  // indirect CT + RB-flood over heartbeat FD
  config.heartbeat.interval = milliseconds(20);
  config.heartbeat.initial_timeout = milliseconds(200);
  return config;
}

/// The shared scenario of the cross-host test: every process broadcasts
/// `rounds` messages, interleaved.
void drive_scenario(Cluster& cluster, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    for (ProcessId p = 1; p <= cluster.n(); ++p) {
      cluster.node(p).abroadcast("m-" + std::to_string(p) + "-" +
                                 std::to_string(i));
    }
    cluster.run_for(milliseconds(5));
  }
  cluster.run_until_quiesced(/*idle=*/milliseconds(400),
                             /*limit=*/seconds(30));
}

TEST(Cluster, OneCallWiringDeliversInTotalOrder) {
  SCOPED_TRACE(test::repro_hint(7));
  Cluster cluster(ClusterOptions{}.with_n(3).with_seed(7));
  const MessageId a = cluster.node(1).abroadcast("alpha");
  const MessageId b = cluster.node(2).abroadcast("bravo");
  cluster.run_until_quiesced();

  EXPECT_TRUE(a != MessageId{});
  for (ProcessId p = 1; p <= 3; ++p) {
    EXPECT_TRUE(cluster.delivered(p, a)) << "p" << p;
    EXPECT_TRUE(cluster.delivered(p, b)) << "p" << p;
    EXPECT_EQ(cluster.log(p).size(), 2u);
  }
  EXPECT_TRUE(cluster.prefix_consistent());

  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.total_deliveries, 6u);
  EXPECT_TRUE(stats.prefix_consistent);
  EXPECT_GT(stats.consensus_rounds, 0u);
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_GT(stats.wire_bytes_sent, 0u);
}

TEST(Cluster, SameConfigAndSeedReplaysBitIdenticalLogs) {
  SCOPED_TRACE(test::repro_hint(1234));
  const auto run_once = [] {
    Cluster cluster(ClusterOptions{}
                        .with_n(3)
                        .with_seed(1234)
                        .with_model(net::NetModel::setup1()));
    for (int i = 0; i < 5; ++i) {
      cluster.node(1 + i % 3).abroadcast("payload-" + std::to_string(i));
      cluster.run_for(milliseconds(2));
    }
    cluster.run_for(seconds(2));
    std::vector<std::vector<Cluster::Delivery>> logs;
    for (ProcessId p = 1; p <= 3; ++p) logs.push_back(cluster.log(p));
    return logs;
  };

  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t p = 0; p < first.size(); ++p) {
    ASSERT_EQ(first[p].size(), second[p].size()) << "p" << p + 1;
    EXPECT_GT(first[p].size(), 0u) << "p" << p + 1;
    for (std::size_t i = 0; i < first[p].size(); ++i) {
      EXPECT_EQ(first[p][i].id, second[p][i].id);
      EXPECT_EQ(first[p][i].payload, second[p][i].payload);
      EXPECT_EQ(first[p][i].at, second[p][i].at) << "delivery times drift";
    }
  }
}

/// What a simulated run did, pinned by the schedule regression tests:
/// the scheduler's event count, the accepted sends, and an FNV-1a digest
/// of each process's delivery sequence (id, time, payload bytes).
struct ScheduleFingerprint {
  std::uint64_t events = 0;
  std::uint64_t messages_sent = 0;
  std::vector<std::uint64_t> digests;  // [0] = p1
};

ScheduleFingerprint fingerprint(Cluster& cluster) {
  ScheduleFingerprint out;
  out.events =
      cluster.host().sim_network()->scheduler().events_executed();
  out.messages_sent = cluster.stats().messages_sent;
  for (ProcessId p = 1; p <= cluster.n(); ++p) {
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t word) {
      for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    for (const Cluster::Delivery& d : cluster.log(p)) {
      mix(d.id.origin);
      mix(d.id.seq);
      mix(static_cast<std::uint64_t>(d.at));
      for (const std::uint8_t byte : d.payload.view()) mix(byte);
    }
    out.digests.push_back(h);
  }
  return out;
}

void expect_fingerprint(const ScheduleFingerprint& got,
                        const ScheduleFingerprint& pinned) {
  EXPECT_EQ(got.events, pinned.events);
  EXPECT_EQ(got.messages_sent, pinned.messages_sent);
  ASSERT_EQ(got.digests.size(), pinned.digests.size());
  for (std::size_t i = 0; i < got.digests.size(); ++i) {
    EXPECT_EQ(got.digests[i], pinned.digests[i]) << "p" << i + 1;
  }
}

// The two runs below pin the simulated schedule itself: which events ran,
// in which order, and what every process delivered when. A change that
// only makes the simulator or the protocol cheaper must leave them
// untouched. A change that deliberately alters the simulated schedule
// (a new cost, a new message, a different timer) updates the constants
// and says so in CHANGES.md.

TEST(ScheduleRegression, PaperStackOnSetup1) {
  SCOPED_TRACE(test::repro_hint(1));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(1)
                      .with_model(net::NetModel::setup1()));
  for (int i = 0; i < 300; ++i) {
    cluster.node(1 + i % 3).abroadcast("pin-" + std::to_string(i));
    cluster.run_for(microseconds(300));
  }
  cluster.run_until_quiesced(milliseconds(400), seconds(30));
  ASSERT_EQ(cluster.log(1).size(), 300u);
  EXPECT_TRUE(cluster.prefix_consistent());
  expect_fingerprint(fingerprint(cluster),
                     {9061,
                      2593,
                      {113199062923941393ull, 85394363878580791ull,
                       5546679043447006390ull}});
}

TEST(ScheduleRegression, RingWithRecoveryRestartsCoordinatorN5) {
  SCOPED_TRACE(test::repro_hint(2));
  abcast::StackConfig stack;
  stack.rb = abcast::RbKind::kRing;
  stack.pipeline_depth = 4;
  stack.batch.max_msgs = 8;
  stack.batch.max_delay = milliseconds(2);
  Cluster cluster(ClusterOptions{}
                      .with_n(5)
                      .with_seed(2)
                      .with_model(net::NetModel::setup1())
                      .with_stack(stack)
                      .with_recovery()
                      .with_crash(milliseconds(100), 2)
                      .with_restart(milliseconds(300), 2));
  for (int i = 0; i < 400; ++i) {
    const ProcessId p = 1 + static_cast<ProcessId>(i % 5);
    if (!cluster.host().crashed(p)) {
      cluster.node(p).abroadcast("pin-" + std::to_string(i));
    }
    cluster.run_for(milliseconds(1));
  }
  cluster.run_until_quiesced(milliseconds(800), seconds(30));
  EXPECT_TRUE(cluster.prefix_consistent());
  EXPECT_EQ(cluster.log(2).size(), cluster.log(1).size());
  EXPECT_GT(cluster.stats().catchup_ids_fetched, 0u);
  expect_fingerprint(fingerprint(cluster),
                     {44171,
                      11605,
                      {1981124107812254740ull, 3658799635285178573ull,
                       10106646204265928138ull, 4660357054222829062ull,
                       15447904814375409538ull}});
}

TEST(Cluster, CrashScheduleFromOptionsFires) {
  SCOPED_TRACE(test::repro_hint(21));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(21)
                      .with_crash(milliseconds(50), 3));
  EXPECT_FALSE(cluster.host().crashed(3));
  cluster.run_for(milliseconds(100));
  EXPECT_TRUE(cluster.host().crashed(3));
  EXPECT_EQ(cluster.host().alive_count(), 2u);

  // The survivors still order traffic; the dead process logs nothing new.
  const std::size_t dead_log = cluster.log(3).size();
  const MessageId m = cluster.node(1).abroadcast("after the crash");
  // idle > the heartbeat FD timeout: ordering stalls until the
  // survivors suspect p3.
  cluster.run_until_quiesced(/*idle=*/milliseconds(800),
                             /*limit=*/seconds(30));
  EXPECT_TRUE(cluster.delivered(1, m));
  EXPECT_TRUE(cluster.delivered(2, m));
  EXPECT_EQ(cluster.log(3).size(), dead_log);
  EXPECT_TRUE(cluster.prefix_consistent());

  // Broadcasting from a crashed process is a silent no-op with an
  // invalid id, not UB.
  EXPECT_EQ(cluster.node(3).abroadcast("from the grave"), MessageId{});
}

using ClusterDeathTest = ::testing::Test;

TEST(ClusterDeathTest, NodeZeroAndOutOfRangeAbort) {
  Cluster cluster(ClusterOptions{}.with_n(3).with_seed(1));
  // p == 0 is the historical dummy-slot trap: it must fail loudly.
  EXPECT_DEATH(cluster.node(0), "1-based");
  EXPECT_DEATH(cluster.node(4), "1-based");
}

TEST(Subscription, UnsubscribeStopsCallbacks) {
  Cluster cluster(ClusterOptions{}.with_n(3).with_seed(5));
  int raii_count = 0;
  int token_count = 0;

  core::AbcastService& service = cluster.node(1).abcast();
  core::Subscription handle = service.subscribe_scoped(
      [&raii_count](const MessageId&, BytesView) { ++raii_count; });
  const auto token = service.subscribe(
      [&token_count](const MessageId&, BytesView) { ++token_count; });
  EXPECT_TRUE(handle.active());

  cluster.node(1).abroadcast("one");
  cluster.run_until_quiesced();
  EXPECT_EQ(raii_count, 1);
  EXPECT_EQ(token_count, 1);

  handle.reset();
  EXPECT_FALSE(handle.active());
  service.unsubscribe(token);
  cluster.node(1).abroadcast("two");
  cluster.run_until_quiesced();
  EXPECT_EQ(raii_count, 1) << "RAII subscription fired after reset";
  EXPECT_EQ(token_count, 1) << "token subscription fired after unsubscribe";
}

TEST(Subscription, UnsubscribeFromInsideDeliveryIsSafe) {
  Cluster cluster(ClusterOptions{}.with_n(3).with_seed(6));
  core::AbcastService& service = cluster.node(2).abcast();
  int fired = 0;
  core::Subscription handle;
  handle = service.subscribe_scoped(
      [&fired, &handle](const MessageId&, BytesView) {
        ++fired;
        handle.reset();  // reentrant: tombstoned, compacted after fire
      });
  int other = 0;
  service.subscribe([&other](const MessageId&, BytesView) { ++other; });

  cluster.node(2).abroadcast("a");
  cluster.node(2).abroadcast("b");
  cluster.run_until_quiesced();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(other, 2) << "later subscriber skipped after reentrant reset";
}

TEST(Subscription, HandleOutlivingServiceIsHarmless) {
  core::Subscription survivor;
  {
    Cluster cluster(ClusterOptions{}.with_n(3).with_seed(8));
    survivor = cluster.node(1).abcast().subscribe_scoped(
        [](const MessageId&, BytesView) {});
    EXPECT_TRUE(survivor.active());
  }
  EXPECT_FALSE(survivor.active());
  survivor.reset();  // must not touch the dead service
}

TEST(Cluster, ReentrantBroadcastFromDeliveryCallbackWorksOnBothHosts) {
  SCOPED_TRACE(test::repro_hint(13));
  // A request/response pattern: replying from inside on_deliver must not
  // deadlock the TCP reactor (run_on detects its own thread) and must
  // behave identically on the simulator.
  for (const runtime::HostKind host :
       {runtime::HostKind::kSim, runtime::HostKind::kTcp}) {
    Cluster cluster(ClusterOptions{}
                        .with_n(3)
                        .with_seed(13)
                        .with_stack(tcp_friendly_stack())
                        .with_host(host));
    std::atomic<bool> replied{false};
    cluster.node(2).on_deliver(
        [&cluster, &replied](const MessageId& id, BytesView) {
          if (id.origin == 1 && !replied.exchange(true))
            cluster.node(2).abroadcast("reply from p2");
        });
    const MessageId request = cluster.node(1).abroadcast("request");
    cluster.run_until_quiesced(/*idle=*/milliseconds(400),
                               /*limit=*/seconds(30));
    cluster.shutdown();

    const char* label =
        host == runtime::HostKind::kSim ? "sim" : "tcp";
    for (ProcessId p = 1; p <= 3; ++p) {
      EXPECT_EQ(cluster.log(p).size(), 2u) << label << " host, p" << p;
      EXPECT_TRUE(cluster.delivered(p, request)) << label << " host";
    }
    EXPECT_TRUE(cluster.prefix_consistent()) << label << " host";
  }
}

// ------------------------------------------------ pipelined ordering (W>1)

/// Single-sender paced scenario used by the window sweep: p1 abroadcasts
/// `count` messages, one per `gap`, so consecutive ids hit the ordering
/// core while earlier instances are still in flight (fast_test has a 1 ms
/// propagation and ~3 ms consensus latency).
std::vector<MessageId> drive_paced_sender(Cluster& cluster, int count,
                                          Duration gap) {
  std::vector<MessageId> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(cluster.node(1).abroadcast("w-" + std::to_string(i)));
    cluster.run_for(gap);
  }
  cluster.run_until_quiesced(/*idle=*/milliseconds(400),
                             /*limit=*/seconds(30));
  return ids;
}

TEST(Pipelined, SameSeedSameTotalOrderForEveryWindow) {
  SCOPED_TRACE(test::repro_hint(99));
  // The window changes how ids are grouped into instances, not the
  // delivered sequence: decisions still apply in instance order, and with
  // a deterministic (zero-jitter) network the same seed must yield the
  // identical A-delivery order at W = 1, 2, 4 and 8.
  std::vector<MessageId> baseline;
  for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
    abcast::StackConfig stack;
    stack.pipeline_depth = w;
    Cluster cluster(ClusterOptions{}
                        .with_n(3)
                        .with_seed(99)
                        .with_stack(stack)
                        .with_model(net::NetModel::fast_test()));
    const std::vector<MessageId> sent =
        drive_paced_sender(cluster, 12, milliseconds(1));
    ASSERT_TRUE(cluster.prefix_consistent()) << "W=" << w;
    const ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.total_deliveries, 12u * 3u) << "W=" << w;
    EXPECT_LE(stats.pipeline_high_water, w) << "W=" << w;
    if (w >= 4) {
      // The sweep is only meaningful if the window actually pipelines.
      EXPECT_GT(stats.pipeline_high_water, 1u) << "W=" << w;
    }
    std::vector<MessageId> order;
    for (const Cluster::Delivery& d : cluster.log(1)) order.push_back(d.id);
    EXPECT_EQ(order.size(), sent.size()) << "W=" << w;
    if (w == 1) {
      baseline = order;
    } else {
      EXPECT_EQ(order, baseline)
          << "window size changed the total order (W=" << w << ")";
    }
  }
}

TEST(Pipelined, CrashMidWindowKeepsTotalOrderAndDelivers) {
  SCOPED_TRACE(test::repro_hint(23));
  // Fill a 4-deep window, then kill p2 — the round-1 coordinator of
  // every CT instance — while those instances are in flight. The
  // survivors must suspect it, finish every open instance, and keep the
  // delivery logs prefix-consistent; everything the survivors broadcast
  // is delivered by both.
  abcast::StackConfig stack = tcp_friendly_stack();
  stack.heartbeat.interval = milliseconds(10);
  stack.heartbeat.initial_timeout = milliseconds(100);
  stack.pipeline_depth = 4;
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(23)
                      .with_stack(stack)
                      .with_model(net::NetModel::fast_test()));
  std::vector<MessageId> survivor_msgs;
  for (int i = 0; i < 4; ++i) {
    survivor_msgs.push_back(
        cluster.node(1).abroadcast("pre-" + std::to_string(i)));
    cluster.node(2).abroadcast("doomed-" + std::to_string(i));
    survivor_msgs.push_back(
        cluster.node(3).abroadcast("pre3-" + std::to_string(i)));
    cluster.run_for(milliseconds(1));
  }
  // Mid-window: instances are open but undecided.
  cluster.crash(2);
  survivor_msgs.push_back(cluster.node(1).abroadcast("post-crash"));
  cluster.run_until_quiesced(/*idle=*/milliseconds(800),
                             /*limit=*/seconds(30));

  for (const MessageId& id : survivor_msgs) {
    EXPECT_TRUE(cluster.delivered(1, id)) << id.origin << ":" << id.seq;
    EXPECT_TRUE(cluster.delivered(3, id)) << id.origin << ":" << id.seq;
  }
  EXPECT_TRUE(cluster.prefix_consistent());
  const ClusterStats stats = cluster.stats();
  EXPECT_GT(stats.instances_completed, 0u);
  EXPECT_GT(stats.pipeline_high_water, 1u);
  // p1 and p3 deliver the same sequence; exactly-once each.
  const auto log1 = cluster.log(1);
  const auto log3 = cluster.log(3);
  EXPECT_EQ(log1.size(), log3.size());
}

TEST(BoundedState, DeliveredSetHoldsOneRunPerOrigin) {
  // The ordering core's dedup set stores delivered ids as per-origin
  // runs. Every origin's ids are consecutive, so once a failure-free run
  // quiesces the set holds one run per origin that broadcast, however
  // many messages it delivered: the paper stack (W=1, B=1) and a
  // pipelined, batched one (W=4, B=8), 20k messages each.
  constexpr int kMessages = 20000;
  constexpr std::uint32_t kN = 3;
  for (const auto& [window, batch] :
       {std::pair{1u, 1u}, std::pair{4u, 8u}}) {
    SCOPED_TRACE(test::repro_hint(31));
    abcast::StackConfig stack;
    stack.pipeline_depth = window;
    stack.batch.max_msgs = batch;
    stack.batch.max_delay = milliseconds(2);
    Cluster cluster(ClusterOptions{}
                        .with_n(kN)
                        .with_seed(31)
                        .with_stack(stack)
                        .without_delivery_log());
    for (int i = 0; i < kMessages; ++i) {
      cluster.node(1 + static_cast<ProcessId>(i) % kN).abroadcast("x");
      cluster.run_for(microseconds(250));
    }
    cluster.run_until_quiesced(/*idle=*/milliseconds(400),
                               /*limit=*/seconds(30));
    for (ProcessId p = 1; p <= kN; ++p) {
      const core::OrderingCore* ordering = cluster.node(p).stack().ordering();
      ASSERT_NE(ordering, nullptr);
      EXPECT_EQ(ordering->msgs_delivered(),
                static_cast<std::uint64_t>(kMessages))
          << "p" << p << " W=" << window << " B=" << batch;
      EXPECT_EQ(ordering->delivered_set().size(), kN)
          << "p" << p << " W=" << window << " B=" << batch;
      if (batch > 1) {
        EXPECT_LT(ordering->delivered_count(), ordering->msgs_delivered())
            << "p" << p << ": no batch formed";
      }
    }
  }
}

/// Per-process A-delivery times of one abroadcast on a 3-process
/// `fast_test` cluster, whose model charges no CPU of its own: any
/// simulated CPU on the path is the rcv check's.
std::vector<TimePoint> single_delivery_times(abcast::StackConfig stack,
                                             Duration rcv_cost) {
  stack.rcv_check_cost_per_id = rcv_cost;
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(41)
                      .with_model(net::NetModel::fast_test())
                      .with_stack(stack));
  cluster.node(1).abroadcast("m");
  cluster.run_until_quiesced();
  std::vector<TimePoint> at;
  for (ProcessId p = 1; p <= 3; ++p) {
    EXPECT_EQ(cluster.log(p).size(), 1u) << "p" << p;
    at.push_back(cluster.log(p).empty() ? 0 : cluster.log(p)[0].at);
  }
  return at;
}

TEST(RcvCheckCost, DelaysIndirectCtAndMrDeliveries) {
  // The modeled per-id cost of the rcv lookups is the paper's account of
  // indirect consensus's overhead (§4.3, Figs. 3-4). Every process
  // evaluates rcv before it acks (CT) or echoes (MR), and no decision
  // forms without such replies, so every delivery moves by >= the cost.
  SCOPED_TRACE(test::repro_hint(41));
  constexpr Duration kCost = milliseconds(50);
  for (const abcast::ConsensusAlgo algo :
       {abcast::ConsensusAlgo::kCt, abcast::ConsensusAlgo::kMr}) {
    abcast::StackConfig stack;
    stack.algo = algo;
    const std::vector<TimePoint> free = single_delivery_times(stack, 0);
    const std::vector<TimePoint> charged =
        single_delivery_times(stack, kCost);
    for (std::size_t i = 0; i < free.size(); ++i) {
      EXPECT_GE(charged[i], free[i] + kCost)
          << abcast::describe(stack) << " p" << i + 1;
    }
  }
}

TEST(RcvCheckCost, PlainConsensusOnIdsIgnoresIt) {
  SCOPED_TRACE(test::repro_hint(41));
  abcast::StackConfig stack;
  stack.variant = abcast::Variant::kIdsPlain;
  stack.rb = abcast::RbKind::kUniform;
  EXPECT_EQ(single_delivery_times(stack, milliseconds(50)),
            single_delivery_times(stack, 0));
}

TEST(Cluster, CrossHostSameScenarioSatisfiesTotalOrder) {
  SCOPED_TRACE(test::repro_hint(42));
  constexpr int kRounds = 5;
  constexpr std::uint32_t kN = 3;
  const std::size_t expected = kN * kRounds;

  for (const runtime::HostKind host :
       {runtime::HostKind::kSim, runtime::HostKind::kTcp}) {
    Cluster cluster(ClusterOptions{}
                        .with_n(kN)
                        .with_seed(42)
                        .with_stack(tcp_friendly_stack())
                        .with_host(host));
    EXPECT_EQ(cluster.host_kind(), host);
    drive_scenario(cluster, kRounds);
    cluster.shutdown();

    const char* label =
        host == runtime::HostKind::kSim ? "sim" : "tcp";
    for (ProcessId p = 1; p <= kN; ++p) {
      EXPECT_EQ(cluster.log(p).size(), expected)
          << label << " host, p" << p;
    }
    EXPECT_TRUE(cluster.prefix_consistent()) << label << " host";
    const ClusterStats stats = cluster.stats();
    EXPECT_GT(stats.consensus_rounds, 0u) << label << " host";
    EXPECT_GT(stats.wire_bytes_sent, 0u) << label << " host";
  }
}

}  // namespace
}  // namespace ibc
