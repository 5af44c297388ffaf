// Unit tests for the CT and MR consensus engines, driven directly
// (without atomic broadcast on top).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "consensus/ct.hpp"
#include "consensus/mr.hpp"
#include "fd/perfect_fd.hpp"
#include "harness.hpp"
#include "runtime/cluster.hpp"
#include "runtime/sim_cluster.hpp"

namespace ibc::consensus {
namespace {

enum class Algo { kCt, kMr };

struct Fixture {
  explicit Fixture(Algo algo, std::uint32_t n = 3, CtConfig ct_cfg = {},
                   MrConfig mr_cfg = {})
      : Fixture(algo, n, [ct_cfg](ProcessId) { return ct_cfg; }, mr_cfg) {}

  /// `ct_cfg_of(p)` is process p's CT configuration. `floors[p]`, if
  /// present, is process p's participation floor (docs/PROTOCOL.md D6),
  /// set before the stacks start.
  Fixture(Algo algo, std::uint32_t n,
          const std::function<CtConfig(ProcessId)>& ct_cfg_of,
          MrConfig mr_cfg = {},
          const std::map<ProcessId, InstanceId>& floors = {})
      : cluster(n, net::NetModel::fast_test(), 41), decisions(n + 1) {
    for (ProcessId p = 1; p <= n; ++p) {
      stacks.push_back(std::make_unique<runtime::Stack>(cluster.env(p)));
      fds.push_back(std::make_unique<fd::PerfectFd>(
          cluster.env(p), cluster.network(), milliseconds(2)));
      if (algo == Algo::kCt) {
        engines.push_back(std::make_unique<CtConsensus>(
            *stacks.back(), runtime::kLayerConsensus, *fds.back(),
            ct_cfg_of(p)));
      } else {
        engines.push_back(std::make_unique<MrConsensus>(
            *stacks.back(), runtime::kLayerConsensus, *fds.back(), mr_cfg));
      }
      engines.back()->subscribe_decide(
          [this, p](InstanceId k, BytesView value) {
            decisions[p][k] = to_bytes(value);
          });
      if (const auto it = floors.find(p); it != floors.end())
        engines.back()->set_participation_floor(it->second);
    }
    for (auto& s : stacks) s->start();
  }

  Consensus& engine(ProcessId p) { return *engines[p - 1]; }
  CtConsensus& ct(ProcessId p) {
    return dynamic_cast<CtConsensus&>(*engines[p - 1]);
  }

  std::optional<Bytes> decision(ProcessId p, InstanceId k) const {
    const auto it = decisions[p].find(k);
    if (it == decisions[p].end()) return std::nullopt;
    return it->second;
  }

  /// All alive processes decided `k` on the same value; returns it.
  std::optional<Bytes> agreed(InstanceId k) {
    std::optional<Bytes> value;
    for (ProcessId p = 1; p < decisions.size(); ++p) {
      if (cluster.network().crashed(p)) continue;
      const auto d = decision(p, k);
      if (!d) return std::nullopt;
      if (!value) value = d;
      if (!bytes_equal(*value, *d)) return std::nullopt;
    }
    return value;
  }

  runtime::SimCluster cluster;
  std::vector<std::unique_ptr<runtime::Stack>> stacks;
  std::vector<std::unique_ptr<fd::PerfectFd>> fds;
  std::vector<std::unique_ptr<Consensus>> engines;
  std::vector<std::map<InstanceId, Bytes>> decisions;  // [p][k]
};

class BothAlgos
    : public ::testing::TestWithParam<std::tuple<Algo, std::uint32_t>> {};

TEST_P(BothAlgos, AgreementAndValidityFailureFree) {
  const auto [algo, n] = GetParam();
  Fixture f(algo, n);
  for (ProcessId p = 1; p <= n; ++p)
    f.engine(p).propose(1, bytes_of("v" + std::to_string(p)));
  f.cluster.run_for(seconds(2));

  const auto value = f.agreed(1);
  ASSERT_TRUE(value.has_value());
  // Uniform validity: the decision is someone's proposal.
  bool is_proposal = false;
  for (ProcessId p = 1; p <= n; ++p)
    if (bytes_equal(*value, bytes_of("v" + std::to_string(p))))
      is_proposal = true;
  EXPECT_TRUE(is_proposal);
}

TEST_P(BothAlgos, MultipleIndependentInstances) {
  const auto [algo, n] = GetParam();
  Fixture f(algo, n);
  for (InstanceId k = 1; k <= 5; ++k)
    for (ProcessId p = 1; p <= n; ++p)
      f.engine(p).propose(k, bytes_of("k" + std::to_string(k) + "p" +
                                      std::to_string(p)));
  f.cluster.run_for(seconds(3));
  for (InstanceId k = 1; k <= 5; ++k)
    EXPECT_TRUE(f.agreed(k).has_value()) << "instance " << k;
}

TEST_P(BothAlgos, TerminatesWhenRoundOneCoordinatorIsDead) {
  const auto [algo, n] = GetParam();
  if (n < 3) GTEST_SKIP();
  Fixture f(algo, n);
  // Round-1 coordinator is (1 mod n) + 1 = 2; it crashes before anything
  // happens, so the first round must be abandoned via the detector.
  f.cluster.network().crash(2);
  for (ProcessId p = 1; p <= n; ++p)
    if (p != 2) f.engine(p).propose(1, bytes_of("v" + std::to_string(p)));
  f.cluster.run_for(seconds(3));
  EXPECT_TRUE(f.agreed(1).has_value());
}

TEST_P(BothAlgos, NonProposerLearnsDecisionAndLateProposeIsNoop) {
  const auto [algo, n] = GetParam();
  if (n < 3) GTEST_SKIP() << "needs a quorum that excludes p1";
  Fixture f(algo, n);
  // Everyone but p1 proposes; a quorum exists without p1, so the others
  // decide. The DECIDE flood reaches p1 even though it never proposed
  // (Algorithm 2/3's "when R-deliver(decide)" clause is unconditional).
  for (ProcessId p = 2; p <= n; ++p)
    f.engine(p).propose(1, bytes_of("early"));
  f.cluster.run_for(seconds(2));
  {
    const auto d = f.decision(1, 1);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(bytes_equal(*d, bytes_of("early")));
  }
  // Proposing after the fact must neither crash nor change the outcome.
  f.engine(1).propose(1, bytes_of("late"));
  f.cluster.run_for(seconds(2));
  const auto d = f.decision(1, 1);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(bytes_equal(*d, bytes_of("early")));
  EXPECT_TRUE(f.agreed(1).has_value());
}

class ParticipationFloor : public ::testing::TestWithParam<Algo> {};

TEST_P(ParticipationFloor, AbstainingRoundOneCoordinatorIsSkippedOnlyBelowIt) {
  // p2, the round-1 coordinator, starts as a restarted incarnation with
  // floor 1: it must not vote in instance 1 and announces so at start.
  // p1 and p3 treat the announcement like a suspicion of p2 for
  // instance 1 and decide it without p2, which learns the decision from
  // the DECIDE flood. Instance 2 lies above the floor: p2 coordinates
  // it normally, so its proposal wins a failure-free round 1. Without
  // the announcement (or with peers that do not record it), p1 and p3
  // wait on the alive p2 in instance 1 forever.
  Fixture f(GetParam(), 3, [](ProcessId) { return CtConfig{}; }, MrConfig{},
            {{2, 1}});
  f.engine(1).propose(1, bytes_of("k1p1"));
  f.engine(3).propose(1, bytes_of("k1p3"));
  for (ProcessId p = 1; p <= 3; ++p)
    f.engine(p).propose(2, bytes_of("k2p" + std::to_string(p)));
  f.cluster.run_for(seconds(2));

  const auto first = f.agreed(1);
  ASSERT_TRUE(first.has_value()) << "instance 1 wedged on p2";
  EXPECT_TRUE(bytes_equal(*first, bytes_of("k1p1")) ||
              bytes_equal(*first, bytes_of("k1p3")));
  const auto second = f.agreed(2);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(bytes_equal(*second, bytes_of("k2p2")))
      << "p2 did not coordinate instance 2";
}

INSTANTIATE_TEST_SUITE_P(Algos, ParticipationFloor,
                         ::testing::Values(Algo::kCt, Algo::kMr));

INSTANTIATE_TEST_SUITE_P(
    Sweep, BothAlgos,
    ::testing::Combine(::testing::Values(Algo::kCt, Algo::kMr),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u)));

// -------------------------------------------------------- CT specifics

TEST(CtConsensus, SingleProcessDecidesAlone) {
  Fixture f(Algo::kCt, 1);
  f.engine(1).propose(1, bytes_of("solo"));
  f.cluster.run_for(seconds(1));
  const auto d = f.decision(1, 1);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(bytes_equal(*d, bytes_of("solo")));
}

TEST(CtConsensus, SurvivesMaximalCrashes) {
  // f = ⌈(n+1)/2⌉ - 1 crashes leave exactly a majority: still live.
  constexpr std::uint32_t n = 5;
  Fixture f(Algo::kCt, n);
  for (ProcessId p = 1; p <= n; ++p)
    f.engine(p).propose(1, bytes_of("v" + std::to_string(p)));
  f.cluster.crash_at(milliseconds(1), 4);
  f.cluster.crash_at(milliseconds(1), 5);
  f.cluster.run_for(seconds(5));
  EXPECT_TRUE(f.agreed(1).has_value());
}

TEST(CtConsensus, BlocksBeyondMajorityCrashes) {
  // Crashing a majority removes liveness (safety intact): no decision.
  constexpr std::uint32_t n = 5;
  Fixture f(Algo::kCt, n);
  for (ProcessId p = 1; p <= n; ++p)
    f.engine(p).propose(1, bytes_of("v"));
  f.cluster.crash_at(milliseconds(1), 3);
  f.cluster.crash_at(milliseconds(1), 4);
  f.cluster.crash_at(milliseconds(1), 5);
  f.cluster.run_for(seconds(5));
  EXPECT_FALSE(f.decision(1, 1).has_value());
  EXPECT_FALSE(f.decision(2, 1).has_value());
}

TEST(CtConsensus, RejectedProposalsForceNewRounds) {
  // accept_proposal = false everywhere: every coordinator gets nacked and
  // no decision is ever taken (this is the hook Algorithm 2 plugs rcv
  // into; the full indirect behaviour is tested in core_test).
  CtConfig cfg;
  cfg.accept_proposal = [](InstanceId, BytesView) { return false; };
  Fixture f(Algo::kCt, 3, cfg);
  for (ProcessId p = 1; p <= 3; ++p)
    f.engine(p).propose(1, bytes_of("x"));
  f.cluster.run_for(seconds(1));
  EXPECT_FALSE(f.decision(1, 1).has_value());
  auto* ct = dynamic_cast<CtConsensus*>(&f.engine(1));
  ASSERT_NE(ct, nullptr);
  EXPECT_GT(ct->round_of(1), 3u);           // rounds keep cycling
  EXPECT_GT(ct->stats().proposals_refused, 0u);
}

TEST(CtConsensus, DecideFloodsPastCrashedCoordinator) {
  // The coordinator decides, sends DECIDE and crashes; the relay-on-
  // first-receipt flood must still bring every correct process to a
  // decision even if some direct DECIDE copies died on the NIC.
  net::NetModel slow;
  slow.send_overhead = microseconds(10);
  slow.recv_overhead = microseconds(10);
  slow.cpu_per_byte_send = 0;
  slow.cpu_per_byte_recv = 0;
  slow.bandwidth_bytes_per_sec = 1e6;
  slow.propagation = microseconds(100);
  slow.jitter = 0;
  slow.self_delivery_cost = microseconds(1);
  slow.header_bytes = 0;

  runtime::SimCluster cluster(3, slow, 43);
  std::vector<std::unique_ptr<runtime::Stack>> stacks;
  std::vector<std::unique_ptr<fd::PerfectFd>> fds;
  std::vector<std::unique_ptr<CtConsensus>> engines;
  std::vector<std::optional<Bytes>> decided(4);
  for (ProcessId p = 1; p <= 3; ++p) {
    stacks.push_back(std::make_unique<runtime::Stack>(cluster.env(p)));
    fds.push_back(std::make_unique<fd::PerfectFd>(
        cluster.env(p), cluster.network(), milliseconds(1)));
    engines.push_back(std::make_unique<CtConsensus>(
        *stacks.back(), runtime::kLayerConsensus, *fds.back(), CtConfig{}));
    engines.back()->subscribe_decide(
        [&decided, p](InstanceId, BytesView v) { decided[p] = to_bytes(v); });
  }
  for (auto& s : stacks) s->start();

  // p2 (the coordinator) crashes the moment its own decision fires.
  engines[1]->subscribe_decide([&cluster](InstanceId, BytesView) {
    cluster.network().crash(2);
  });
  for (ProcessId p = 1; p <= 3; ++p)
    engines[p - 1]->propose(1, bytes_of("v" + std::to_string(p)));
  cluster.run_for(seconds(3));

  ASSERT_TRUE(decided[1].has_value());
  ASSERT_TRUE(decided[3].has_value());
  EXPECT_TRUE(bytes_equal(*decided[1], *decided[3]));
}

// ------------------------------------- CT: ackers wait for the decision
//
// A non-coordinator that acked round r stays in r until the DECIDE, a
// kAbort from the coordinator, or the coordinator's suspicion or
// abstention (docs/PROTOCOL.md D8). Failure-free instances therefore run
// one round everywhere, and each exit carries liveness in its own case.

TEST(CtAckedWait, FailureFreeInstancesRunOneRoundEverywhere) {
  for (const std::uint32_t n : {3u, 5u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Fixture f(Algo::kCt, n);
    constexpr InstanceId kInstances = 5;
    for (InstanceId k = 1; k <= kInstances; ++k)
      for (ProcessId p = 1; p <= n; ++p)
        f.engine(p).propose(k, bytes_of("k" + std::to_string(k) + "p" +
                                        std::to_string(p)));
    f.cluster.run_for(seconds(2));
    for (InstanceId k = 1; k <= kInstances; ++k) {
      EXPECT_TRUE(f.agreed(k).has_value()) << "instance " << k;
      for (ProcessId p = 1; p <= n; ++p)
        EXPECT_EQ(f.ct(p).round_of(k), 1u) << "p" << p << " instance " << k;
    }
    for (ProcessId p = 1; p <= n; ++p)
      EXPECT_EQ(f.engine(p).stats().rounds_started, kInstances) << "p" << p;
  }
}

TEST(CtAckedWait, FailureFreeClusterStartsOneRoundPerProcessAndInstance) {
  for (const std::uint32_t n : {3u, 5u}) {
    SCOPED_TRACE(test::repro_hint(5));
    Cluster cluster(ClusterOptions{}.with_n(n).with_seed(5));
    for (int i = 0; i < 20; ++i) {
      cluster.node(1 + static_cast<ProcessId>(i) % n)
          .abroadcast("m" + std::to_string(i));
      cluster.run_for(milliseconds(3));
    }
    cluster.run_until_quiesced();
    EXPECT_TRUE(cluster.prefix_consistent());
    const ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.total_deliveries, 20u * n);
    EXPECT_GT(stats.instances_completed, 0u);
    EXPECT_EQ(stats.consensus_rounds, n * stats.instances_completed)
        << "n=" << n;
  }
}

TEST(CtAckedWait, NackBeforeAckMajorityAbortsTheRound) {
  // n=5, round-1 coordinator p2. p4 and p5 refuse the first proposal
  // they see, and their links to p2 are faster than p1's and p3's, so
  // p2 collects a nack before the ack majority and abandons round 1.
  // p1 and p3 already acked; only the kAbort moves them to round 2,
  // whose coordinator is p3 — without it p3 never leaves round 1 and
  // p2, p4 and p5 wait for its proposal forever (nobody is suspected).
  constexpr std::uint32_t n = 5;
  Fixture f(Algo::kCt, n, [](ProcessId p) {
    CtConfig cfg;
    if (p >= 4) {
      cfg.accept_proposal = [refused = false](InstanceId,
                                              BytesView) mutable {
        return std::exchange(refused, true);
      };
    }
    return cfg;
  });
  net::FaultPlan slow_acks;
  for (const ProcessId slow : {1u, 3u}) {
    net::FaultEvent delay;
    delay.kind = net::FaultKind::kDelay;
    delay.until = seconds(10);
    delay.src = slow;
    delay.dst = 2;
    delay.extra = milliseconds(5);
    slow_acks.events.push_back(delay);
  }
  f.cluster.network().set_fault_plan(slow_acks);
  for (ProcessId p = 1; p <= n; ++p)
    f.engine(p).propose(1, bytes_of("v" + std::to_string(p)));
  f.cluster.run_for(seconds(2));

  const auto value = f.agreed(1);
  ASSERT_TRUE(value.has_value()) << "the aborted round wedged the ackers";
  EXPECT_TRUE(bytes_equal(*value, bytes_of("v2")));
  for (ProcessId p = 1; p <= n; ++p)
    EXPECT_EQ(f.ct(p).round_of(1), 2u) << "p" << p;
  EXPECT_EQ(f.ct(4).stats().proposals_refused, 1u);
}

TEST(CtAckedWait, AckersLeaveOnSuspicionWhenTheDecideNeverLeaves) {
  // The round-1 coordinator p2 collects its ack majority and crashes the
  // moment it hands its first DECIDE to the network, so no copy leaves.
  // p1 and p3 acked and wait for that decision; only the suspicion of
  // p2 moves them on. Round 2 must decide the value p2 decided: both
  // adopted it with timestamp 1, which locks it.
  Fixture f(Algo::kCt, 3);
  f.cluster.network().set_sent_hook(
      [&f](ProcessId src, ProcessId, BytesView msg) {
        Reader r(msg);
        if (src == 2 && r.u16() == runtime::kLayerConsensus &&
            r.u8() == 5 /* kDecide */) {
          f.cluster.network().crash(2);
        }
      });
  for (ProcessId p = 1; p <= 3; ++p)
    f.engine(p).propose(1, bytes_of("v" + std::to_string(p)));
  f.cluster.run_for(seconds(2));

  ASSERT_TRUE(f.cluster.network().crashed(2));
  const auto coordinator = f.decision(2, 1);
  ASSERT_TRUE(coordinator.has_value());
  const auto value = f.agreed(1);
  ASSERT_TRUE(value.has_value()) << "ackers never left the dead round";
  EXPECT_TRUE(bytes_equal(*value, *coordinator));
  EXPECT_EQ(f.ct(1).round_of(1), 2u);
  EXPECT_EQ(f.ct(3).round_of(1), 2u);
}

// -------------------------------------------------------- MR specifics

TEST(MrConsensus, DecidesInFirstRoundWithoutSuspicions) {
  Fixture f(Algo::kMr, 5);
  for (ProcessId p = 1; p <= 5; ++p)
    f.engine(p).propose(1, bytes_of("w" + std::to_string(p)));
  f.cluster.run_for(seconds(2));
  const auto value = f.agreed(1);
  ASSERT_TRUE(value.has_value());
  // Round-1 coordinator is p2: in a suspicion-free run its estimate wins.
  EXPECT_TRUE(bytes_equal(*value, bytes_of("w2")));
  auto* mr = dynamic_cast<MrConsensus*>(&f.engine(1));
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->round_of(1), 1u);
}

TEST(MrConsensus, CustomQuorumBlocksWithoutEnoughProcesses) {
  // With the ⌈(2n+1)/3⌉ quorum of Algorithm 3, n=4 tolerates only one
  // crash: two crashes must block (liveness), never split (safety).
  MrConfig cfg;
  cfg.quorum = [](std::uint32_t n) { return two_thirds_quorum(n); };
  Fixture f(Algo::kMr, 4, CtConfig{}, cfg);
  for (ProcessId p = 1; p <= 4; ++p)
    f.engine(p).propose(1, bytes_of("q"));
  f.cluster.crash_at(milliseconds(1), 3);
  f.cluster.crash_at(milliseconds(1), 4);
  f.cluster.run_for(seconds(3));
  EXPECT_FALSE(f.decision(1, 1).has_value());
  EXPECT_FALSE(f.decision(2, 1).has_value());
}

TEST(MrConsensus, AdoptPolicyConsulted) {
  // Track that phase-2 adoption asks the policy when the coordinator is
  // suspected by some processes (⊥ echoes mixed with valid ones).
  int consulted = 0;
  MrConfig cfg;
  cfg.adopt_phase2 = [&consulted](InstanceId, BytesView, std::uint32_t) {
    ++consulted;
    return true;
  };
  Fixture f(Algo::kMr, 3, CtConfig{}, cfg);
  // Crash the round-1 coordinator (p2) mid-round so ⊥ echoes appear.
  f.engine(1).propose(1, bytes_of("a"));
  f.engine(3).propose(1, bytes_of("c"));
  f.cluster.crash_at(microseconds(100), 2);
  f.cluster.run_for(seconds(3));
  EXPECT_TRUE(f.decision(1, 1).has_value());
  EXPECT_GE(consulted, 0);  // policy may or may not trigger; no crash
}

TEST(MrConsensus, StatsCountRounds) {
  Fixture f(Algo::kMr, 3);
  for (ProcessId p = 1; p <= 3; ++p)
    f.engine(p).propose(1, bytes_of("s"));
  f.cluster.run_for(seconds(1));
  EXPECT_GE(f.engine(1).stats().rounds_started, 1u);
}

}  // namespace
}  // namespace ibc::consensus
