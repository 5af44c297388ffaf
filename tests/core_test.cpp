// Unit tests for the paper's core: IdSet canonicalization, Algorithm 1's
// ordering bookkeeping, and the indirect CT/MR consensus configurations —
// including the adversarial schedules of §3.2.2 and §3.3.2 and the
// No loss property.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/id_set.hpp"
#include "core/indirect.hpp"
#include "core/ordering.hpp"
#include "fd/perfect_fd.hpp"
#include "runtime/sim_cluster.hpp"

namespace ibc::core {
namespace {

// ---------------------------------------------------------------- IdSet

TEST(IdSet, InsertSortsAndDeduplicates) {
  IdSet s;
  EXPECT_TRUE(s.insert({2, 1}));
  EXPECT_TRUE(s.insert({1, 9}));
  EXPECT_TRUE(s.insert({1, 3}));
  EXPECT_FALSE(s.insert({2, 1}));  // duplicate
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ids()[0], (MessageId{1, 3}));
  EXPECT_EQ(s.ids()[1], (MessageId{1, 9}));
  EXPECT_EQ(s.ids()[2], (MessageId{2, 1}));
}

TEST(IdSet, FromUnsortedCanonicalizes) {
  const IdSet a = IdSet::from_unsorted({{3, 1}, {1, 1}, {3, 1}, {2, 5}});
  IdSet b;
  b.insert({1, 1});
  b.insert({2, 5});
  b.insert({3, 1});
  EXPECT_EQ(a, b);
}

TEST(IdSet, SerializationIsCanonical) {
  // Same set built in different orders serializes to identical bytes —
  // the property MR's estimate comparison relies on.
  const IdSet a = IdSet::from_unsorted({{1, 1}, {2, 2}, {3, 3}});
  const IdSet b = IdSet::from_unsorted({{3, 3}, {1, 1}, {2, 2}});
  EXPECT_TRUE(bytes_equal(a.to_value(), b.to_value()));
  EXPECT_EQ(IdSet::from_value(a.to_value()), a);
}

TEST(IdSet, EmptyRoundtrip) {
  const IdSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(IdSet::from_value(empty.to_value()), empty);
}

TEST(IdSet, RemoveAllIsSetDifference) {
  IdSet s = IdSet::from_unsorted({{1, 1}, {1, 2}, {1, 3}, {2, 1}});
  const IdSet remove = IdSet::from_unsorted({{1, 2}, {2, 1}, {9, 9}});
  s.remove_all(remove);
  EXPECT_EQ(s, IdSet::from_unsorted({{1, 1}, {1, 3}}));
}

TEST(IdSet, MergeIsSetUnion) {
  IdSet s = IdSet::from_unsorted({{1, 1}, {2, 2}});
  s.merge(IdSet::from_unsorted({{2, 2}, {3, 3}}));
  EXPECT_EQ(s, IdSet::from_unsorted({{1, 1}, {2, 2}, {3, 3}}));
}

TEST(IdSet, ContainsBinarySearches) {
  IdSet s = IdSet::from_unsorted({{1, 1}, {5, 5}, {9, 9}});
  EXPECT_TRUE(s.contains({5, 5}));
  EXPECT_FALSE(s.contains({5, 6}));
}

TEST(IdSet, ToStringReadable) {
  EXPECT_EQ(IdSet::from_unsorted({{1, 2}}).to_string(), "{1:2}");
}

// --------------------------------------------------------- OrderingCore

struct OrderingFixture {
  explicit OrderingFixture(std::uint32_t window = 1)
      : core(OrderingCore::Callbacks{
            .start_instance =
                [this](consensus::InstanceId k, const IdSet& v) {
                  proposals.emplace_back(k, v);
                },
            .adeliver =
                [this](const MessageId& id, BytesView) {
                  delivered.push_back(id);
                },
        }, window) {}

  OrderingCore core;
  std::vector<std::pair<consensus::InstanceId, IdSet>> proposals;
  std::vector<MessageId> delivered;
};

TEST(OrderingCore, RdeliverTriggersProposal) {
  OrderingFixture f;
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  ASSERT_EQ(f.proposals.size(), 1u);
  EXPECT_EQ(f.proposals[0].first, 1u);
  EXPECT_EQ(f.proposals[0].second, IdSet::from_unsorted({{1, 1}}));
}

TEST(OrderingCore, OneInstanceAtATime) {
  OrderingFixture f;
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  f.core.on_rdeliver({2, 1}, bytes_of("b"));  // while instance 1 runs
  EXPECT_EQ(f.proposals.size(), 1u);
  f.core.on_decision(1, IdSet::from_unsorted({{1, 1}}));
  // Decision applied; the still-unordered id triggers instance 2.
  ASSERT_EQ(f.proposals.size(), 2u);
  EXPECT_EQ(f.proposals[1].first, 2u);
  EXPECT_EQ(f.proposals[1].second, IdSet::from_unsorted({{2, 1}}));
}

TEST(OrderingCore, DeliversInDecisionOrderWhenPayloadPresent) {
  OrderingFixture f;
  f.core.on_rdeliver({2, 1}, bytes_of("b"));
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  f.core.on_decision(1, IdSet::from_unsorted({{1, 1}, {2, 1}}));
  // Canonical order: 1:1 then 2:1 regardless of receipt order.
  EXPECT_EQ(f.delivered,
            (std::vector<MessageId>{{1, 1}, {2, 1}}));
}

TEST(OrderingCore, BlocksOnMissingPayload) {
  OrderingFixture f;
  f.core.on_rdeliver({2, 1}, bytes_of("b"));
  // Decision includes an id whose payload we don't have.
  f.core.on_decision(1, IdSet::from_unsorted({{1, 1}, {2, 1}}));
  EXPECT_TRUE(f.delivered.empty());
  ASSERT_TRUE(f.core.blocked_head().has_value());
  EXPECT_EQ(*f.core.blocked_head(), (MessageId{1, 1}));
  // The payload arriving unblocks everything behind it.
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  EXPECT_EQ(f.delivered, (std::vector<MessageId>{{1, 1}, {2, 1}}));
  EXPECT_FALSE(f.core.blocked_head().has_value());
}

TEST(OrderingCore, OutOfOrderDecisionsBuffered) {
  OrderingFixture f;
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  f.core.on_rdeliver({2, 1}, bytes_of("b"));
  // Instance 2's decision arrives before instance 1's.
  f.core.on_decision(2, IdSet::from_unsorted({{2, 1}}));
  EXPECT_TRUE(f.delivered.empty());
  f.core.on_decision(1, IdSet::from_unsorted({{1, 1}}));
  EXPECT_EQ(f.delivered, (std::vector<MessageId>{{1, 1}, {2, 1}}));
  EXPECT_EQ(f.core.instances_completed(), 2u);
}

TEST(OrderingCore, DecidedIdNotReproposed) {
  OrderingFixture f;
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  f.core.on_rdeliver({2, 1}, bytes_of("b"));
  // Instance 1 decides both ids (someone else proposed the union).
  f.core.on_decision(1, IdSet::from_unsorted({{1, 1}, {2, 1}}));
  EXPECT_EQ(f.proposals.size(), 1u);  // nothing left to propose
  EXPECT_TRUE(f.core.unordered().empty());
}

TEST(OrderingCore, RdeliverOfAlreadyOrderedIdNotProposed) {
  OrderingFixture f;
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  // Decision contains an id we have not yet rdelivered (2:1).
  f.core.on_decision(1, IdSet::from_unsorted({{1, 1}, {2, 1}}));
  // The late payload must not re-enter unordered (line 13).
  f.core.on_rdeliver({2, 1}, bytes_of("b"));
  EXPECT_EQ(f.proposals.size(), 1u);
  EXPECT_TRUE(f.core.unordered().empty());
  EXPECT_EQ(f.delivered.size(), 2u);
}

TEST(OrderingCore, RcvCountsReceivedAndDelivered) {
  OrderingFixture f;
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  EXPECT_TRUE(f.core.rcv(IdSet::from_unsorted({{1, 1}})));
  EXPECT_FALSE(f.core.rcv(IdSet::from_unsorted({{1, 1}, {2, 1}})));
  f.core.on_decision(1, IdSet::from_unsorted({{1, 1}}));
  // Delivered ids still count as received.
  EXPECT_TRUE(f.core.rcv(IdSet::from_unsorted({{1, 1}})));
  EXPECT_TRUE(f.core.rcv(IdSet{}));  // vacuous
}

TEST(OrderingCore, DuplicateRdeliverIgnored) {
  OrderingFixture f;
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  f.core.on_rdeliver({1, 1}, bytes_of("a"));
  EXPECT_EQ(f.proposals.size(), 1u);
  EXPECT_EQ(f.proposals[0].second.size(), 1u);
}

TEST(OrderingCore, AllocatorFillsLowestHoleSkippingPendingAndInflight) {
  OrderingFixture f(/*window=*/2);
  f.core.on_rdeliver({1, 1}, bytes_of("a"));  // opens instance 1
  f.core.on_rdeliver({2, 1}, bytes_of("b"));  // opens instance 2
  f.core.on_rdeliver({3, 1}, bytes_of("c"));  // window full: pooled
  ASSERT_EQ(f.proposals.size(), 2u);
  // Instance 3's decision arrives early (another process grouped 4:1
  // there); it buffers — applying it must wait for 1 and 2.
  f.core.on_decision(3, IdSet::from_unsorted({{4, 1}}));
  EXPECT_EQ(f.proposals.size(), 2u);  // window still full, no new open
  // Instance 1 decides: the freed slot must go to the lowest number
  // this process has not touched — 2 is in flight, 3 has a buffered
  // decision, so 4.
  f.core.on_decision(1, IdSet::from_unsorted({{1, 1}}));
  ASSERT_EQ(f.proposals.size(), 3u);
  EXPECT_EQ(f.proposals[2].first, 4u);
  EXPECT_EQ(f.proposals[2].second, IdSet::from_unsorted({{3, 1}}));
}

TEST(OrderingCore, RestoredFloorNeverReopenedAtOrBelow) {
  OrderingFixture f;
  // Pre-crash this process opened up to instance 5 but only saw
  // decisions through 3 applied; the old incarnation may have voted in
  // 4 and 5, so the restart must not propose there again (D6).
  OrderingCore::Restored state;
  state.applied_k = 3;
  state.opened_k = 5;
  f.core.restore(std::move(state));
  f.core.on_rdeliver({1, 9}, bytes_of("x"));
  ASSERT_EQ(f.proposals.size(), 1u);
  EXPECT_EQ(f.proposals[0].first, 6u);
  // Decisions for the floor instances still apply normally.
  f.core.on_decision(4, IdSet{});
  f.core.on_decision(5, IdSet{});
  EXPECT_EQ(f.core.instances_completed(), 5u);
}

// -------------------------------------------------- indirect consensus

enum class Algo { kCt, kMr };

/// Drives CT / MR engines configured by indirect_ct / indirect_mr
/// directly, with test-controlled rcv state: each process has an
/// explicit set of "received" message ids.
struct IndirectFixture {
  explicit IndirectFixture(Algo algo, std::uint32_t n,
                           Duration fd_delay = milliseconds(2))
      : cluster(n, net::NetModel::fast_test(), 51),
        has_msgs(n + 1),
        decisions(n + 1) {
    for (ProcessId p = 1; p <= n; ++p) {
      stacks.push_back(std::make_unique<runtime::Stack>(cluster.env(p)));
      fds.push_back(std::make_unique<fd::PerfectFd>(
          cluster.env(p), cluster.network(), fd_delay));
      if (algo == Algo::kCt) {
        engines.push_back(std::make_unique<consensus::CtConsensus>(
            *stacks.back(), runtime::kLayerConsensus, *fds.back(),
            indirect_ct(cluster.env(p), 0, rcv_of(p))));
      } else {
        engines.push_back(std::make_unique<consensus::MrConsensus>(
            *stacks.back(), runtime::kLayerConsensus, *fds.back(),
            indirect_mr(cluster.env(p), 0, rcv_of(p))));
      }
      engines.back()->subscribe_decide(
          [this, p](consensus::InstanceId k, BytesView value) {
            const IdSet v = IdSet::from_value(value);
            decisions[p][k] = v;
            check_no_loss(v);
          });
    }
    for (auto& s : stacks) s->start();
  }

  /// No loss (§2.3): at decide time, at least one *alive* process holds
  /// msgs(v). (Stronger v-stability — f+1 holders — is checked by the
  /// dedicated scenario tests.)
  void check_no_loss(const IdSet& v) {
    for (ProcessId p = 1; p < has_msgs.size(); ++p) {
      if (cluster.network().crashed(p)) continue;
      bool all = true;
      for (const MessageId& id : v)
        if (!has_msgs[p].contains(id)) all = false;
      if (all) return;
    }
    no_loss_ok = false;
  }

  RcvFn rcv_of(ProcessId p) {
    return [this, p](const IdSet& v) {
      for (const MessageId& id : v)
        if (!has_msgs[p].contains(id)) return false;
      return true;
    };
  }

  void give(ProcessId p, const MessageId& id) { has_msgs[p].insert(id); }

  void propose(ProcessId p, consensus::InstanceId k, const IdSet& v) {
    engines[p - 1]->propose(k, v.to_value());
  }

  std::optional<IdSet> decision(ProcessId p, consensus::InstanceId k) {
    const auto it = decisions[p].find(k);
    if (it == decisions[p].end()) return std::nullopt;
    return it->second;
  }

  runtime::SimCluster cluster;
  std::vector<std::unique_ptr<runtime::Stack>> stacks;
  std::vector<std::unique_ptr<fd::PerfectFd>> fds;
  std::vector<std::unique_ptr<consensus::Consensus>> engines;
  std::vector<std::set<MessageId>> has_msgs;          // [p]
  std::vector<std::map<consensus::InstanceId, IdSet>> decisions;
  bool no_loss_ok = true;
};

class IndirectBoth : public ::testing::TestWithParam<Algo> {};

TEST_P(IndirectBoth, DecidesWhenAllHoldAllMessages) {
  IndirectFixture f(GetParam(), 3);
  const MessageId a{1, 1};
  for (ProcessId p = 1; p <= 3; ++p) f.give(p, a);
  const IdSet v = IdSet::from_unsorted({a});
  for (ProcessId p = 1; p <= 3; ++p) f.propose(p, 1, v);
  f.cluster.run_for(seconds(2));
  for (ProcessId p = 1; p <= 3; ++p) {
    const auto d = f.decision(p, 1);
    ASSERT_TRUE(d.has_value()) << "p" << p;
    EXPECT_EQ(*d, v);
  }
  EXPECT_TRUE(f.no_loss_ok);
}

TEST_P(IndirectBoth, NeverDecidesAValueOnlyTheDeadHeld) {
  // §3.2.2 / §3.3.2 flavour: the round-1 coordinator p2 proposes {A} and
  // is the only holder of A; everyone else proposes and holds {B}. p2
  // crashes early. The decision must be {B} — deciding {A} would violate
  // No loss the moment p2's copies vanish.
  IndirectFixture f(GetParam(), 3);
  const MessageId a{2, 1}, b{1, 1};
  f.give(2, a);
  f.give(1, b);
  f.give(3, b);
  f.give(2, b);  // p2 also has B (it rdelivered it) — realistic
  const IdSet va = IdSet::from_unsorted({a});
  const IdSet vb = IdSet::from_unsorted({b});
  f.propose(2, 1, va);
  f.propose(1, 1, vb);
  f.propose(3, 1, vb);
  f.cluster.crash_at(milliseconds(30), 2);
  f.cluster.run_for(seconds(5));

  for (ProcessId p : {1u, 3u}) {
    const auto d = f.decision(p, 1);
    ASSERT_TRUE(d.has_value()) << "p" << p;
    EXPECT_EQ(*d, vb) << "decided a value whose messages died with p2";
  }
  EXPECT_TRUE(f.no_loss_ok);
}

TEST_P(IndirectBoth, TerminatesOnceHypothesisADelivers) {
  // Proposals reference a message only the proposer holds; the others
  // refuse it until the message "arrives" (Hypothesis A is simulated by
  // giving them the message later).
  IndirectFixture f(GetParam(), 3);
  const MessageId a{2, 1};
  f.give(2, a);
  const IdSet v = IdSet::from_unsorted({a});
  f.propose(2, 1, v);
  // p1/p3 propose the same set but do NOT hold A yet: their own propose
  // precondition would fail, so they hold B-style sets of their own.
  const MessageId b1{1, 1}, b3{3, 1};
  f.give(1, b1);
  f.give(3, b3);
  f.propose(1, 1, IdSet::from_unsorted({b1}));
  f.propose(3, 1, IdSet::from_unsorted({b3}));
  f.cluster.run_for(milliseconds(200));

  // Rounds may be spinning; now "deliver" A everywhere (Hypothesis A).
  f.give(1, a);
  f.give(3, a);
  f.cluster.run_for(seconds(5));
  // Some decision is reached and satisfies No loss.
  for (ProcessId p = 1; p <= 3; ++p)
    EXPECT_TRUE(f.decision(p, 1).has_value()) << "p" << p;
  EXPECT_TRUE(f.no_loss_ok);
}

INSTANTIATE_TEST_SUITE_P(Algos, IndirectBoth,
                         ::testing::Values(Algo::kCt, Algo::kMr));

TEST(CtIndirect, RefusalsAreCounted) {
  IndirectFixture f(Algo::kCt, 3);
  const MessageId a{2, 1};
  f.give(2, a);  // only the coordinator holds A
  const MessageId b{1, 5};
  f.give(1, b);
  f.give(3, b);
  f.propose(2, 1, IdSet::from_unsorted({a}));
  f.propose(1, 1, IdSet::from_unsorted({b}));
  f.propose(3, 1, IdSet::from_unsorted({b}));
  f.cluster.run_for(seconds(2));
  // p1/p3 nacked {A} at least once before the system settled on {B}.
  EXPECT_GT(f.engines[0]->stats().proposals_refused +
                f.engines[2]->stats().proposals_refused,
            0u);
}

TEST(MrIndirect, AdoptionViaCopyCountWithoutHoldingMsgs) {
  // n=4, quorum ⌈(2n+1)/3⌉ = 3, copy threshold ⌈(n+1)/3⌉ = 2.
  // p1, p3, p4 hold B and propose {B}; p2 holds only A. In some round a
  // coordinator proposes {B}; p2 echoes ⊥ (no B) but must adopt {B} once
  // it sees it from ≥2 processes — and the group must decide {B}.
  IndirectFixture f(Algo::kMr, 4);
  const MessageId a{2, 1}, b{1, 1};
  f.give(2, a);
  f.give(1, b);
  f.give(3, b);
  f.give(4, b);
  f.propose(2, 1, IdSet::from_unsorted({a}));
  for (ProcessId p : {1u, 3u, 4u})
    f.propose(p, 1, IdSet::from_unsorted({b}));
  f.cluster.run_for(seconds(5));
  for (ProcessId p = 1; p <= 4; ++p) {
    const auto d = f.decision(p, 1);
    ASSERT_TRUE(d.has_value()) << "p" << p;
    EXPECT_EQ(*d, IdSet::from_unsorted({b}));
  }
  EXPECT_TRUE(f.no_loss_ok);
}

}  // namespace
}  // namespace ibc::core
