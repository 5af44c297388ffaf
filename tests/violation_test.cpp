// The §2.2 scenario: plain consensus on message ids violates atomic
// broadcast's Validity when a process crashes; indirect consensus does
// not, on the *same* adversarial schedule.
//
// Schedule (n = 3):
//   t=0       p2 (the round-1 coordinator) abroadcasts a 200 KB message m.
//             Its payload needs ~30 ms of NIC time to reach anyone, but
//             the processor-sharing NIC lets the small consensus traffic
//             overtake it.
//   t=1ms     p1 and p3 abroadcast small messages (so they participate in
//             consensus instance 1).
//   faulty:   p1/p3 blindly accept p2's proposal {id(m)}; the instance
//             decides {id(m)} around t≈1.5 ms.
//   t=8ms     p2 crashes. Its in-flight copies of m are lost forever.
//
// Faulty stack outcome: id(m) heads every delivery queue and m never
// arrives — no later message (including the correct processes' own) can
// ever be A-delivered: Validity is violated.
// Indirect stack outcome: p1/p3 refuse {id(m)} (rcv = false), the dead
// proposal is eventually dropped with p2, and the correct processes'
// messages are ordered and delivered.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"

namespace ibc::test {
namespace {

net::NetModel violation_model() {
  net::NetModel m = net::NetModel::setup1();
  m.jitter = 0;  // exact determinism for the narrative timeline
  // The scenario needs the small consensus messages to overtake the bulk
  // payload. Overtaking happens at the processor-sharing NIC (parallel
  // TCP streams), but the per-byte *CPU* serialization cost is strict
  // FIFO — so model a host whose serialization is cheap relative to the
  // 100 Mb/s wire (true of any native implementation; the 25 ns/B Java
  // figure is what Setup 1 charges elsewhere).
  m.cpu_per_byte_send = 0;
  m.cpu_per_byte_recv = 0;
  return m;
}

ClusterOptions violation_cluster(const abcast::StackConfig& stack) {
  return ClusterOptions{}.with_n(3).with_stack(stack).with_model(
      violation_model()).with_seed(3);
}

abcast::StackConfig stack_for(abcast::Variant variant) {
  abcast::StackConfig c;
  c.variant = variant;
  c.algo = abcast::ConsensusAlgo::kCt;
  c.rb = abcast::RbKind::kFloodN2;
  c.fd = abcast::FdKind::kHeartbeat;
  return c;
}

struct ScenarioResult {
  MessageId big;           // p2's doomed message
  MessageId small1;        // p1's message
  MessageId small3;        // p3's message
  bool small1_delivered_at_p1 = false;
  bool small3_delivered_at_p3 = false;
  bool big_delivered_anywhere = false;
  std::optional<MessageId> blocked_head_p1;
};

ScenarioResult run_scenario(abcast::Variant variant) {
  Cluster cluster(violation_cluster(stack_for(variant)));

  ScenarioResult res;
  res.big = cluster.node(2).abroadcast(Bytes(200'000, 0xBB));
  cluster.run_for(milliseconds(1));
  res.small1 = cluster.node(1).abroadcast("from p1");
  res.small3 = cluster.node(3).abroadcast("from p3");
  // p2 dies with m still on its NIC, after the id-only consensus had
  // ample time to finish.
  cluster.crash_at(milliseconds(8), 2);
  cluster.run_for(seconds(10));

  res.small1_delivered_at_p1 = cluster.delivered(1, res.small1);
  res.small3_delivered_at_p3 = cluster.delivered(3, res.small3);
  res.big_delivered_anywhere =
      cluster.delivered(1, res.big) || cluster.delivered(3, res.big);
  if (const auto* ord = cluster.node(1).stack().ordering())
    res.blocked_head_p1 = ord->blocked_head();
  return res;
}

TEST(ValidityViolation, FaultyStackBlocksForever) {
  const ScenarioResult res = run_scenario(abcast::Variant::kIdsPlain);

  // The lost message was ordered (its id sits at the head of the queue)…
  ASSERT_TRUE(res.blocked_head_p1.has_value());
  EXPECT_EQ(*res.blocked_head_p1, res.big);
  // …and therefore nothing is ever A-delivered: Validity is violated for
  // the *correct* processes' own messages.
  EXPECT_FALSE(res.small1_delivered_at_p1);
  EXPECT_FALSE(res.small3_delivered_at_p3);
  EXPECT_FALSE(res.big_delivered_anywhere);
}

TEST(ValidityViolation, IndirectStackSurvivesSameSchedule) {
  const ScenarioResult res = run_scenario(abcast::Variant::kIndirect);

  // rcv gating refused the dead proposal; the correct processes' messages
  // go through.
  EXPECT_TRUE(res.small1_delivered_at_p1);
  EXPECT_TRUE(res.small3_delivered_at_p3);
  // m itself is lost with its (faulty) originator — allowed by Validity,
  // which only protects correct broadcasters.
  EXPECT_FALSE(res.big_delivered_anywhere);
  // And nothing is stuck.
  EXPECT_FALSE(res.blocked_head_p1.has_value());
}

TEST(ValidityViolation, UrbStackAlsoSurvives) {
  // §4.4's alternative: uniform reliable broadcast + plain consensus on
  // ids is correct too. Under URB, p2's m is never urb-delivered anywhere
  // (no majority echo completes before the crash), so id(m) never enters
  // consensus at all.
  auto cfg = stack_for(abcast::Variant::kIdsPlain);
  cfg.rb = abcast::RbKind::kUniform;
  Cluster cluster(violation_cluster(cfg));

  cluster.node(2).abroadcast(Bytes(200'000, 0xBB));
  cluster.run_for(milliseconds(1));
  const MessageId small1 = cluster.node(1).abroadcast("from p1");
  const MessageId small3 = cluster.node(3).abroadcast("from p3");
  cluster.crash_at(milliseconds(8), 2);
  cluster.run_for(seconds(10));

  EXPECT_TRUE(cluster.delivered(1, small1));
  EXPECT_TRUE(cluster.delivered(3, small3));
  EXPECT_TRUE(cluster.prefix_consistent());
}

}  // namespace
}  // namespace ibc::test
