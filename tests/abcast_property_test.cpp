// Property suite for atomic broadcast: the four properties of §2.1
// checked across stack variants × group sizes × crash patterns × seeds,
// under randomized traffic on the calibrated Setup-1 network.
//
//   Validity          a correct process's message is delivered by all
//                     correct processes;
//   Uniform integrity every id delivered at most once, and only if
//                     broadcast;
//   Uniform agreement an id delivered by *any* process (even one that
//                     crashes later) is delivered by all correct ones;
//   Uniform total order all delivery logs are prefix-consistent.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "harness.hpp"
#include "runtime/cluster.hpp"

namespace ibc::test {
namespace {

struct Param {
  abcast::Variant variant;
  abcast::ConsensusAlgo algo;
  abcast::RbKind rb;
  std::uint32_t n;
  std::uint32_t crashes;
  std::uint64_t seed;

  std::string name() const {
    std::string s;
    switch (variant) {
      case abcast::Variant::kIndirect: s += "Indirect"; break;
      case abcast::Variant::kMsgs: s += "Msgs"; break;
      case abcast::Variant::kIdsPlain: s += "UrbIds"; break;
    }
    s += algo == abcast::ConsensusAlgo::kCt ? "CT" : "MR";
    switch (rb) {
      case abcast::RbKind::kFloodN2: s += "FloodN2"; break;
      case abcast::RbKind::kFdBasedN: s += "FdN"; break;
      case abcast::RbKind::kUniform: s += "Urb"; break;
      case abcast::RbKind::kRing: s += "Ring"; break;
    }
    s += "n" + std::to_string(n) + "f" + std::to_string(crashes) + "s" +
         std::to_string(seed);
    return s;
  }
};

/// Crashes the stack variant tolerates at group size n.
std::uint32_t max_crashes(const Param& p) {
  if (p.variant == abcast::Variant::kIndirect &&
      p.algo == abcast::ConsensusAlgo::kMr) {
    return p.n - consensus::two_thirds_quorum(p.n);  // f < n/3
  }
  return p.n - consensus::majority(p.n);  // f < n/2
}

class AbcastProperties : public ::testing::TestWithParam<Param> {};

TEST_P(AbcastProperties, HoldsUnderRandomTrafficAndCrashes) {
  const Param param = GetParam();
  SCOPED_TRACE(repro_hint(param.seed));
  if (param.crashes > max_crashes(param))
    GTEST_SKIP() << "beyond this stack's resilience";

  abcast::StackConfig cfg;
  cfg.variant = param.variant;
  cfg.algo = param.algo;
  cfg.rb = param.rb;
  cfg.fd = abcast::FdKind::kHeartbeat;
  net::NetModel model = net::NetModel::setup1();
  Cluster cluster(ClusterOptions{}
                      .with_n(param.n)
                      .with_stack(cfg)
                      .with_model(model)
                      .with_seed(param.seed));

  // Random traffic: ~20 messages per process over the first second, paced
  // through each process's Env so crashed processes stop broadcasting.
  std::map<MessageId, ProcessId> broadcast_by;
  for (ProcessId p = 1; p <= param.n; ++p) {
    runtime::Env& env = cluster.env(p);
    for (int i = 0; i < 20; ++i) {
      const Duration at =
          milliseconds(env.rng().next_in(0, 1000));
      env.set_timer(at, [&cluster, &broadcast_by, p, i] {
        const MessageId id = cluster.node(p).abcast().abroadcast(
            bytes_of("m" + std::to_string(p) + "_" + std::to_string(i)));
        broadcast_by.emplace(id, p);
      });
    }
  }

  // Crash the tail processes at staggered times inside the traffic.
  std::set<ProcessId> crashed;
  for (std::uint32_t i = 0; i < param.crashes; ++i) {
    const ProcessId victim = param.n - i;  // pn, pn-1, ...
    crashed.insert(victim);
    cluster.crash_at(milliseconds(300 + 150 * i), victim);
  }

  cluster.run_for(seconds(12));

  // --- Uniform total order.
  EXPECT_TRUE(cluster.prefix_consistent());

  // --- Uniform integrity: no duplicates, only broadcast ids.
  for (ProcessId p = 1; p <= param.n; ++p) {
    std::set<MessageId> seen;
    for (const auto& d : cluster.log(p)) {
      EXPECT_TRUE(seen.insert(d.id).second)
          << "duplicate delivery at p" << p;
      EXPECT_TRUE(broadcast_by.contains(d.id))
          << "delivered a never-broadcast id at p" << p;
    }
  }

  // --- Uniform agreement: anything delivered anywhere is delivered by
  // every surviving process.
  std::set<MessageId> delivered_somewhere;
  for (ProcessId p = 1; p <= param.n; ++p)
    for (const auto& d : cluster.log(p)) delivered_somewhere.insert(d.id);
  for (const MessageId& id : delivered_somewhere) {
    for (ProcessId p = 1; p <= param.n; ++p) {
      if (crashed.contains(p)) continue;
      EXPECT_TRUE(cluster.delivered(p, id))
          << "p" << p << " missing " << to_string(id);
    }
  }

  // --- Validity: messages from processes that never crashed are
  // delivered everywhere (by survivors).
  for (const auto& [id, origin] : broadcast_by) {
    if (crashed.contains(origin)) continue;
    for (ProcessId p = 1; p <= param.n; ++p) {
      if (crashed.contains(p)) continue;
      EXPECT_TRUE(cluster.delivered(p, id))
          << "validity: p" << p << " missing " << to_string(id)
          << " from correct p" << origin;
    }
  }
}

std::vector<Param> make_params() {
  std::vector<Param> out;
  const struct {
    abcast::Variant variant;
    abcast::ConsensusAlgo algo;
    abcast::RbKind rb;
  } stacks[] = {
      {abcast::Variant::kIndirect, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kFloodN2},
      {abcast::Variant::kIndirect, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kFdBasedN},
      {abcast::Variant::kIndirect, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kRing},
      {abcast::Variant::kIndirect, abcast::ConsensusAlgo::kMr,
       abcast::RbKind::kFloodN2},
      {abcast::Variant::kMsgs, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kFloodN2},
      {abcast::Variant::kIdsPlain, abcast::ConsensusAlgo::kCt,
       abcast::RbKind::kUniform},
  };
  for (const auto& s : stacks)
    for (const std::uint32_t n : {3u, 5u})
      for (const std::uint32_t crashes : {0u, 1u})
        for (const std::uint64_t seed : {1u, 2u})
          out.push_back(Param{s.variant, s.algo, s.rb, n, crashes, seed});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AbcastProperties,
                         ::testing::ValuesIn(make_params()),
                         [](const auto& p) { return p.param.name(); });

}  // namespace
}  // namespace ibc::test
