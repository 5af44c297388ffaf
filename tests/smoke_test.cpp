// End-to-end smoke tests: every stack variant orders a handful of
// messages identically on a 3-process simulated cluster.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"

namespace ibc::test {
namespace {

abcast::StackConfig make_config(abcast::Variant v, abcast::ConsensusAlgo a,
                                abcast::RbKind rb) {
  abcast::StackConfig c;
  c.variant = v;
  c.algo = a;
  c.rb = rb;
  c.fd = abcast::FdKind::kPerfect;
  return c;
}

class SmokeTest
    : public ::testing::TestWithParam<
          std::tuple<abcast::Variant, abcast::ConsensusAlgo, abcast::RbKind>> {
};

TEST_P(SmokeTest, ThreeProcessesDeliverInTotalOrder) {
  const auto [variant, algo, rb] = GetParam();
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_stack(make_config(variant, algo, rb))
                      .with_seed(42));

  cluster.node(1).abroadcast("alpha");
  cluster.node(2).abroadcast("bravo");
  cluster.run_for(milliseconds(50));
  cluster.node(3).abroadcast("charlie");
  cluster.node(1).abroadcast("delta");
  cluster.run_for(milliseconds(500));

  for (ProcessId p = 1; p <= 3; ++p) {
    EXPECT_EQ(cluster.log(p).size(), 4u) << "process " << p;
  }
  EXPECT_TRUE(cluster.prefix_consistent());
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, SmokeTest,
    ::testing::Combine(
        ::testing::Values(abcast::Variant::kIndirect, abcast::Variant::kMsgs,
                          abcast::Variant::kIdsPlain),
        ::testing::Values(abcast::ConsensusAlgo::kCt,
                          abcast::ConsensusAlgo::kMr),
        ::testing::Values(abcast::RbKind::kFloodN2, abcast::RbKind::kFdBasedN,
                          abcast::RbKind::kUniform)));

}  // namespace
}  // namespace ibc::test
