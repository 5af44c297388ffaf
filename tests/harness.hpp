// Shared test helper: a one-line reproduction hint for randomized tests.
// Tests wire their processes through the `ibc::Cluster` facade
// (runtime/cluster.hpp) directly.
#pragma once

#include <gtest/gtest.h>

#include <cerrno>  // program_invocation_short_name (glibc)
#include <cstdint>
#include <string>

namespace ibc::test {

/// One-line reproduction hint for randomized tests, meant for a
/// SCOPED_TRACE at the top of the test body so every assertion failure
/// carries the seed and the exact command to re-run just that case:
///
///   SCOPED_TRACE(repro_hint(seed));
///
/// Output: `seed=7 | repro: ./net_test --gtest_filter=Suite.Case`.
inline std::string repro_hint(std::uint64_t seed) {
  std::string hint = "seed=" + std::to_string(seed);
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
#ifdef __GLIBC__
    const std::string binary = program_invocation_short_name;
#else
    const std::string binary = "<test-binary>";
#endif
    hint += " | repro: ./" + binary + " --gtest_filter=" +
            info->test_suite_name() + "." + info->name();
  }
  return hint;
}

}  // namespace ibc::test
