// Unit tests for util: serialization, RNG, statistics, formatting, id runs.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "util/bytes.hpp"
#include "util/id_runs.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ibc {
namespace {

// ---------------------------------------------------------------- bytes

TEST(Bytes, ScalarRoundtrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  const Bytes b = w.take();
  EXPECT_EQ(b.size(), 1u + 2 + 4 + 8 + 8);

  Reader r(b);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  const Bytes b = w.take();
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(Bytes, BlobAndStringRoundtrip) {
  Writer w;
  w.blob(bytes_of("hello"));
  w.str("world");
  w.blob({});  // empty blob is legal
  const Bytes b = w.take();

  Reader r(b);
  EXPECT_TRUE(bytes_equal(r.blob_view(), bytes_of("hello")));
  EXPECT_EQ(r.str(), "world");
  EXPECT_EQ(r.blob().size(), 0u);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, MessageIdRoundtrip) {
  const MessageId id{7, 123456789};
  Writer w;
  w.message_id(id);
  Reader r(w.view());
  EXPECT_EQ(r.message_id(), id);
}

TEST(Bytes, RemainingTracksConsumption) {
  Writer w;
  w.u32(1);
  w.u32(2);
  const Bytes b = w.take();
  Reader r(b);
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_TRUE(r.done());
}

TEST(Bytes, EqualityHelpers) {
  EXPECT_TRUE(bytes_equal(bytes_of("abc"), bytes_of("abc")));
  EXPECT_FALSE(bytes_equal(bytes_of("abc"), bytes_of("abd")));
  EXPECT_FALSE(bytes_equal(bytes_of("abc"), bytes_of("ab")));
  EXPECT_TRUE(bytes_equal({}, {}));
}

TEST(Bytes, HexdumpTruncates) {
  const Bytes b(100, 0xFF);
  const std::string dump = hexdump(b, 4);
  EXPECT_EQ(dump, "ffffffff...");
}

class BytesBlobSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BytesBlobSizes, RoundtripAnySize) {
  Bytes payload(GetParam());
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  Writer w;
  w.blob(payload);
  Reader r(w.view());
  EXPECT_TRUE(bytes_equal(r.blob_view(), payload));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BytesBlobSizes,
                         ::testing::Values(0, 1, 2, 255, 256, 4096, 100000));

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsOrderInsensitive) {
  Rng parent(99);
  Rng child1 = parent.fork("net");
  parent.next_u64();  // advancing the parent...
  parent.fork("other");
  Rng child2 = parent.fork("net");  // ...must not change the child stream
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, IndexedForksAreIndependent) {
  Rng parent(7);
  Rng a = parent.fork("proc", 1);
  Rng b = parent.fork("proc", 2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextInIsInclusive) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanIsPlausible) {
  Rng r(6);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.next_exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.2);
}

// ---------------------------------------------------------------- stats

TEST(Samples, QuantilesExact) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100, reversed insertion
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Samples, EmptyQuantileIsZero) {
  Samples s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

// ----------------------------------------------------------------- time

TEST(Time, UnitArithmetic) {
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(2)), 2.0);
}

TEST(Time, FormatDurationPicksUnit) {
  EXPECT_EQ(format_duration(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_duration(microseconds(1500)), "1.500ms");
  EXPECT_EQ(format_duration(seconds(2)), "2.000s");
}

TEST(Types, MessageIdOrderingAndHash) {
  const MessageId a{1, 5}, b{1, 6}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(to_string(a), "1:5");
  EXPECT_NE(std::hash<MessageId>{}(a), std::hash<MessageId>{}(b));
}

// -------------------------------------------------------------- id runs

/// Maximal runs of consecutive seqs per origin in a reference set.
std::vector<std::pair<MessageId, std::uint64_t>> runs_of(
    const std::set<MessageId>& ids) {
  std::vector<std::pair<MessageId, std::uint64_t>> runs;
  for (const MessageId& id : ids) {
    if (!runs.empty() && runs.back().first.origin == id.origin &&
        runs.back().second == id.seq) {
      ++runs.back().second;
    } else {
      runs.emplace_back(id, id.seq + 1);
    }
  }
  return runs;
}

TEST(IdRuns, EmptyAndSingleRun) {
  IdRuns runs;
  EXPECT_EQ(runs.size(), 0u);
  EXPECT_FALSE(runs.contains(MessageId{1, 1}));
  EXPECT_TRUE(runs.insert(MessageId{1, 1}, 4));
  EXPECT_FALSE(runs.insert(MessageId{1, 3}));  // inside the run
  EXPECT_TRUE(runs.insert(MessageId{1, 5}));   // adjacent: extends it
  EXPECT_TRUE(runs.insert(MessageId{2, 5}));   // other origin: new run
  EXPECT_EQ(runs.size(), 2u);
  EXPECT_TRUE(runs.contains(MessageId{1, 5}));
  EXPECT_FALSE(runs.contains(MessageId{1, 6}));
  EXPECT_FALSE(runs.contains(MessageId{1, 0}));
  EXPECT_FALSE(runs.contains(MessageId{2, 4}));
}

TEST(IdRuns, MatchesAReferenceSetUnderRandomInserts) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    IdRuns runs;
    std::set<MessageId> ref;
    // Per-origin next seq of the "sender"; jumps model a restart's
    // seq-base reservation (D6).
    std::map<ProcessId, std::uint64_t> next;
    for (int op = 0; op < 3000; ++op) {
      const auto origin = static_cast<ProcessId>(1 + rng.next_below(4));
      std::uint64_t& cursor = next[origin];
      const std::uint64_t count = 1 + rng.next_below(8);
      MessageId first{origin, cursor + 1};
      const std::uint64_t kind = rng.next_below(10);
      if (kind == 0) {
        cursor += 1024 * (1 + rng.next_below(3));  // seq-base jump
        first.seq = cursor + 1;
      } else if (kind <= 2 && cursor > 0) {
        // Duplicate or out-of-order arrival behind the cursor.
        first.seq = 1 + rng.next_below(cursor);
      } else if (kind == 3) {
        first.seq = cursor + 2 + rng.next_below(16);  // arrives early
      }
      if (first.seq + count - 1 > cursor) cursor = first.seq + count - 1;

      const bool expect_new = !ref.contains(first);
      if (expect_new) {
        for (std::uint64_t i = 0; i < count; ++i) {
          ref.insert(MessageId{origin, first.seq + i});
        }
      }
      ASSERT_EQ(runs.insert(first, count), expect_new)
          << "seed " << seed << " op " << op;
      for (int probe = 0; probe < 4; ++probe) {
        const MessageId id{static_cast<ProcessId>(rng.next_below(6)),
                           rng.next_below(cursor + 3)};
        ASSERT_EQ(runs.contains(id), ref.contains(id))
            << "seed " << seed << " op " << op << " id " << to_string(id);
      }
    }
    const auto expected = runs_of(ref);
    ASSERT_EQ(runs.size(), expected.size()) << "seed " << seed;
    const std::vector<std::pair<MessageId, std::uint64_t>> actual(
        runs.begin(), runs.end());
    EXPECT_EQ(actual, expected) << "seed " << seed;
    for (const MessageId& id : ref) ASSERT_TRUE(runs.contains(id));
  }
}

}  // namespace
}  // namespace ibc
