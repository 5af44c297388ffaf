// Tests for the durable-storage layer under the recovery subsystem:
// CRC framing, the Dir crash model (synced-watermark truncation), the
// write-ahead segment log (rotation, replay, torn tails), and snapshot
// publish/load.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "store/snapshot.hpp"
#include "store/storage.hpp"
#include "store/wal.hpp"
#include "util/bytes.hpp"

namespace ibc::store {
namespace {

Bytes b(std::string_view s) { return bytes_of(s); }

TEST(Crc32, MatchesKnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32(BytesView(b("123456789"))), 0xCBF43926u);
  EXPECT_EQ(crc32(BytesView{}), 0u);
}

TEST(MemDir, AppendSyncReadRoundtrip) {
  MemDir dir;
  EXPECT_FALSE(dir.exists("f"));
  dir.append("f", BytesView(b("hello ")));
  dir.append("f", BytesView(b("world")));
  EXPECT_TRUE(dir.exists("f"));
  EXPECT_EQ(dir.size("f"), 11u);
  EXPECT_EQ(dir.read("f"), b("hello world"));
}

TEST(MemDir, DropUnsyncedTruncatesToWatermark) {
  MemDir dir;
  dir.append("log", BytesView(b("durable|")));
  dir.sync("log");
  dir.append("log", BytesView(b("volatile")));
  dir.append("never-synced", BytesView(b("gone")));

  dir.drop_unsynced();

  // The synced prefix survives; the tail and the never-synced file are
  // what the crash ate.
  EXPECT_EQ(dir.read("log"), b("durable|"));
  EXPECT_FALSE(dir.exists("never-synced"));
}

TEST(MemDir, RenameIsDurablePublish) {
  MemDir dir;
  dir.append("tmp", BytesView(b("payload")));
  dir.sync("tmp");
  dir.rename("tmp", "final");
  EXPECT_FALSE(dir.exists("tmp"));
  dir.drop_unsynced();
  EXPECT_EQ(dir.read("final"), b("payload"));
}

TEST(MemDir, ListIsSorted) {
  MemDir dir;
  dir.append("b", BytesView(b("x")));
  dir.append("a", BytesView(b("x")));
  dir.append("c", BytesView(b("x")));
  EXPECT_EQ(dir.list(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(FsDir, RoundtripAndCrashModel) {
  const std::string root =
      testing::TempDir() + "ibc_store_test_" + std::to_string(::getpid());
  {
    FsDir dir(root);
    dir.append("log", BytesView(b("durable|")));
    dir.sync("log");
    dir.append("log", BytesView(b("volatile")));
    dir.append("tmp", BytesView(b("snap")));
    dir.sync("tmp");
    dir.rename("tmp", "snap-000001.img");
    EXPECT_EQ(dir.read("log"), b("durable|volatile"));

    dir.drop_unsynced();
    EXPECT_EQ(dir.read("log"), b("durable|"));
    EXPECT_EQ(dir.read("snap-000001.img"), b("snap"));
  }
  // A fresh FsDir over the same path sees everything previously on disk
  // as durable (that is the real-crash semantics: the kernel's page
  // cache is gone, the files are what they are).
  FsDir reopened(root);
  EXPECT_EQ(reopened.read("log"), b("durable|"));
  EXPECT_EQ(reopened.list(),
            (std::vector<std::string>{"log", "snap-000001.img"}));
  reopened.remove("log");
  reopened.remove("snap-000001.img");
}

TEST(SegmentLog, AppendReplayRoundtrip) {
  MemDir dir;
  SegmentLog log(dir, /*segment_bytes=*/1 << 20);
  log.append(BytesView(b("one")));
  log.append(BytesView(b("two")));
  log.sync();

  std::vector<Bytes> bodies;
  const ReplayResult result =
      log.replay(1, [&](BytesView body) { bodies.emplace_back(body.begin(), body.end()); });
  EXPECT_EQ(result.records, 2u);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], b("one"));
  EXPECT_EQ(bodies[1], b("two"));
  EXPECT_EQ(log.counters().appends, 2u);
  EXPECT_GE(log.counters().fsyncs, 1u);
}

TEST(SegmentLog, RotatesAtThresholdAndContinuesAcrossReopen) {
  MemDir dir;
  {
    SegmentLog log(dir, /*segment_bytes=*/32);
    for (int i = 0; i < 8; ++i)
      log.append(BytesView(b("record-" + std::to_string(i))));
    log.sync();
    EXPECT_GT(log.current_index(), 1u);
    EXPECT_GT(log.counters().rotations, 0u);
  }
  // Rebinding continues after the highest existing segment.
  SegmentLog reopened(dir, 32);
  EXPECT_GE(reopened.current_index(),
            SegmentLog::parse_segment(dir.list().back()));
  std::size_t records = 0;
  const ReplayResult result =
      reopened.replay(1, [&](BytesView) { ++records; });
  EXPECT_EQ(records, 8u);
  EXPECT_FALSE(result.torn_tail);
}

TEST(SegmentLog, RemoveSegmentsBelowDropsOnlyOldSegments) {
  MemDir dir;
  SegmentLog log(dir, /*segment_bytes=*/16);
  for (int i = 0; i < 6; ++i)
    log.append(BytesView(b("record-" + std::to_string(i))));
  log.sync();
  const std::uint32_t keep = log.current_index();
  ASSERT_GT(keep, 1u);
  log.remove_segments_below(keep);
  for (const std::string& name : dir.list()) {
    EXPECT_GE(SegmentLog::parse_segment(name), keep) << name;
  }
  std::size_t records = 0;
  log.replay(keep, [&](BytesView) { ++records; });
  EXPECT_GT(records, 0u);
}

TEST(SegmentLog, TornTailStopsAtLastGoodRecord) {
  MemDir dir;
  SegmentLog log(dir, /*segment_bytes=*/1 << 20);
  log.append(BytesView(b("good-1")));
  log.append(BytesView(b("good-2")));
  log.sync();
  // Simulate a tear: half a record frame lands after the good prefix
  // (length claims more bytes than exist).
  const Bytes garbage{0xff, 0xff, 0x00, 0x00, 0x12, 0x34};
  dir.append(SegmentLog::segment_name(log.current_index()),
             BytesView(garbage));

  std::vector<Bytes> bodies;
  const ReplayResult result =
      log.replay(1, [&](BytesView body) { bodies.emplace_back(body.begin(), body.end()); });
  EXPECT_TRUE(result.torn_tail);
  ASSERT_EQ(result.records, 2u);
  EXPECT_EQ(bodies[1], b("good-2"));
}

TEST(SegmentLog, CorruptRecordFailsCrc) {
  MemDir dir;
  SegmentLog log(dir, /*segment_bytes=*/1 << 20);
  log.append(BytesView(b("good")));
  log.append(BytesView(b("will-corrupt")));
  log.sync();
  // Flip one payload byte of the final record in place.
  const std::string name = SegmentLog::segment_name(log.current_index());
  Bytes raw = dir.read(name);
  raw.back() ^= 0x01;
  dir.remove(name);
  dir.append(name, BytesView(raw));
  dir.sync(name);

  std::size_t records = 0;
  const ReplayResult result = log.replay(1, [&](BytesView) { ++records; });
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(records, 1u);
}

TEST(SegmentLog, SegmentNameParsesRoundtrip) {
  EXPECT_EQ(SegmentLog::segment_name(7), "wal-000007.seg");
  EXPECT_EQ(SegmentLog::parse_segment("wal-000007.seg"), 7u);
  EXPECT_EQ(SegmentLog::parse_segment("snap-000007.img"), 0u);
  EXPECT_EQ(SegmentLog::parse_segment("wal-junk.seg"), 0u);
}

Snapshot example_snapshot() {
  Snapshot snap;
  snap.applied_k = 42;
  snap.opened_k = 43;
  snap.reserved_seq = 1024;
  snap.batches_delivered = 5;
  snap.msgs_delivered = 99;
  snap.wal_floor = 7;
  // Multi-message runs: p1 delivered 2..4 and, after a seq-base jump,
  // 1025..1032 (two batches of 4 merged into one run); p2 delivered 3.
  snap.delivered.insert(MessageId{1, 2}, 3);
  snap.delivered.insert(MessageId{1, 1025}, 4);
  snap.delivered.insert(MessageId{1, 1029}, 4);
  snap.delivered.insert(MessageId{2, 3});
  snap.ordered = {MessageId{3, 1}, MessageId{1, 9}};
  return snap;
}

TEST(Snapshot, EncodeDecodeRoundtrip) {
  const Snapshot snap = example_snapshot();
  const Bytes encoded = encode_snapshot(snap);
  const std::optional<Snapshot> decoded = decode_snapshot(BytesView(encoded));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->applied_k, snap.applied_k);
  EXPECT_EQ(decoded->opened_k, snap.opened_k);
  EXPECT_EQ(decoded->reserved_seq, snap.reserved_seq);
  EXPECT_EQ(decoded->batches_delivered, snap.batches_delivered);
  EXPECT_EQ(decoded->msgs_delivered, snap.msgs_delivered);
  EXPECT_EQ(decoded->wal_floor, snap.wal_floor);
  EXPECT_EQ(decoded->delivered.size(), 3u);
  EXPECT_EQ(decoded->delivered, snap.delivered);
  EXPECT_TRUE(decoded->delivered.contains(MessageId{1, 1032}));
  EXPECT_FALSE(decoded->delivered.contains(MessageId{1, 1033}));
  EXPECT_FALSE(decoded->delivered.contains(MessageId{1, 5}));
  EXPECT_EQ(decoded->ordered, snap.ordered);
}

TEST(Snapshot, DecodeRejectsCorruptionAndTruncation) {
  Bytes encoded = encode_snapshot(example_snapshot());
  Bytes flipped = encoded;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(decode_snapshot(BytesView(flipped)).has_value());
  EXPECT_FALSE(
      decode_snapshot(BytesView(encoded.data(), encoded.size() - 3))
          .has_value());
  EXPECT_FALSE(decode_snapshot(BytesView{}).has_value());
}

TEST(Snapshot, WritePublishesAtomicallyAndPrunesOlder) {
  MemDir dir;
  Snapshot snap = example_snapshot();
  write_snapshot(dir, snap, 1);
  snap.applied_k = 50;
  write_snapshot(dir, snap, 2);

  // Only the newest snapshot file remains and it survives a crash.
  EXPECT_EQ(dir.list(), (std::vector<std::string>{snapshot_name(2)}));
  dir.drop_unsynced();
  const std::optional<Snapshot> loaded = load_latest_snapshot(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->applied_k, 50u);
}

TEST(Snapshot, LoadFallsBackPastCorruptNewest) {
  MemDir dir;
  write_snapshot(dir, example_snapshot(), 3);
  // A corrupt later snapshot (e.g. torn mid-rename on a weaker fs) must
  // not mask the older good one.
  dir.append(snapshot_name(4), BytesView(bytes_of("garbage")));
  dir.sync(snapshot_name(4));
  const std::optional<Snapshot> loaded = load_latest_snapshot(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->applied_k, 42u);
}

TEST(Snapshot, NameParsesRoundtrip) {
  EXPECT_EQ(snapshot_name(42), "snap-000042.img");
  EXPECT_EQ(parse_snapshot("snap-000042.img"), 42u);
  EXPECT_EQ(parse_snapshot("wal-000042.seg"), 0u);
}

}  // namespace
}  // namespace ibc::store
