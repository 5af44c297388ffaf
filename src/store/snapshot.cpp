#include "store/snapshot.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "util/assert.hpp"

namespace ibc::store {

namespace {
constexpr std::uint8_t kSnapshotVersion = 2;
constexpr const char* kTmpName = "snap-tmp";
}  // namespace

std::string snapshot_name(std::uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%06" PRIu32 ".img", index);
  return buf;
}

std::uint32_t parse_snapshot(const std::string& name) {
  std::uint32_t index = 0;
  if (std::sscanf(name.c_str(), "snap-%06" SCNu32 ".img", &index) != 1) {
    return 0;
  }
  return name == snapshot_name(index) ? index : 0;
}

Bytes encode_snapshot(const Snapshot& snap) {
  Writer body;
  body.u8(kSnapshotVersion);
  body.u64(snap.applied_k);
  body.u64(snap.opened_k);
  body.u64(snap.reserved_seq);
  body.u64(snap.batches_delivered);
  body.u64(snap.msgs_delivered);
  body.u32(snap.wal_floor);
  body.u32(static_cast<std::uint32_t>(snap.delivered.size()));
  for (const auto& [first, end] : snap.delivered) {
    body.message_id(first);
    body.u64(end - first.seq);
  }
  body.u32(static_cast<std::uint32_t>(snap.ordered.size()));
  for (const MessageId& id : snap.ordered) body.message_id(id);
  const Bytes bytes = body.take();
  Writer file(8 + bytes.size());
  file.u32(static_cast<std::uint32_t>(bytes.size()));
  file.u32(crc32(bytes));
  file.raw(bytes);
  return file.take();
}

std::optional<Snapshot> decode_snapshot(BytesView file) {
  if (file.size() < 8) return std::nullopt;
  Reader header(file.subspan(0, 8));
  const std::uint32_t len = header.u32();
  const std::uint32_t crc = header.u32();
  if (8 + static_cast<std::size_t>(len) > file.size()) return std::nullopt;
  const BytesView body = file.subspan(8, len);
  if (crc32(body) != crc) return std::nullopt;
  Reader r(body);
  if (r.u8() != kSnapshotVersion) return std::nullopt;
  Snapshot snap;
  snap.applied_k = r.u64();
  snap.opened_k = r.u64();
  snap.reserved_seq = r.u64();
  snap.batches_delivered = r.u64();
  snap.msgs_delivered = r.u64();
  snap.wal_floor = r.u32();
  const std::uint32_t runs = r.u32();
  for (std::uint32_t i = 0; i < runs; ++i) {
    const MessageId first = r.message_id();
    const std::uint64_t length = r.u64();
    if (length == 0 || first.seq + length < first.seq ||
        !snap.delivered.insert(first, length)) {
      return std::nullopt;
    }
  }
  const std::uint32_t ordered = r.u32();
  snap.ordered.reserve(ordered);
  for (std::uint32_t i = 0; i < ordered; ++i) {
    snap.ordered.push_back(r.message_id());
  }
  return snap;
}

void write_snapshot(Dir& dir, const Snapshot& snap, std::uint32_t index) {
  if (dir.exists(kTmpName)) dir.remove(kTmpName);
  dir.append(kTmpName, encode_snapshot(snap));
  dir.sync(kTmpName);
  dir.rename(kTmpName, snapshot_name(index));
  // Only now is it safe to drop older snapshots.
  for (const std::string& name : dir.list()) {
    const std::uint32_t old = parse_snapshot(name);
    if (old != 0 && old < index) dir.remove(name);
  }
}

std::optional<Snapshot> load_latest_snapshot(const Dir& dir) {
  std::vector<std::uint32_t> indexes;
  for (const std::string& name : dir.list()) {
    const std::uint32_t index = parse_snapshot(name);
    if (index != 0) indexes.push_back(index);
  }
  std::sort(indexes.rbegin(), indexes.rend());
  for (const std::uint32_t index : indexes) {
    auto snap = decode_snapshot(dir.read(snapshot_name(index)));
    if (snap.has_value()) return snap;
  }
  return std::nullopt;
}

}  // namespace ibc::store
