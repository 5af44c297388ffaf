// Snapshots bound log replay.
//
// A snapshot is a single CRC-framed file `snap-000042.img` capturing the
// ordering state at a log rotation point: recovery loads the newest
// valid snapshot and replays only segments >= its `wal_floor`. Snapshots
// are published atomically — written to `snap-tmp`, synced, then renamed
// to their final indexed name — and the previous snapshot plus the
// segments it covers are deleted only after the new one is durable, so a
// crash at any point leaves a loadable (snapshot?, segments) pair.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "store/storage.hpp"
#include "util/id_runs.hpp"
#include "util/types.hpp"

namespace ibc::store {

struct Snapshot {
  /// Highest consensus instance whose decision was applied.
  std::uint64_t applied_k = 0;
  /// Highest instance this process ever proposed in (participation
  /// floor; never propose at or below it again).
  std::uint64_t opened_k = 0;
  /// Sequence numbers <= this may have been used by this origin.
  std::uint64_t reserved_seq = 0;
  /// Ordering entries (batch ids) A-delivered.
  std::uint64_t batches_delivered = 0;
  /// Constituent client messages A-delivered (batches expanded).
  std::uint64_t msgs_delivered = 0;
  /// First log segment replay must visit.
  std::uint32_t wal_floor = 1;
  /// Ids A-delivered, batches expanded — the dedup set, stored as
  /// per-origin runs `(first id, length)`.
  IdRuns delivered;
  /// Ordered-but-undelivered backlog, in delivery order.
  std::vector<MessageId> ordered;
};

/// Canonical CRC-framed encoding (the whole file).
Bytes encode_snapshot(const Snapshot& snap);

/// Decodes a snapshot file; nullopt on truncation or CRC mismatch.
std::optional<Snapshot> decode_snapshot(BytesView file);

/// Durably publishes `snap` as `snap-<index>.img` (tmp + sync + rename)
/// and removes any older snapshot files.
void write_snapshot(Dir& dir, const Snapshot& snap, std::uint32_t index);

/// Loads the newest valid snapshot, trying older ones if the newest is
/// corrupt; nullopt if none exists.
std::optional<Snapshot> load_latest_snapshot(const Dir& dir);

/// Snapshot file name for an index ("snap-000042.img").
std::string snapshot_name(std::uint32_t index);
/// Parses an index out of a snapshot file name; 0 if not a snapshot.
std::uint32_t parse_snapshot(const std::string& name);

}  // namespace ibc::store
