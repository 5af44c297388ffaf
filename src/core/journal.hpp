// Durability hook points of the ordering core.
//
// `OrderingJournal` is the narrow interface the core writes its
// write-ahead events through; the implementation (src/recovery/) owns
// the segment log and the fsync policy. The core stays free of any
// storage dependency — a null journal (the default) is the paper's
// memory-only protocol, bit for bit.
//
// Durability contract, per call site in OrderingCore/AbcastIds:
//
//   on_open_instance      durable before returning — the caller is
//                         about to propose in k, and a restarted
//                         process must never propose at or below an
//                         instance it already touched (that is what
//                         makes restart-amnesia safe; PROTOCOL.md D6).
//   on_decision_applied   logged, not synced. A tail lost in a crash
//                         is refilled from live peers by catch-up.
//   on_deliver_batch +    write-ahead group commit: one record per
//   commit_deliveries     delivered batch, one sync per deliverable
//                         run, and only then do the A-deliver
//                         callbacks fire — so a restart can never
//                         redeliver (exactly-once across crashes).
//   on_reserve_seqs       durable before returning — sequence numbers
//                         up to the mark may now be assigned, so
//                         MessageIds are never reused by a restarted
//                         origin.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/consensus.hpp"
#include "util/payload.hpp"
#include "util/types.hpp"

namespace ibc::core {

class OrderingJournal {
 public:
  virtual ~OrderingJournal() = default;

  /// This process is about to propose in instance `k`.
  virtual void on_open_instance(consensus::InstanceId k) = 0;

  /// Instance `k`'s decision was applied; `appended` is the post-dedup
  /// entries appended to the ordered sequence, in append order (may be
  /// empty — replay still needs to advance past k).
  virtual void on_decision_applied(
      consensus::InstanceId k, const std::vector<MessageId>& appended) = 0;

  /// The batch `head` (payloads.size() constituent messages) is about
  /// to be A-delivered. The payloads are handed over so the journal can
  /// archive them for peer catch-up.
  virtual void on_deliver_batch(const MessageId& head,
                                const std::vector<Payload>& payloads) = 0;

  /// Durable barrier after a run of on_deliver_batch calls; returns
  /// only when those records are synced.
  virtual void commit_deliveries() = 0;

  /// Sequence numbers up to and including `reserved_up_to` may be used
  /// by this origin from now on.
  virtual void on_reserve_seqs(std::uint64_t reserved_up_to) = 0;
};

}  // namespace ibc::core
