// Atomic broadcast by consensus on *full messages* — the original
// reduction of Chandra & Toueg [2] and the baseline of Figure 1.
//
// A-broadcast(m): R-broadcast m; whenever undelivered messages exist, run
// consensus on the *set of messages themselves* (id + payload). A decision
// carries the payloads, so every decider can A-deliver immediately — the
// stack is correct with plain reliable broadcast and unmodified consensus.
//
// The cost is the paper's motivation (§2.1): every consensus estimate,
// proposal and decision carries all pending payloads, so the bytes pushed
// through consensus grow with message size and throughput — the steeply
// rising "Consensus" curves of Figure 1. Dissemination still goes
// through the shared `abcast::Batcher` (one R-broadcast frame may carry
// several client messages); consensus proposals stay per-message, since
// the decision value must carry every payload anyway.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "abcast/batcher.hpp"
#include "bcast/broadcast.hpp"
#include "consensus/consensus.hpp"
#include "core/abcast_service.hpp"
#include "runtime/env.hpp"
#include "util/id_runs.hpp"
#include "util/payload.hpp"

namespace ibc::abcast {

/// Canonical serialized set of (id, payload) messages, maintained
/// incrementally.
///
/// The encoding — `u32 count | (message_id | blob(payload))*`, entries
/// sorted by id — is the consensus value of the consensus-on-messages
/// stack: two processes holding equal sets hold byte-identical values,
/// and iteration order is the deterministic delivery order. AbcastMsgs
/// proposes this value on every consensus instance; re-serializing the
/// whole backlog each time is O(total payload bytes) per proposal, which
/// dominates exactly when the stack is already struggling (large
/// backlogs). This class keeps the canonical bytes materialized and
/// splices entries in and out in place: a proposal costs O(1), a
/// mutation costs O(bytes moved after the edit point)
/// (`micro_bench`'s BM_MsgSetEncode* pair measures the difference).
class MsgSetEncoder {
 public:
  bool contains(const MessageId& id) const;

  /// Inserts `(id, payload)` at its canonical position; returns false
  /// (and leaves the set unchanged) if the id is already present.
  bool insert(const MessageId& id, BytesView payload);

  /// Removes `id`; no-op if absent.
  void erase(const MessageId& id);

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// The canonical value: count header + sorted entries. Valid until the
  /// next mutation.
  BytesView value() const { return buf_; }

 private:
  struct Entry {
    MessageId id;
    std::uint32_t offset = 0;  // of this entry's chunk within buf_
  };

  std::size_t chunk_end(std::size_t index) const;
  void set_count(std::uint32_t count);

  std::vector<Entry> index_;  // sorted by id
  Bytes buf_ = Bytes(4, 0);   // u32 count | chunks
};

class AbcastMsgs final : public core::AbcastService {
 public:
  /// `batch` controls sender-side payload batching (default: none).
  AbcastMsgs(runtime::Env& env, bcast::BroadcastService& bc,
             consensus::Consensus& cons, const BatchConfig& batch = {});

  MessageId abroadcast(Bytes payload) override;

  const Batcher* batcher() const override { return &batcher_; }

  std::size_t delivered_count() const { return delivered_count_; }
  std::size_t unordered_count() const { return unordered_.size(); }

 private:
  void on_rdeliver(const MessageId& id, const Payload& payload);
  void on_decision(consensus::InstanceId k, BytesView value);
  void apply_decision(const Payload& value);
  void maybe_start_instance();

  runtime::Env& env_;
  bcast::BroadcastService& bc_;
  consensus::Consensus& cons_;
  std::uint64_t next_seq_ = 0;

  /// Undelivered messages, kept in canonical serialized form — the
  /// proposal of the next instance, always ready.
  MsgSetEncoder unordered_;
  IdRuns delivered_;
  std::size_t delivered_count_ = 0;
  consensus::InstanceId applied_k_ = 0;
  bool inflight_ = false;
  std::map<consensus::InstanceId, Payload> pending_decisions_;
  Batcher batcher_;
};

}  // namespace ibc::abcast
