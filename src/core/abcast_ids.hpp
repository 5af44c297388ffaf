// Atomic broadcast using message identifiers — Algorithm 1 (§2.4).
//
// A-broadcast(m): R-broadcast m (payload travels exactly once through the
// reliable-broadcast layer). Ordering runs on identifiers: whenever there
// are unordered ids, the process proposes them to consensus; decisions
// extend the delivery sequence; a message is A-delivered once its id
// reaches the head of the sequence *and* its payload has been
// R-delivered.
//
// Dissemination goes through an `abcast::Batcher`: consecutive
// abroadcasts may coalesce into one R-broadcast batch frame, and the
// ordering then runs on *batch* ids (docs/PROTOCOL.md D5). The default
// batch size of 1 is exactly the paper's one-frame-per-message loop.
//
// The class serves both id-ordering stacks; they differ only in how the
// consensus engine was configured (abcast/stack_builder.hpp):
//
//   * indirect consensus (core/indirect.hpp) — the engine evaluates the
//     process's rcv predicate (`OrderingCore::rcv`, lines 9-10) at its
//     adapted decision points. No loss guarantees some correct process
//     holds msgs(v) whenever v is decided, and reliable-broadcast
//     Agreement then spreads those messages to every correct process —
//     so every ordered id eventually becomes deliverable everywhere, and
//     plain (non-uniform) reliable broadcast suffices. This is the stack
//     the paper advocates.
//
//   * plain consensus — processes adopt coordinator proposals without
//     checking whether they hold the corresponding messages, so
//     correctness hinges entirely on the broadcast layer. With UNIFORM
//     reliable broadcast (bcast::UrbBroadcast) the stack is CORRECT:
//     consensus only ever sees ids of messages that were urb-delivered
//     somewhere, and uniformity guarantees every correct process
//     eventually receives them (§2.2, §4.4; the "Consensus w/ uniform
//     rbcast" curve of Figures 5-7). With plain reliable broadcast it is
//     the folklore FAULTY implementation (§2.2): if the only holder of m
//     crashes after id(m) is decided, id(m) blocks the delivery sequence
//     forever and atomic broadcast's Validity is violated. It is kept —
//     clearly labelled — because the paper measures the overhead of
//     indirect consensus against exactly this stack (Figures 3-4), and
//     because tests/violation_test.cpp demonstrates the bug.
#pragma once

#include <cstdint>

#include "abcast/batcher.hpp"
#include "bcast/broadcast.hpp"
#include "consensus/consensus.hpp"
#include "core/abcast_service.hpp"
#include "core/ordering.hpp"
#include "runtime/env.hpp"

namespace ibc::core {

class AbcastIds final : public AbcastService {
 public:
  /// `rb` must be a *reliable* broadcast (Agreement among correct
  /// processes); `cons` a consensus engine bound to the same stack.
  /// `pipeline_depth` = how many consensus instances the ordering core
  /// keeps in flight (W); 1 = the paper's sequential Algorithm 1.
  /// `batch` controls sender-side payload batching (default: none).
  AbcastIds(runtime::Env& env, bcast::BroadcastService& rb,
            consensus::Consensus& cons, std::uint32_t pipeline_depth = 1,
            const abcast::BatchConfig& batch = {});

  MessageId abroadcast(Bytes payload) override;

  const abcast::Batcher* batcher() const override { return &batcher_; }

  /// Algorithm-1 state (test and demo observability).
  const OrderingCore& ordering() const { return core_; }
  OrderingCore& mutable_ordering() { return core_; }

  /// Installs the durability hooks (core journal + sequence-number
  /// reservations). Must precede any traffic; null (default) is the
  /// memory-only protocol.
  void set_journal(OrderingJournal* journal);

  /// Restores the sequence namespace after a restart: the next
  /// abroadcast uses seq `reserved + 1` (the unused tail of the old
  /// reservation stays a gap, never a reuse).
  void restore_seq(std::uint64_t reserved);

  /// Seqs handed out per durable reservation record. Chunking amortizes
  /// the reservation sync to one per 1024 broadcasts.
  static constexpr std::uint64_t kSeqReserveChunk = 1024;

 private:
  runtime::Env& env_;
  bcast::BroadcastService& rb_;
  consensus::Consensus& cons_;
  OrderingJournal* journal_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t reserved_seq_ = 0;
  OrderingCore core_;
  abcast::Batcher batcher_;
};

}  // namespace ibc::core
