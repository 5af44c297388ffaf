// Chandra-Toueg ♦S consensus (rotating coordinator), multi-instance.
//
// The algorithm of [2] as presented in §3.2.1 of the paper, with the
// pseudocode of Algorithm 2. Rounds rotate through coordinators; each
// round has four phases:
//
//   Phase 1  every process sends its (estimate, ts) to the round's
//            coordinator (skipped in round 1);
//   Phase 2  the coordinator gathers ⌈(n+1)/2⌉ estimates, selects one
//            with the largest timestamp as its proposal estimate_c, and
//            sends it to all (in round 1 it proposes its own estimate);
//   Phase 3  every process (the coordinator included — it receives its
//            own proposal through the loopback path) either receives the
//            proposal and replies ack/nack, or suspects the coordinator
//            (♦S) and replies nack. A process that nacks moves to the
//            next round at once; a non-coordinator that acks stays in
//            the round (`Wait::kDecision`) until the DECIDE arrives, the
//            coordinator aborts the round, or the coordinator is
//            suspected or announces abstention, as a restarted one does
//            (docs/PROTOCOL.md D8);
//   Phase 4  the coordinator waits for ⌈(n+1)/2⌉ acks (→ R-broadcast a
//            DECIDE carrying estimate_c) or a single nack (→ send ABORT
//            to all, next round).
//
// So a failure-free instance runs exactly one round at every process.
// Requires f < n/2. The instance table, the coordinator rotation, DECIDE
// dissemination and the restart-amnesia floor are the shared round
// engine's (round_engine.hpp); this file holds the four phases.
//
// The *indirect* adaptation (Algorithm 2) changes exactly one decision
// point: whether a process adopts the coordinator's proposal in Phase 3.
// That point is exposed as `CtConfig::accept_proposal`; when unset the
// behaviour is the original algorithm (always adopt + ack). Keeping the
// coordinator's proposal (estimate_c, per round) separate from its own
// estimate (estimate_p) — the subtlety §3.2.2 discusses — falls out of
// routing the coordinator's own adoption through Phase 3 like everyone
// else's.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "consensus/round_engine.hpp"

namespace ibc::consensus {

struct CtConfig {
  /// Phase-3 adoption test for the coordinator's proposal. Returning
  /// false sends a nack and leaves the local estimate untouched
  /// (Algorithm 2 lines 25-30). nullptr = original CT: always accept.
  std::function<bool(InstanceId, BytesView)> accept_proposal;
};

namespace ct {

struct RoundData {
  // Phase 2 (coordinator): estimates received for this round.
  std::unordered_map<ProcessId, std::pair<Bytes, std::uint32_t>> estimates;
  // The proposal this round's coordinator computed (coordinator only).
  std::optional<Bytes> estimate_c;
  // Phase 3: the proposal as received from the coordinator.
  std::optional<Bytes> proposal;
  // Phase 4 (coordinator): replies.
  std::unordered_set<ProcessId> acks;
  bool nacked = false;
  // The coordinator abandoned this round (kAbort). Kept per round, so
  // an abort that overtakes the proposal still releases the acker.
  bool aborted = false;
};

enum class Wait : std::uint8_t {
  kNone,       // not participating (not proposed, or decided)
  kEstimates,  // coordinator in Phase 2
  kProposal,   // Phase 3
  kAcks,       // coordinator in Phase 4
  kDecision,   // acked; waits for the round's decision or abort (D8)
};

}  // namespace ct

class CtConsensus final : public RoundEngine<ct::RoundData, ct::Wait> {
 public:
  CtConsensus(runtime::Stack& stack, runtime::LayerId layer_id,
              fd::FailureDetector& detector, CtConfig config = {});

 private:
  void enter_round(InstanceId k, Instance& inst) override;
  void on_coordinator_gone(InstanceId k, Instance& inst) override;
  void on_round_message(ProcessId from, std::uint8_t type, InstanceId k,
                        Instance& inst, Reader& r) override;

  void coordinator_try_phase2(InstanceId k, Instance& inst);
  void try_phase3(InstanceId k, Instance& inst);
  void phase3_reply(InstanceId k, Instance& inst, bool ack);
  void try_leave_acked_round(InstanceId k, Instance& inst);
  void coordinator_try_phase4(InstanceId k, Instance& inst);

  CtConfig config_;
};

}  // namespace ibc::consensus
