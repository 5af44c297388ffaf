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
// Requires f < n/2. DECIDE dissemination is reliable-broadcast by
// relay-on-first-receipt, so a decision survives the coordinator crashing
// mid-broadcast.
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
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/consensus.hpp"
#include "fd/failure_detector.hpp"
#include "runtime/stack.hpp"

namespace ibc::consensus {

struct CtConfig {
  /// Phase-3 adoption test for the coordinator's proposal. Returning
  /// false sends a nack and leaves the local estimate untouched
  /// (Algorithm 2 lines 25-30). nullptr = original CT: always accept.
  std::function<bool(InstanceId, BytesView)> accept_proposal;
};

class CtConsensus final : public runtime::Layer, public Consensus {
 public:
  CtConsensus(runtime::Stack& stack, runtime::LayerId layer_id,
              fd::FailureDetector& detector, CtConfig config = {});

  void propose(InstanceId k, Bytes value) override;
  bool has_decided(InstanceId k) const override;

  /// Restart-amnesia floor (docs/PROTOCOL.md D6): this incarnation must
  /// not vote in any instance k <= floor — a previous incarnation may
  /// already have, and voting again with wiped round state could
  /// contradict it. Abstention is *announced* (at start and in reply to
  /// round messages for barred instances), because an abstainer that
  /// stays silent wedges the rounds it would coordinate: it is alive,
  /// so ♦S never suspects it, and without a proposal or a suspicion the
  /// other processes wait forever. Peers treat an announced abstention
  /// exactly like a suspicion of that coordinator for those instances.
  void set_participation_floor(InstanceId floor) { floor_ = floor; }

  void on_start() override;
  void on_message(ProcessId from, Reader& r) override;

  /// Current round of instance `k` (0 if not started) — test observability.
  std::uint32_t round_of(InstanceId k) const;

 private:
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

  struct Instance {
    bool proposed = false;
    bool decided = false;
    Bytes decision;
    Bytes estimate;
    std::uint32_t ts = 0;
    std::uint32_t round = 0;
    Wait wait = Wait::kNone;
    std::map<std::uint32_t, RoundData> rounds;
  };

  ProcessId coord_of(std::uint32_t round) const {
    return (round % ctx_.n()) + 1;
  }

  Instance& instance(InstanceId k) { return instances_[k]; }

  void enter_round(InstanceId k, Instance& inst, std::uint32_t r);
  void coordinator_try_phase2(InstanceId k, Instance& inst);
  void try_phase3(InstanceId k, Instance& inst);
  void phase3_reply(InstanceId k, Instance& inst, bool ack);
  void try_leave_acked_round(InstanceId k, Instance& inst);
  void coordinator_try_phase4(InstanceId k, Instance& inst);
  void next_round(InstanceId k, Instance& inst);
  /// Re-checks an instance blocked on its round's coordinator, after a
  /// suspicion or an abstain announcement.
  void recheck_coordinator_wait(InstanceId k, Instance& inst);
  void decide_instance(InstanceId k, Instance& inst, BytesView value,
                       ProcessId relay_skip);
  void on_suspicion(ProcessId p);

  void send_decide(InstanceId k, BytesView value, ProcessId skip);
  void send_abstain(ProcessId dst);
  /// True iff `q` announced it abstains from instance `k`.
  bool abstains(ProcessId q, InstanceId k) const {
    return k <= abstain_floor_[q];
  }

  runtime::LayerContext ctx_;
  fd::FailureDetector& detector_;
  CtConfig config_;
  std::unordered_map<InstanceId, Instance> instances_;
  InstanceId floor_ = 0;  // own abstention floor (restart recovery)
  std::vector<InstanceId> abstain_floor_;  // [1..n] peers' announced floors
};

}  // namespace ibc::consensus
