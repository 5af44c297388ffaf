#include "consensus/ct.hpp"

#include <utility>

#include "util/assert.hpp"

namespace ibc::consensus {

namespace {
enum MsgType : std::uint8_t {
  kEst = 1,       // phase 1: (r, ts, estimate) -> coordinator
  kProposal = 2,  // phase 2: (r, estimate_c) -> all
  kAck = 3,       // phase 3: (r) -> coordinator
  kNack = 4,      // phase 3: (r) -> coordinator
  kDecide = 5,    // the round engine's DECIDE
  kAbstain = 6,   // the round engine's abstain announcement
  kAbort = 7,     // phase 4: (r) -> others, round r got a nack
};
}  // namespace

using ct::RoundData;
using ct::Wait;

CtConsensus::CtConsensus(runtime::Stack& stack, runtime::LayerId layer_id,
                         fd::FailureDetector& detector, CtConfig config)
    : RoundEngine(stack, layer_id, "ct", detector, {kDecide, kAbstain}),
      config_(std::move(config)) {}

void CtConsensus::enter_round(InstanceId k, Instance& inst) {
  const std::uint32_t r = inst.round;
  const ProcessId coord = coord_of(r);

  if (r > 1) {
    // Phase 1: send (estimate, ts) to the coordinator (loopback if self).
    Writer w(inst.estimate.size() + 24);
    w.u8(kEst);
    w.u64(k);
    w.u32(r);
    w.u32(inst.ts);
    w.blob(inst.estimate);
    ctx_.send(coord, w.take());
  }

  if (coord == ctx_.self()) {
    if (r == 1) {
      // Phase 2, first round: propose own estimate without gathering.
      RoundData& rd = inst.rounds[r];
      rd.estimate_c = inst.estimate;
      Writer w(inst.estimate.size() + 16);
      w.u8(kProposal);
      w.u64(k);
      w.u32(r);
      w.blob(inst.estimate);
      ctx_.send_to_all(w.take());
      inst.wait = Wait::kProposal;
      try_phase3(k, inst);
    } else {
      inst.wait = Wait::kEstimates;
      coordinator_try_phase2(k, inst);
    }
  } else {
    // Phase 3: wait for the coordinator's proposal (or suspicion).
    inst.wait = Wait::kProposal;
    try_phase3(k, inst);
  }
}

void CtConsensus::coordinator_try_phase2(InstanceId k, Instance& inst) {
  if (inst.wait != Wait::kEstimates) return;
  RoundData& rd = inst.rounds[inst.round];
  if (rd.estimates.size() < majority(ctx_.n())) return;

  // Select an estimate with the largest timestamp; break ties towards the
  // smallest sender id for determinism ("select one", Algorithm 2 l.18).
  const std::pair<const ProcessId, std::pair<Bytes, std::uint32_t>>* best =
      nullptr;
  for (const auto& entry : rd.estimates) {
    if (best == nullptr || entry.second.second > best->second.second ||
        (entry.second.second == best->second.second &&
         entry.first < best->first)) {
      best = &entry;
    }
  }
  IBC_ASSERT(best != nullptr);
  rd.estimate_c = best->second.first;

  Writer w(rd.estimate_c->size() + 16);
  w.u8(kProposal);
  w.u64(k);
  w.u32(inst.round);
  w.blob(*rd.estimate_c);
  ctx_.send_to_all(w.take());
  inst.wait = Wait::kProposal;
  try_phase3(k, inst);
}

void CtConsensus::try_phase3(InstanceId k, Instance& inst) {
  if (inst.wait != Wait::kProposal) return;
  RoundData& rd = inst.rounds[inst.round];
  if (rd.proposal.has_value()) {
    // The proposal won the race against any suspicion: adopt if the
    // acceptance policy allows (original CT: always; Algorithm 2: rcv).
    const bool accept =
        !config_.accept_proposal || config_.accept_proposal(k, *rd.proposal);
    if (accept) {
      inst.estimate = *rd.proposal;
      inst.ts = inst.round;
      ++stats_.proposals_accepted;
    } else {
      ++stats_.proposals_refused;
    }
    phase3_reply(k, inst, accept);
  } else if (coordinator_gone(k, inst)) {
    // An announced abstention is handled like a suspicion: the
    // coordinator is alive but will never propose in this instance.
    phase3_reply(k, inst, false);
  }
  // Otherwise keep waiting: a proposal arrival, a suspicion, or an
  // abstain announcement will re-trigger this check.
}

void CtConsensus::phase3_reply(InstanceId k, Instance& inst, bool ack) {
  const std::uint32_t r = inst.round;
  Writer w(16);
  w.u8(ack ? kAck : kNack);
  w.u64(k);
  w.u32(r);
  ctx_.send(coord_of(r), w.take());

  if (coord_of(r) == ctx_.self()) {
    // Phase 4: collect replies (our own arrives via loopback).
    inst.wait = Wait::kAcks;
    coordinator_try_phase4(k, inst);
  } else if (ack) {
    // An acker stays in the round: its coordinator will decide or abort
    // it, or fail, and opening round r+1 meanwhile only races the
    // decision (D8).
    inst.wait = Wait::kDecision;
    try_leave_acked_round(k, inst);
  } else {
    next_round(k, inst);
  }
}

void CtConsensus::try_leave_acked_round(InstanceId k, Instance& inst) {
  if (inst.wait != Wait::kDecision) return;
  // A restarted coordinator announces abstention from every instance
  // its previous incarnation opened, so `coordinator_gone` covers
  // restarts too.
  if (inst.rounds[inst.round].aborted || coordinator_gone(k, inst)) {
    next_round(k, inst);
  }
}

void CtConsensus::on_coordinator_gone(InstanceId k, Instance& inst) {
  if (inst.wait == Wait::kProposal)
    try_phase3(k, inst);
  else if (inst.wait == Wait::kDecision)
    try_leave_acked_round(k, inst);
}

void CtConsensus::coordinator_try_phase4(InstanceId k, Instance& inst) {
  if (inst.wait != Wait::kAcks) return;
  const std::uint32_t r = inst.round;
  RoundData& rd = inst.rounds[r];
  if (rd.acks.size() >= majority(ctx_.n())) {
    IBC_ASSERT(rd.estimate_c.has_value());
    decide(k, inst, *rd.estimate_c, ctx_.self());
  } else if (rd.nacked) {
    // Release the ackers waiting in kDecision: this round never decides.
    Writer w(16);
    w.u8(kAbort);
    w.u64(k);
    w.u32(r);
    ctx_.send_to_others(w.take());
    next_round(k, inst);
  }
}

void CtConsensus::on_round_message(ProcessId from, std::uint8_t type,
                                   InstanceId k, Instance& inst, Reader& r) {
  switch (type) {
    case kEst: {
      const std::uint32_t round = r.u32();
      const std::uint32_t ts = r.u32();
      Bytes estimate = r.blob();
      if (round < inst.round) return;  // stale
      RoundData& rd = inst.rounds[round];
      rd.estimates.emplace(from, std::make_pair(std::move(estimate), ts));
      if (inst.proposed && round == inst.round)
        coordinator_try_phase2(k, inst);
      break;
    }
    case kProposal: {
      const std::uint32_t round = r.u32();
      Bytes proposal = r.blob();
      if (round < inst.round) return;  // stale
      RoundData& rd = inst.rounds[round];
      rd.proposal = std::move(proposal);
      if (inst.proposed && round == inst.round) try_phase3(k, inst);
      break;
    }
    case kAck:
    case kNack: {
      const std::uint32_t round = r.u32();
      if (round < inst.round) return;  // stale
      RoundData& rd = inst.rounds[round];
      if (type == kAck)
        rd.acks.insert(from);
      else
        rd.nacked = true;
      if (inst.proposed && round == inst.round)
        coordinator_try_phase4(k, inst);
      break;
    }
    case kAbort: {
      const std::uint32_t round = r.u32();
      if (round < inst.round) return;  // stale
      inst.rounds[round].aborted = true;
      if (inst.proposed && round == inst.round)
        try_leave_acked_round(k, inst);
      break;
    }
    default:
      break;  // kDecide and kAbstain are the engine's; others are ignored
  }
}

}  // namespace ibc::consensus
