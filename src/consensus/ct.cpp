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
  kDecide = 5,    // (value), relayed on first receipt
  kAbstain = 6,   // (floor): sender votes in no instance k <= floor
  kAbort = 7,     // phase 4: (r) -> others, round r got a nack
};
}  // namespace

CtConsensus::CtConsensus(runtime::Stack& stack, runtime::LayerId layer_id,
                         fd::FailureDetector& detector, CtConfig config)
    : ctx_(stack.register_layer(layer_id, *this, "ct")),
      detector_(detector),
      config_(std::move(config)),
      abstain_floor_(ctx_.n() + 1, 0) {
  detector_.subscribe([this](ProcessId p, bool suspected) {
    if (suspected) on_suspicion(p);
  });
}

void CtConsensus::on_start() {
  // A restarted incarnation announces its abstention floor up front:
  // peers already running rounds of a barred instance may be waiting on
  // *us* as that round's coordinator, with nothing in flight that would
  // trigger the reactive reply below.
  if (floor_ == 0) return;
  const std::uint32_t n = ctx_.n();
  for (ProcessId p = 1; p <= n; ++p) {
    if (p != ctx_.self()) send_abstain(p);
  }
}

void CtConsensus::send_abstain(ProcessId dst) {
  Writer w(12);
  w.u8(kAbstain);
  w.u64(floor_);
  ctx_.send(dst, w.take());
}

bool CtConsensus::has_decided(InstanceId k) const {
  const auto it = instances_.find(k);
  return it != instances_.end() && it->second.decided;
}

std::uint32_t CtConsensus::round_of(InstanceId k) const {
  const auto it = instances_.find(k);
  return it == instances_.end() ? 0 : it->second.round;
}

void CtConsensus::propose(InstanceId k, Bytes value) {
  Instance& inst = instance(k);
  IBC_REQUIRE_MSG(!inst.proposed, "duplicate propose in instance");
  inst.proposed = true;
  if (inst.decided) return;  // decision arrived before we proposed
  inst.estimate = std::move(value);
  inst.ts = 0;
  enter_round(k, inst, 1);
}

void CtConsensus::enter_round(InstanceId k, Instance& inst,
                              std::uint32_t r) {
  IBC_ASSERT(!inst.decided && inst.proposed);
  inst.round = r;
  ++stats_.rounds_started;
  const ProcessId coord = coord_of(r);
  ctx_.log().logf(LogLevel::kTrace, "k=%llu round %u coord p%u",
                  static_cast<unsigned long long>(k), r, coord);

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
  } else if (detector_.is_suspected(coord_of(inst.round)) ||
             abstains(coord_of(inst.round), k)) {
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
  const ProcessId coord = coord_of(inst.round);
  // A restarted coordinator announces abstention from every instance
  // its previous incarnation opened, so `abstains` covers restarts too.
  if (inst.rounds[inst.round].aborted || detector_.is_suspected(coord) ||
      abstains(coord, k)) {
    next_round(k, inst);
  }
}

void CtConsensus::next_round(InstanceId k, Instance& inst) {
  // The advance is deferred to keep recursion depth constant when
  // several coordinators are suspected back-to-back.
  const std::uint32_t r = inst.round;
  inst.wait = Wait::kNone;
  ctx_.defer([this, k, r] {
    Instance& i = instance(k);
    if (!i.decided && i.proposed && i.round == r && i.wait == Wait::kNone)
      enter_round(k, i, r + 1);
  });
}

void CtConsensus::recheck_coordinator_wait(InstanceId k, Instance& inst) {
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
    const Bytes value = *rd.estimate_c;  // copy: decide clears rounds
    send_decide(k, value, ctx_.self());
    decide_instance(k, inst, value, ctx_.self());
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

void CtConsensus::send_decide(InstanceId k, BytesView value,
                              ProcessId skip) {
  Writer w(value.size() + 16);
  w.u8(kDecide);
  w.u64(k);
  w.blob(value);
  const Bytes wire = w.take();
  const std::uint32_t n = ctx_.n();
  for (ProcessId p = 1; p <= n; ++p)
    if (p != ctx_.self() && p != skip) ctx_.send(p, wire);
}

void CtConsensus::decide_instance(InstanceId k, Instance& inst,
                                  BytesView value, ProcessId) {
  if (inst.decided) return;
  inst.decided = true;
  inst.decision = to_bytes(value);
  Bytes().swap(inst.estimate);  // only `decision` is read from here on
  inst.wait = Wait::kNone;
  inst.rounds.clear();
  ctx_.log().logf(LogLevel::kDebug, "k=%llu decided (%zu bytes)",
                  static_cast<unsigned long long>(k), inst.decision.size());
  fire_decide(k, inst.decision);
}

void CtConsensus::on_suspicion(ProcessId p) {
  // Wake every instance blocked on this coordinator.
  for (auto& [k, inst] : instances_) {
    if (coord_of(inst.round) == p) recheck_coordinator_wait(k, inst);
  }
}

void CtConsensus::on_message(ProcessId from, Reader& r) {
  const auto type = static_cast<MsgType>(r.u8());
  const InstanceId k = r.u64();

  if (type == kAbstain) {
    // Here the u64 is the sender's participation floor, not an instance
    // id: `from` votes in no instance <= k. Record it and wake every
    // instance blocked on `from` as coordinator.
    if (k > abstain_floor_[from]) {
      abstain_floor_[from] = k;
      for (auto& [ki, blocked] : instances_) {
        if (ki <= k && coord_of(blocked.round) == from)
          recheck_coordinator_wait(ki, blocked);
      }
    }
    return;
  }

  Instance& inst = instance(k);

  if (type == kDecide) {
    const BytesView value = r.blob_view();
    if (!inst.decided) {
      // Relay on first receipt (reliable broadcast of the decision), then
      // decide locally.
      ++stats_.decides_relayed;
      send_decide(k, value, from);
      decide_instance(k, inst, value, from);
    }
    return;
  }

  if (inst.decided) {
    // Catch-up: whoever still runs rounds for a decided instance gets the
    // decision directly.
    if (from != ctx_.self()) {
      Writer w(inst.decision.size() + 16);
      w.u8(kDecide);
      w.u64(k);
      w.blob(inst.decision);
      ctx_.send(from, w.take());
    }
    return;
  }

  if (!inst.proposed && k <= floor_) {
    // Restart-amnesia floor (D6): this incarnation never proposes — and
    // so never acts — in this instance. Answer round traffic with an
    // abstain so the sender stops waiting on us (e.g. as coordinator).
    if (from != ctx_.self()) send_abstain(from);
    return;
  }

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
    case kDecide:
    case kAbstain:
      IBC_UNREACHABLE("handled above");
  }
}

}  // namespace ibc::consensus
