#include "consensus/mr.hpp"

#include <utility>

#include "util/assert.hpp"

namespace ibc::consensus {

namespace {
enum MsgType : std::uint8_t {
  kCoord = 1,    // phase 1: (r, estimate) coordinator -> all
  kEcho = 2,     // phase 1->2: (r, ⊥ | value) -> all
  kDecide = 3,   // the round engine's DECIDE
  kAbstain = 4,  // the round engine's abstain announcement
};
}  // namespace

using mr::Echo;
using mr::RoundData;
using mr::Wait;

MrConsensus::MrConsensus(runtime::Stack& stack, runtime::LayerId layer_id,
                         fd::FailureDetector& detector, MrConfig config)
    : RoundEngine(stack, layer_id, "mr", detector, {kDecide, kAbstain}),
      config_(std::move(config)) {}

std::uint32_t MrConsensus::quorum() const {
  return config_.quorum ? config_.quorum(ctx_.n()) : majority(ctx_.n());
}

void MrConsensus::enter_round(InstanceId k, Instance& inst) {
  const std::uint32_t r = inst.round;
  if (coord_of(r) == ctx_.self()) {
    // Phase 1, coordinator side: est_from_c is our own estimate
    // (Algorithm 3 line 11) — no acceptance test on one's own value.
    Writer w(inst.estimate.size() + 16);
    w.u8(kCoord);
    w.u64(k);
    w.u32(r);
    w.blob(inst.estimate);
    ctx_.send_to_others(w.take());
    send_echo(k, inst, Echo(inst.estimate));
  } else {
    inst.wait = Wait::kCoord;
    try_phase1(k, inst);
  }
}

void MrConsensus::try_phase1(InstanceId k, Instance& inst) {
  if (inst.wait != Wait::kCoord) return;
  RoundData& rd = inst.rounds[inst.round];
  if (rd.coord_value.has_value()) {
    // Algorithm 3 lines 15-19: echo the coordinator's value only if the
    // acceptance policy holds (original MR: always; indirect: rcv).
    const bool accept = !config_.accept_phase1 ||
                        config_.accept_phase1(k, *rd.coord_value);
    if (accept) {
      ++stats_.proposals_accepted;
      send_echo(k, inst, rd.coord_value);
    } else {
      ++stats_.proposals_refused;
      send_echo(k, inst, std::nullopt);
    }
  } else if (coordinator_gone(k, inst)) {
    // An announced abstention is handled like a suspicion: the
    // coordinator is alive but will never send its value here.
    send_echo(k, inst, std::nullopt);
  }
  // Otherwise wait: a coordinator value, a suspicion, or an abstain
  // announcement will re-trigger this check.
}

void MrConsensus::send_echo(InstanceId k, Instance& inst,
                            const Echo& echo) {
  Writer w((echo ? echo->size() : 0) + 20);
  w.u8(kEcho);
  w.u64(k);
  w.u32(inst.round);
  w.u8(echo.has_value() ? 1 : 0);
  if (echo.has_value()) w.blob(*echo);
  ctx_.send_to_all(w.take());
  inst.wait = Wait::kEchoes;
  try_phase2(k, inst);  // the quorum may already have accumulated
}

void MrConsensus::try_phase2(InstanceId k, Instance& inst) {
  if (inst.wait != Wait::kEchoes) return;
  const std::uint32_t q = quorum();
  RoundData& rd = inst.rounds[inst.round];
  if (rd.acted || rd.echo_order.size() < q) return;
  rd.acted = true;

  // Consider exactly the first q echoes, like the pseudocode's blocking
  // wait. Crash faults only: all valid echoes of a round carry the
  // coordinator's single value, which the assertion below documents.
  const Bytes* valid = nullptr;
  std::uint32_t valid_count = 0;
  for (std::uint32_t i = 0; i < q; ++i) {
    const Echo& e = rd.echo_order[i].second;
    if (!e.has_value()) continue;
    if (valid == nullptr) {
      valid = &*e;
    } else {
      IBC_ASSERT_MSG(bytes_equal(*valid, *e),
                     "two distinct valid values in one MR round");
    }
    ++valid_count;
  }

  if (valid != nullptr && valid_count == q) {
    // rec_p = {v}: decide (Algorithm 3 lines 24-26).
    decide(k, inst, *valid, ctx_.self());
    return;
  }
  if (valid != nullptr) {
    // rec_p = {v, ⊥}: adopt if the policy allows (lines 27-29).
    if (!config_.adopt_phase2 ||
        config_.adopt_phase2(k, *valid, valid_count)) {
      inst.estimate = *valid;
    }
  }
  next_round(k, inst);
}

void MrConsensus::on_round_message(ProcessId from, std::uint8_t type,
                                   InstanceId k, Instance& inst, Reader& r) {
  switch (type) {
    case kCoord: {
      const std::uint32_t round = r.u32();
      Bytes value = r.blob();
      if (round < inst.round) return;  // stale
      RoundData& rd = inst.rounds[round];
      rd.coord_value = std::move(value);
      if (inst.proposed && round == inst.round) try_phase1(k, inst);
      break;
    }
    case kEcho: {
      const std::uint32_t round = r.u32();
      const bool has_value = r.u8() != 0;
      Echo echo = has_value ? Echo(r.blob()) : std::nullopt;
      if (round < inst.round) return;  // stale
      RoundData& rd = inst.rounds[round];
      if (rd.echo_from.insert(from).second)
        rd.echo_order.emplace_back(from, std::move(echo));
      if (inst.proposed && round == inst.round) try_phase2(k, inst);
      break;
    }
    default:
      break;  // kDecide and kAbstain are the engine's; others are ignored
  }
}

}  // namespace ibc::consensus
