// The instance lifecycle shared by the CT and MR engines.
//
// Chandra-Toueg (ct.hpp) and Mostéfaoui-Raynal (mr.hpp) differ only in
// what happens inside a round. Everything around the rounds is the same
// for both and lives here once:
//
//   * the instance table, `propose`, `has_decided` and `round_of`;
//   * the rotating coordinator, coord_of(r) = (r mod n) + 1, and the
//     test "the round's coordinator is gone" (suspected by ♦S, or it
//     announced abstention from the instance);
//   * decision dissemination: the decider sends DECIDE to everyone, and
//     every process relays it on first receipt before deciding, so a
//     decision survives its decider crashing mid-send (a reliable
//     broadcast of the decision). A decided process answers any round
//     traffic for that instance with the decision;
//   * the restart-amnesia floor (docs/PROTOCOL.md D6): a restarted
//     incarnation votes in no instance its predecessor may have voted
//     in, and announces that abstention at start and in reply to round
//     traffic for a barred instance. Peers treat an abstaining
//     coordinator exactly like a suspected one;
//   * the deferred advance to the next round, and the wake of every
//     instance blocked on a coordinator that is gone.
//
// A derived engine supplies its per-round data `Round`, its wait states
// `Wait` (which must have a `kNone` member: not in a round step), its
// wire tags for DECIDE and abstain, and three hooks: `enter_round` (its
// phases at the start of a round), `on_coordinator_gone` (re-check the
// phase that waits on the coordinator) and `on_round_message` (its own
// message types).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "consensus/consensus.hpp"
#include "fd/failure_detector.hpp"
#include "runtime/stack.hpp"
#include "util/assert.hpp"

namespace ibc::consensus {

template <class Round, class Wait>
class RoundEngine : public runtime::Layer, public Consensus {
 public:
  void propose(InstanceId k, Bytes value) override;
  bool has_decided(InstanceId k) const override;

  /// Restart-amnesia floor (docs/PROTOCOL.md D6): this incarnation must
  /// not vote in any instance k <= floor — a previous incarnation may
  /// already have, and voting again with wiped round state could
  /// contradict it. Abstention is announced (at start, and in reply to
  /// round messages for barred instances), because an abstainer that
  /// stays silent wedges the rounds it would coordinate: it is alive,
  /// so ♦S never suspects it, and without a proposal or a suspicion the
  /// other processes wait forever.
  void set_participation_floor(InstanceId floor) override { floor_ = floor; }

  void on_start() override;
  void on_message(ProcessId from, Reader& r) override;

  /// Current round of instance `k` (0 if not started) — test observability.
  std::uint32_t round_of(InstanceId k) const {
    const auto it = instances_.find(k);
    return it == instances_.end() ? 0 : it->second.round;
  }

 protected:
  struct Instance {
    bool proposed = false;
    bool decided = false;
    Wait wait = Wait::kNone;
    std::uint32_t round = 0;
    std::uint32_t ts = 0;  // round `estimate` was adopted in (CT only)
    Bytes decision;
    Bytes estimate;
    std::map<std::uint32_t, Round> rounds;
  };

  /// The engine's two message types, as the derived engine numbers them
  /// on the wire.
  struct Tags {
    std::uint8_t decide;   // (k, value), relayed on first receipt
    std::uint8_t abstain;  // (floor): sender votes in no instance <= floor
  };

  RoundEngine(runtime::Stack& stack, runtime::LayerId layer_id,
              std::string name, fd::FailureDetector& detector, Tags tags)
      : ctx_(stack.register_layer(layer_id, *this, std::move(name))),
        detector_(detector),
        tags_(tags),
        abstain_floor_(ctx_.n() + 1, 0) {
    detector_.subscribe([this](ProcessId p, bool suspected) {
      if (suspected) wake(p, std::numeric_limits<InstanceId>::max());
    });
  }

  /// The algorithm's phases at the start of round `inst.round`.
  virtual void enter_round(InstanceId k, Instance& inst) = 0;
  /// Re-checks the phase of `inst` that waits on its round's
  /// coordinator. Called when that coordinator may be gone; acts only if
  /// `coordinator_gone` holds and the instance still waits on it.
  virtual void on_coordinator_gone(InstanceId k, Instance& inst) = 0;
  /// A round message of the algorithm's own `type`, for an instance this
  /// process neither decided nor abstains from. Unknown types are ignored.
  virtual void on_round_message(ProcessId from, std::uint8_t type,
                                InstanceId k, Instance& inst,
                                Reader& r) = 0;

  ProcessId coord_of(std::uint32_t round) const {
    return (round % ctx_.n()) + 1;
  }

  /// The coordinator of `inst`'s current round is suspected, or it
  /// announced that it abstains from instance `k`.
  bool coordinator_gone(InstanceId k, const Instance& inst) const {
    const ProcessId coord = coord_of(inst.round);
    return detector_.is_suspected(coord) || k <= abstain_floor_[coord];
  }

  /// Leaves the current round; round+1 starts from a deferred event, so
  /// the recursion depth stays constant when several coordinators are
  /// gone back-to-back.
  void next_round(InstanceId k, Instance& inst) {
    const std::uint32_t r = inst.round;
    inst.wait = Wait::kNone;
    ctx_.defer([this, k, r] {
      Instance& i = instance(k);
      if (!i.decided && i.proposed && i.round == r && i.wait == Wait::kNone)
        open_round(k, i, r + 1);
    });
  }

  /// Sends DECIDE(k, value) to every process except self and `skip`,
  /// then decides `k` locally. `value` may view `inst`'s own round data:
  /// it is copied before that is freed.
  void decide(InstanceId k, Instance& inst, BytesView value,
              ProcessId skip) {
    IBC_ASSERT(!inst.decided);
    const Bytes wire = decide_message(k, value);
    const std::uint32_t n = ctx_.n();
    for (ProcessId p = 1; p <= n; ++p)
      if (p != ctx_.self() && p != skip) ctx_.send(p, wire);

    inst.decided = true;
    inst.decision = to_bytes(value);
    Bytes().swap(inst.estimate);  // only `decision` is read from here on
    inst.wait = Wait::kNone;
    inst.rounds.clear();
    ctx_.log().logf(LogLevel::kDebug, "k=%llu decided (%zu bytes)",
                    static_cast<unsigned long long>(k),
                    inst.decision.size());
    fire_decide(k, inst.decision);
  }

  runtime::LayerContext ctx_;

 private:
  Instance& instance(InstanceId k) { return instances_[k]; }

  void open_round(InstanceId k, Instance& inst, std::uint32_t r) {
    IBC_ASSERT(!inst.decided && inst.proposed);
    inst.round = r;
    ++stats_.rounds_started;
    ctx_.log().logf(LogLevel::kTrace, "k=%llu round %u coord p%u",
                    static_cast<unsigned long long>(k), r, coord_of(r));
    enter_round(k, inst);
  }

  /// Wakes every instance up to `max_k` whose round `p` coordinates.
  /// The keys are collected first: a wake can decide (MR), and the
  /// decision's subscribers may propose, inserting into the table.
  void wake(ProcessId p, InstanceId max_k) {
    std::vector<InstanceId> blocked;
    for (const auto& [k, inst] : instances_)
      if (k <= max_k && coord_of(inst.round) == p) blocked.push_back(k);
    for (const InstanceId k : blocked)
      on_coordinator_gone(k, instances_.find(k)->second);
  }

  Bytes decide_message(InstanceId k, BytesView value) const {
    Writer w(value.size() + 16);
    w.u8(tags_.decide);
    w.u64(k);
    w.blob(value);
    return w.take();
  }

  void send_abstain(ProcessId dst) {
    Writer w(12);
    w.u8(tags_.abstain);
    w.u64(floor_);
    ctx_.send(dst, w.take());
  }

  fd::FailureDetector& detector_;
  const Tags tags_;
  std::unordered_map<InstanceId, Instance> instances_;
  InstanceId floor_ = 0;  // own abstention floor (restart recovery)
  std::vector<InstanceId> abstain_floor_;  // [1..n] peers' announced floors
};

template <class Round, class Wait>
void RoundEngine<Round, Wait>::propose(InstanceId k, Bytes value) {
  Instance& inst = instance(k);
  IBC_REQUIRE_MSG(!inst.proposed, "duplicate propose in instance");
  inst.proposed = true;
  if (inst.decided) return;  // decision arrived before we proposed
  inst.estimate = std::move(value);
  open_round(k, inst, 1);
}

template <class Round, class Wait>
bool RoundEngine<Round, Wait>::has_decided(InstanceId k) const {
  const auto it = instances_.find(k);
  return it != instances_.end() && it->second.decided;
}

template <class Round, class Wait>
void RoundEngine<Round, Wait>::on_start() {
  // A restarted incarnation announces its abstention floor up front:
  // peers already running rounds of a barred instance may be waiting on
  // *us* as that round's coordinator, with nothing in flight that would
  // trigger the reactive reply in on_message.
  if (floor_ == 0) return;
  const std::uint32_t n = ctx_.n();
  for (ProcessId p = 1; p <= n; ++p) {
    if (p != ctx_.self()) send_abstain(p);
  }
}

template <class Round, class Wait>
void RoundEngine<Round, Wait>::on_message(ProcessId from, Reader& r) {
  const std::uint8_t type = r.u8();
  const InstanceId k = r.u64();

  if (type == tags_.abstain) {
    // Here the u64 is the sender's participation floor, not an instance
    // id: `from` votes in no instance <= k. Record it and wake every
    // instance blocked on `from` as coordinator.
    if (k > abstain_floor_[from]) {
      abstain_floor_[from] = k;
      wake(from, k);
    }
    return;
  }

  Instance& inst = instance(k);

  if (type == tags_.decide) {
    if (!inst.decided) {
      // Relay on first receipt, then decide locally.
      ++stats_.decides_relayed;
      decide(k, inst, r.blob_view(), from);
    }
    return;
  }

  if (inst.decided) {
    // Catch-up: whoever still runs rounds for a decided instance gets the
    // decision directly.
    if (from != ctx_.self()) ctx_.send(from, decide_message(k, inst.decision));
    return;
  }

  if (!inst.proposed && k <= floor_) {
    // Restart-amnesia floor (D6): this incarnation never proposes — and
    // so never acts — in this instance. Answer round traffic with an
    // abstain so the sender stops waiting on us (e.g. as coordinator).
    if (from != ctx_.self()) send_abstain(from);
    return;
  }

  on_round_message(from, type, k, inst, r);
}

}  // namespace ibc::consensus
