// Multi-instance consensus abstraction and quorum arithmetic.
//
// Uniform consensus (Chandra & Toueg [2]): each process proposes a value;
// all processes decide the same value, which was proposed by someone.
// The atomic-broadcast reduction runs an unbounded *sequence* of consensus
// instances (k = 1, 2, ...), so the interface is multi-instance from the
// start: `propose(k, value)` and a decide callback tagged with k.
//
// Values are opaque byte strings. Two implementations are provided:
//   * CtConsensus — Chandra-Toueg ♦S rotating-coordinator algorithm,
//     f < n/2 (consensus/ct.hpp);
//   * MrConsensus — Mostéfaoui-Raynal ♦S quorum algorithm, f < n/2,
//     2 communication steps in good runs (consensus/mr.hpp).
// Both run on one round engine (consensus/round_engine.hpp), which owns
// everything around the rounds: the instance table, the coordinator
// rotation, decision dissemination and the restart-amnesia floor. Each
// keeps only its phases, and exposes the exact decision points the paper
// modifies to obtain indirect consensus (`CtConfig`, `MrConfig`; the
// indirect settings of those points are built in core/indirect.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/bytes.hpp"

namespace ibc::consensus {

/// Instance number in the unbounded sequence of consensus executions.
using InstanceId = std::uint64_t;

/// ⌈(n+1)/2⌉ — majority quorum (CT and original MR).
constexpr std::uint32_t majority(std::uint32_t n) { return n / 2 + 1; }

/// ⌈(2n+1)/3⌉ — phase-2 quorum of the *indirect* MR algorithm
/// (Algorithm 3); forces f < n/3.
constexpr std::uint32_t two_thirds_quorum(std::uint32_t n) {
  return (2 * n + 3) / 3;
}

/// ⌈(n+1)/3⌉ — minimum number of copies that proves at least one correct
/// process vouches for a value in indirect MR (Algorithm 3, line 28).
constexpr std::uint32_t one_third_quorum(std::uint32_t n) {
  return (n + 3) / 3;
}

class Consensus {
 public:
  using DecideFn = std::function<void(InstanceId, BytesView)>;

  virtual ~Consensus() = default;

  /// Proposes `value` in instance `k`. Each process proposes at most once
  /// per instance. Proposing in an instance whose decision already
  /// arrived is a harmless no-op (the decide callback has fired).
  virtual void propose(InstanceId k, Bytes value) = 0;

  virtual bool has_decided(InstanceId k) const = 0;

  /// Restart-amnesia floor (docs/PROTOCOL.md D6): this incarnation must
  /// not vote in any instance k <= floor, and announces its abstention
  /// instead of staying silent (a silent alive abstainer wedges the
  /// rounds it would coordinate — peers neither see a proposal nor a
  /// suspicion).
  virtual void set_participation_floor(InstanceId floor) = 0;

  /// Registers a decision handler; fired exactly once per instance, in
  /// the instance's decision order at this process (instances may decide
  /// out of numeric order).
  void subscribe_decide(DecideFn fn) {
    subscribers_.push_back(std::move(fn));
  }

  /// Execution counters (observability for tests and ablation benches).
  struct Stats {
    std::uint64_t rounds_started = 0;
    std::uint64_t proposals_accepted = 0;
    std::uint64_t proposals_refused = 0;  // nacks / ⊥-echoes from rcv
    std::uint64_t decides_relayed = 0;
  };
  const Stats& stats() const { return stats_; }

 protected:
  void fire_decide(InstanceId k, BytesView value) const {
    for (const DecideFn& fn : subscribers_) fn(k, value);
  }

  Stats stats_;

 private:
  std::vector<DecideFn> subscribers_;
};

}  // namespace ibc::consensus
