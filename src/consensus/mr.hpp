// Mostéfaoui-Raynal ♦S consensus (quorum-based), multi-instance.
//
// The algorithm of [7] as presented in §3.3.1 of the paper, with the
// pseudocode of Algorithm 3. Each round has two phases:
//
//   Phase 1  the round's coordinator sends its estimate to all; every
//            other process waits for it (or suspects the coordinator, ♦S)
//            and adopts est_from_c = v or ⊥ accordingly; then every
//            process echoes est_from_c to all;
//   Phase 2  every process waits for a quorum of echoes. If all of them
//            carry the same valid value v it decides v (R-broadcasts a
//            DECIDE); if the set is {v, ⊥} it may adopt v; then it
//            proceeds to the next round.
//
// Good runs decide within two communication steps. The instance table,
// the coordinator rotation, DECIDE dissemination and the restart-amnesia
// floor are the shared round engine's (round_engine.hpp); this file
// holds the two phases.
//
// The original algorithm uses a majority quorum, tolerates f < n/2 and
// adopts v on any single valid copy. Three decision points change for
// the indirect adaptation (Algorithm 3) and are exposed in MrConfig:
//   * accept_phase1 — whether a non-coordinator turns the coordinator's
//     value into its echo, or echoes ⊥ (lines 16-19; indirect: rcv);
//   * quorum — the phase-2 wait threshold (line 22; indirect:
//     ⌈(2n+1)/3⌉, which is what reduces resilience to f < n/3);
//   * adopt_phase2 — whether a valid value seen next to ⊥ values may be
//     adopted (lines 27-29; indirect: rcv(v) or ≥ ⌈(n+1)/3⌉ copies).
//
// §3.3.2 of the paper proves no choice of accept/adopt policies preserves
// both Uniform agreement and No loss at the original majority quorum —
// the quorum change is unavoidable, not an implementation choice.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "consensus/round_engine.hpp"

namespace ibc::consensus {

struct MrConfig {
  /// Phase-1 test applied by non-coordinators to the coordinator's value;
  /// false turns the echo into ⊥. nullptr = original MR (always accept).
  std::function<bool(InstanceId, BytesView)> accept_phase1;

  /// Phase-2 adoption test for a valid value v observed together with ⊥
  /// echoes; `count` is the number of quorum echoes carrying v.
  /// nullptr = original MR (always adopt).
  std::function<bool(InstanceId, BytesView, std::uint32_t count)>
      adopt_phase2;

  /// Phase-2 quorum as a function of n. nullptr = majority (original MR).
  std::function<std::uint32_t(std::uint32_t)> quorum;
};

namespace mr {

/// An echo: the value relayed from the coordinator, or ⊥ (nullopt).
using Echo = std::optional<Bytes>;

struct RoundData {
  std::optional<Bytes> coord_value;  // phase-1 value from coordinator
  // Echoes in arrival order (phase 2 acts on the first `quorum()` of
  // them, exactly like the pseudocode's "wait until received from ⌈q⌉
  // processes").
  std::vector<std::pair<ProcessId, Echo>> echo_order;
  std::unordered_set<ProcessId> echo_from;  // dedup
  bool acted = false;                       // phase-2 step done
};

enum class Wait : std::uint8_t {
  kNone,    // not participating
  kCoord,   // phase 1: waiting for the coordinator's value
  kEchoes,  // phase 2: waiting for the echo quorum
};

}  // namespace mr

class MrConsensus final : public RoundEngine<mr::RoundData, mr::Wait> {
 public:
  MrConsensus(runtime::Stack& stack, runtime::LayerId layer_id,
              fd::FailureDetector& detector, MrConfig config = {});

  /// The effective phase-2 quorum for this configuration.
  std::uint32_t quorum() const;

 private:
  void enter_round(InstanceId k, Instance& inst) override;
  /// Phase 1 (the only phase that waits on the coordinator).
  void on_coordinator_gone(InstanceId k, Instance& inst) override {
    try_phase1(k, inst);
  }
  void on_round_message(ProcessId from, std::uint8_t type, InstanceId k,
                        Instance& inst, Reader& r) override;

  void try_phase1(InstanceId k, Instance& inst);
  void send_echo(InstanceId k, Instance& inst, const mr::Echo& echo);
  void try_phase2(InstanceId k, Instance& inst);

  MrConfig config_;
};

}  // namespace ibc::consensus
