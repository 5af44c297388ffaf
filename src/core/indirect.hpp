// Indirect consensus — the paper's central abstraction (§2.3).
//
// A proposal is a pair (v, rcv): a set of message identifiers and a
// predicate telling whether this process currently holds msgs(v). The
// problem strengthens uniform consensus with:
//
//   Termination        under Hypothesis A: if rcv(v) holds at a correct
//                      process it eventually holds at all correct
//                      processes (supplied by reliable-broadcast
//                      Agreement — Algorithm 1 §2.4);
//   Uniform integrity  every process decides at most once;
//   Uniform agreement  no two processes decide differently;
//   Uniform validity   a decided v was proposed by some process;
//   No loss            if v is decided at time t, some correct process
//                      has received msgs(v) at time t.
//
// §3.1 shows No loss holds iff every v-valent configuration (all future
// decisions are v) is also v-stable (f+1 processes hold msgs(v)) — the
// proof obligation the two engine configurations below discharge.
//
// Neither adaptation is a new algorithm: each changes decision points the
// CT and MR engines already expose (`CtConfig`, `MrConfig`). The rcv
// predicate is Algorithm 1's lines 9-10 over this process's received set;
// it is the same for every instance, so it is bound once per process, and
// the engines evaluate it only in instances this process proposed in.
// Values travel as serialized `IdSet`s (`IdSet::to_value`).
//
// Every rcv evaluation is also charged to the simulated CPU
// (`cost_per_id` × |v|): the measured overhead of indirect consensus in
// the paper's Figures 3-4 is the Java-era cost of exactly these lookups,
// which the C++ implementation would otherwise erase.
#pragma once

#include <functional>

#include "consensus/ct.hpp"
#include "consensus/mr.hpp"
#include "core/id_set.hpp"
#include "runtime/env.hpp"

namespace ibc::core {

/// The rcv predicate: true iff msgs(v) have all been received locally.
/// Supplied by the atomic-broadcast layer (Algorithm 1 lines 9-10);
/// must be monotone (once true, stays true) and satisfy Hypothesis A.
using RcvFn = std::function<bool(const IdSet&)>;

/// Indirect consensus from Chandra-Toueg ♦S consensus — Algorithm 2.
///
/// The adaptation (§3.2) changes exactly one decision point of the CT
/// engine: in Phase 3 a process — the coordinator included — adopts the
/// coordinator's proposal v and acks only if rcv(v) holds; otherwise it
/// nacks and keeps its own estimate. Everything else (majority quorums,
/// timestamps, decide dissemination) is the original algorithm, so the
/// resilience stays f < n/2.
///
/// Why this gives No loss (§3.2.3): a v-valent configuration means every
/// future coordinator selects v, so at least ⌈(n+1)/2⌉ processes hold v as
/// their estimate; each of them either proposed v (and a proposer has
/// msgs(v) by the reduction's precondition) or adopted it through the
/// rcv-gated Phase 3 — either way it has received msgs(v), so the
/// configuration is v-stable.
consensus::CtConfig indirect_ct(runtime::Env& env, Duration cost_per_id,
                                RcvFn rcv);

/// Indirect consensus from Mostéfaoui-Raynal ♦S consensus — Algorithm 3.
///
/// §3.3.2 shows the MR algorithm cannot be adapted by an acceptance test
/// alone: a process that suspects the coordinator and lacks msgs(v) cannot
/// distinguish an execution where it must adopt v (Uniform agreement) from
/// one where adopting v would break No loss. The adaptation therefore
/// changes three things (all three expressed as MrConfig policies):
///
///   1. Phase 1: a process echoes the coordinator's value v only if
///      rcv(v) holds, otherwise it echoes ⊥ (lines 16-19);
///   2. Phase 2 waits for ⌈(2n+1)/3⌉ echoes instead of a majority
///      (line 22) — any two such quorums intersect in ≥ ⌈(n+1)/3⌉ ≥ f+1
///      processes, which is what restores Uniform agreement;
///   3. a valid value v seen next to ⊥ echoes is adopted only if rcv(v)
///      holds or v was received from ≥ ⌈(n+1)/3⌉ processes, i.e. from at
///      least one correct process that holds msgs(v) (lines 27-29).
///
/// The price is resilience: f < n/3 instead of the original f < n/2 —
/// the paper's headline example that indirect consensus adaptations are
/// not free.
consensus::MrConfig indirect_mr(runtime::Env& env, Duration cost_per_id,
                                RcvFn rcv);

}  // namespace ibc::core
