// Reliable broadcast by flooding — O(n²) messages, 1 step in good runs.
//
// The classical algorithm from Chandra & Toueg [2]: the origin sends m to
// every process; every process relays m to every other process the first
// time it receives it, then delivers. Agreement holds even if the origin
// crashes mid-broadcast: any process that received m forwards it before
// delivering, so if any correct process delivers m every correct process
// eventually receives it. Total messages per broadcast:
// (n-1) + (n-1)(n-2) = (n-1)².
//
// Note this gives *reliable*, not uniform, broadcast: a process delivers
// on first receipt, so a process may deliver and crash before its relays
// leave the host — then no other process ever sees m. That gap is exactly
// what breaks atomic broadcast when plain consensus runs on message ids
// (§2.2), and what indirect consensus repairs.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "bcast/broadcast.hpp"
#include "runtime/stack.hpp"
#include "util/id_runs.hpp"
#include "util/payload.hpp"

namespace ibc::bcast {

class RbFlood final : public runtime::Layer, public BroadcastService {
 public:
  RbFlood(runtime::Stack& stack, runtime::LayerId layer_id);

  void broadcast(Bytes payload) override;

  /// See BroadcastService: makes a restarted incarnation's (origin, seq)
  /// keys disjoint from the dead incarnation's, which peers still hold
  /// in their dedup tables.
  void set_seq_base(std::uint64_t base) override { next_seq_ = base; }

  void on_message(ProcessId from, Reader& r) override;

 private:
  /// Key of a broadcast for dedup: (origin, per-origin sequence).
  runtime::LayerContext ctx_;
  std::uint64_t next_seq_ = 0;
  /// Keys received so far: one run per origin (plus one per restart's
  /// seq-base jump), since an origin's keys are consecutive.
  IdRuns seen_;
  /// Own broadcasts awaiting loopback delivery: the payload retained at
  /// broadcast() so the delivery shares it instead of re-copying the
  /// frame (consumed, and the entry erased, on loopback receipt).
  std::unordered_map<MessageId, Payload> own_;
};

}  // namespace ibc::bcast
