// Peer catch-up protocol for restarted processes.
//
// After replay a restarted process knows the decided order up to its
// durable log tail, but (a) decisions made while it was down are gone —
// their decide floods were dropped at the dead NIC — and (b) the
// payloads of its ordered-but-undelivered backlog lived in RAM. Both
// gaps are filled from live peers over this layer:
//
//   ReqState{from_k}    ->  RespState{(k, appended-entries)...}
//   ReqPayload{ids...}  ->  RespPayload{(id, payloads...)...}
//   ReqPool{}           ->  RespPool{flag, (id, payloads...)...}
//
// Every recovery-enabled process serves these requests from its
// `RecoveryManager` (decision history + payload archive, with the
// ordering core's received set as a fallback). The recovering side
// polls: a repeating timer re-requests until the decision gap is closed
// and no backlog payload is missing — responses feed the ordering core
// through its normal idempotent entry points (`on_decision`,
// `on_rdeliver`), so duplicate or overlapping responses from several
// peers are harmless, and polling rides out message loss under hostile
// fault plans. Decisions fetched here are the post-dedup appended
// entries, applied in the same canonical order as at the serving peer,
// so the total order is preserved (PROTOCOL.md D6).
//
// ReqPool re-floods the peer's *undecided* R-delivered batches. This is
// what restores the reliable-broadcast completeness property that
// restart amnesia breaks: RB relays fire once, on first receipt, so a
// message flooded while this process was down is never re-sent to the
// new incarnation — it would never re-enter this process's proposal
// pool, and this process would never propose (and so never vote) in the
// consensus instances trying to order it. With whole-round-coordinator
// engines (CT's round-1 coordinator, MR's per-round coordinator) a live
// process that never proposes in an instance silently wedges it: it is
// never suspected and never abstains. Any relay dropped at the dead NIC
// happened before this peer could serve catch-up, so the peer's
// undecided pool (plus its decided history, served above) provably
// covers the amnesia window. A RespPool flag marks the response
// authoritative-and-complete: only such a response ends the pool poll,
// so two concurrently recovering processes cannot satisfy each other
// with their amnesiac pools.
#pragma once

#include <cstdint>

#include "core/ordering.hpp"
#include "recovery/recovery.hpp"
#include "runtime/stack.hpp"

namespace ibc::recovery {

/// Stack layer id of the catch-up message pair.
inline constexpr runtime::LayerId kLayerCatchup = 7;

class CatchupLayer final : public runtime::Layer {
 public:
  CatchupLayer(RecoveryManager& manager, core::OrderingCore& ordering)
      : manager_(manager), ordering_(ordering) {}

  void bind(runtime::LayerContext ctx) { ctx_ = ctx; }

  /// Starts the recovery poll (called by the runtime on a restarted
  /// process after the stack is up). First-boot processes never poll —
  /// they only serve.
  void begin();

  /// True once the decision gap is closed, no backlog payload is
  /// missing, and a peer confirmed it has nothing newer.
  bool caught_up() const { return begun_ && done_; }
  bool recovering() const { return begun_ && !done_; }

  /// Wired to RecoveryManager::set_apply_listener: a decision applied
  /// *after* the poll finished can still order an id this process never
  /// received — its flood completed while the process was down, and
  /// completed floods are never re-sent (the previous incarnation may
  /// even have been the origin). Re-arms the payload poll in that case;
  /// a no-op on first-boot processes and while a poll is running.
  void notify_decision_applied();

  void on_message(ProcessId from, Reader& r) override;

 private:
  void poll();
  void handle_req_state(ProcessId from, Reader& r);
  void handle_resp_state(Reader& r);
  void handle_req_payload(ProcessId from, Reader& r);
  void handle_resp_payload(Reader& r);
  void handle_req_pool(ProcessId from);
  void handle_resp_pool(Reader& r);
  /// Shared body decoder of RespPayload / RespPool entries.
  void feed_batches(Reader& r, std::uint32_t count);

  RecoveryManager& manager_;
  core::OrderingCore& ordering_;
  runtime::LayerContext ctx_;
  bool begun_ = false;
  bool done_ = false;
  /// A peer answered ReqState exhaustively (short response).
  bool state_synced_ = false;
  /// A non-recovering peer served its complete undecided pool.
  bool pool_synced_ = false;
  /// Consecutive polls with nothing left to ask for; two in a row end
  /// the poll loop.
  std::uint32_t clean_polls_ = 0;
};

}  // namespace ibc::recovery
