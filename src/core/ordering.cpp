#include "core/ordering.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace ibc::core {

OrderingCore::OrderingCore(Callbacks callbacks, std::uint32_t window)
    : callbacks_(std::move(callbacks)), window_(window) {
  IBC_REQUIRE(callbacks_.start_instance != nullptr);
  IBC_REQUIRE(callbacks_.adeliver != nullptr);
  IBC_REQUIRE_MSG(window_ >= 1, "pipeline window must be at least 1");
}

void OrderingCore::restore(Restored state) {
  IBC_REQUIRE_MSG(delivered_.empty() && ordered_.empty() &&
                      received_.empty() && applied_k_ == 0 &&
                      opened_k_ == 0,
                  "restore requires a freshly constructed core");
  delivered_ = std::move(state.delivered);
  delivered_batches_ = state.batches_delivered;
  msgs_delivered_ = state.msgs_delivered;
  for (const MessageId& id : state.ordered) {
    ordered_.push_back(id);
    ordered_set_.insert(id);
  }
  applied_k_ = state.applied_k;
  opened_k_ = state.opened_k;
  restored_floor_ = state.opened_k;
}

void OrderingCore::on_rdeliver(const MessageId& id,
                               std::vector<Payload> payloads) {
  IBC_ASSERT_MSG(!payloads.empty(), "a batch carries at least one message");
  if (delivered_.contains(id) || received_.contains(id)) return;
  received_.emplace(id, std::move(payloads));
  // Line 13: only ids not already ordered become consensus candidates.
  if (!ordered_set_.contains(id)) {
    unordered_.insert(id);
    unproposed_.insert(id);
  }
  try_deliver();
  maybe_start_instances();
}

void OrderingCore::on_decision(consensus::InstanceId k, const IdSet& ids) {
  IBC_ASSERT_MSG(k > applied_k_, "decision for an already-applied instance");
  pending_decisions_.emplace(k, ids);
  // Apply in instance order; later decisions wait for their turn.
  while (true) {
    const auto it = pending_decisions_.find(applied_k_ + 1);
    if (it == pending_decisions_.end()) break;
    const IdSet next = std::move(it->second);
    pending_decisions_.erase(it);
    apply_decision(applied_k_ + 1, next);
  }
  maybe_start_instances();
}

void OrderingCore::apply_decision(consensus::InstanceId k,
                                  const IdSet& ids) {
  applied_k_ = k;
  // Close our open instance k, if any.
  IdSet closed;
  const auto open = inflight_.find(k);
  if (open != inflight_.end()) {
    closed = std::move(open->second);
    for (const MessageId& id : closed) proposed_.erase(id);
    inflight_.erase(open);
  }
  // Line 19: unordered \ idSet.
  unordered_.remove_all(ids);
  unproposed_.remove_all(ids);
  // Ids the closed instance proposed but this decision did not order are
  // still unordered: they return to the pool and ride a later instance.
  for (const MessageId& id : closed) {
    if (unordered_.contains(id)) unproposed_.insert(id);
  }
  // Lines 20-21: append in the canonical (deterministic) order. Under a
  // window another process may have grouped an id into a different
  // instance number, so a decided set can overlap an earlier decision;
  // such ids were already ordered (or delivered) and are skipped —
  // exactly-once A-delivery. Every process applies the same decisions in
  // the same order, so every process skips the same ids.
  std::vector<MessageId> appended;
  for (const MessageId& id : ids) {
    if (!skip_dedup_for_test_ &&
        (delivered_.contains(id) || ordered_set_.contains(id))) {
      ++ids_deduplicated_;
      continue;
    }
    ordered_.push_back(id);
    ordered_set_.insert(id);
    appended.push_back(id);
  }
  // Journaled even when nothing was appended: replay must advance past
  // k. Logged before the deliveries it unblocks (write-ahead order).
  if (journal_ != nullptr) journal_->on_decision_applied(k, appended);
  try_deliver();
}

void OrderingCore::maybe_start_instances() {
  // Open an instance while the window has room and there are unordered
  // ids not yet proposed in an open instance (a new instance takes the
  // whole pool, so one iteration drains it). The instance number is the
  // *smallest* one this process has not touched: above everything
  // applied (and, after a restart, above the journaled participation
  // floor — this incarnation may have voted in anything at or below it),
  // skipping numbers whose decision already arrived (the decision is
  // fixed — proposing there would be wasted work) and numbers we already
  // have in flight.
  //
  // The number chosen here is liveness-critical: an instance decides
  // only once enough processes propose in it — a process that never
  // proposes in k never votes in k (the consensus engines buffer round
  // traffic for unproposed instances), and a live non-proposer is never
  // suspected, so an instance with too few proposers wedges silently.
  // Liveness therefore needs every correct process's pool to converge
  // (reliable broadcast; restored across restarts by the catch-up pool
  // re-flood, src/recovery/catchup.hpp) *and* converged pools to map to
  // the same instance numbers — which the lowest-hole rule states
  // directly: same applied prefix + same pending/in-flight set ⇒ same
  // next number. (Every number in (applied, opened] is in flight or has
  // a buffered decision — pending entries only clear by the contiguous
  // apply loop — so the lowest hole always sits above the old
  // max(applied, opened) high-water too; the explicit scan just encodes
  // the requirement rather than relying on that invariant.)
  while (inflight_.size() < window_ && !unproposed_.empty()) {
    const IdSet proposal = std::exchange(unproposed_, IdSet{});
    consensus::InstanceId k = std::max(applied_k_, restored_floor_) + 1;
    while (pending_decisions_.contains(k) || inflight_.contains(k)) ++k;
    opened_k_ = std::max(opened_k_, k);
    for (const MessageId& id : proposal) proposed_.insert(id);
    inflight_.emplace(k, proposal);
    inflight_high_water_ =
        std::max(inflight_high_water_, inflight_.size());
    // The participation floor must be durable before the propose leaves
    // the process (restart-amnesia safety, PROTOCOL.md D6).
    if (journal_ != nullptr) journal_->on_open_instance(k);
    callbacks_.start_instance(k, proposal);
  }
}

void OrderingCore::try_deliver() {
  // Lines 23-25: deliver while the head's payload is available. A head
  // that is a batch id expands in place: its constituents — consecutive
  // ids from the head's origin — are A-delivered back-to-back, so the
  // client-message order is the same at every process (D5).
  //
  // The deliverable run is popped off the state *before* any callback
  // fires: the journal records the run and syncs once (write-ahead
  // group commit — a crash after the sync but before the callbacks is
  // indistinguishable from one just after them), and a callback that
  // feeds events back into the core sees consistent state. The latch
  // makes such re-entrant calls queue behind this invocation's loop
  // instead of interleaving deliveries out of order.
  if (delivering_) return;
  delivering_ = true;
  while (true) {
    struct Deliverable {
      MessageId head;
      std::vector<Payload> payloads;
    };
    std::vector<Deliverable> run;
    while (!ordered_.empty()) {
      const MessageId head = ordered_.front();
      const auto it = received_.find(head);
      if (it == received_.end()) break;  // blocked: payload not yet here
      ordered_.pop_front();
      ordered_set_.erase(head);
      delivered_.insert(head, it->second.size());
      ++delivered_batches_;
      run.push_back(Deliverable{head, std::move(it->second)});
      received_.erase(it);
    }
    if (run.empty()) break;
    if (journal_ != nullptr) {
      for (const Deliverable& d : run) {
        journal_->on_deliver_batch(d.head, d.payloads);
      }
      journal_->commit_deliveries();
    }
    for (const Deliverable& d : run) {
      msgs_delivered_ += d.payloads.size();
      for (std::size_t i = 0; i < d.payloads.size(); ++i) {
        callbacks_.adeliver(MessageId{d.head.origin, d.head.seq + i},
                            d.payloads[i]);
      }
    }
  }
  delivering_ = false;
}

bool OrderingCore::rcv(const IdSet& ids) const {
  for (const MessageId& id : ids) {
    if (!received_.contains(id) && !delivered_.contains(id)) return false;
  }
  return true;
}

std::optional<MessageId> OrderingCore::blocked_head() const {
  if (ordered_.empty()) return std::nullopt;
  return ordered_.front();
}

std::vector<MessageId> OrderingCore::missing_payload_ids(
    std::size_t limit) const {
  std::vector<MessageId> missing;
  for (const MessageId& id : ordered_) {
    if (missing.size() >= limit) break;
    if (!received_.contains(id)) missing.push_back(id);
  }
  return missing;
}

}  // namespace ibc::core
