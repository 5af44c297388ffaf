// The bookkeeping of Algorithm 1, shared by every id-ordering stack.
//
// Maintains the paper's four state variables:
//   received    messages R-delivered but whose payload is still needed
//   unordered   ids received but not yet ordered (consensus proposals)
//   ordered     ids ordered by consensus but not yet A-delivered
//   (delivered) ids already A-delivered (implicit in the pseudocode)
//
// and the two rules:
//   * run consensus instance k = 1, 2, ... whenever unordered ≠ ∅
//     (lines 15-18);
//   * A-deliver the head of `ordered` as soon as its payload is present
//     (lines 23-25).
//
// Pipelining (window > 1): the paper runs one consensus instance at a
// time; this core generalizes that to a window of up to `window`
// concurrent instances. Instance k+1 is started as soon as there are
// unordered ids not yet proposed in an open instance — ids already
// proposed in an open instance are excluded from later proposals, and
// leftovers of a closed instance (proposed but not decided there) return
// to the proposal pool. Because different processes may group the same id
// into different instance numbers, a decided set can overlap an earlier
// instance's decision; overlap is deduplicated at apply time (counted in
// `ids_deduplicated`), so each id is A-delivered exactly once. The
// default window of 1 is exactly the paper's Algorithm 1, where the
// dedup path is unreachable. docs/PROTOCOL.md carries the line-by-line
// map and the safety argument for the window.
//
// Decisions are applied strictly in instance order — instance k+1's
// decision can physically arrive before instance k's (independent decide
// floods) and is buffered until its turn, since the total order is the
// concatenation of the per-instance sequences. This is what keeps the
// total order identical at every process under any window.
//
// Batching (docs/PROTOCOL.md D5): the ordering entries may be *batch*
// ids — the id of the first message of a sender-side batch, standing for
// `count` consecutive ids from the same origin. Consensus and the four
// state variables operate on batch ids only; when a batch id reaches the
// head of `ordered`, its constituents are A-delivered back-to-back in
// sequence order — so the total order over client messages is the
// batch order with each batch expanded in place, identical at every
// process. An unbatched message is a batch of one, which makes the
// default configuration exactly the paper's Algorithm 1.
//
// The class is transport- and consensus-agnostic: the owner wires
// `start_instance` to an (indirect or plain) consensus propose and feeds
// R-deliveries and decisions back in. `rcv` implements lines 9-10; the
// stack binds it into indirect consensus (core/indirect.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/consensus.hpp"
#include "core/id_set.hpp"
#include "core/journal.hpp"
#include "util/bytes.hpp"
#include "util/id_runs.hpp"
#include "util/payload.hpp"

namespace ibc::core {

class OrderingCore {
 public:
  struct Callbacks {
    /// Propose `proposal` in consensus instance `k`.
    std::function<void(consensus::InstanceId k, const IdSet& proposal)>
        start_instance;
    /// A-deliver one message. The Payload is a shared view into the
    /// R-delivered frame; it may be retained past the callback.
    std::function<void(const MessageId&, const Payload&)> adeliver;
  };

  /// `window` = maximum number of concurrent consensus instances this
  /// process proposes in (W); 1 = the paper's sequential Algorithm 1.
  explicit OrderingCore(Callbacks callbacks, std::uint32_t window = 1);

  /// State rebuilt from snapshot + log replay (src/recovery/).
  struct Restored {
    IdRuns delivered;  // ids A-delivered pre-crash
    std::uint64_t batches_delivered = 0;
    std::uint64_t msgs_delivered = 0;
    std::vector<MessageId> ordered;  // undelivered backlog, in order
    consensus::InstanceId applied_k = 0;
    consensus::InstanceId opened_k = 0;
  };

  /// Installs the durability hooks. Must precede any event; may be null
  /// (the default: the paper's memory-only protocol).
  void set_journal(OrderingJournal* journal) { journal_ = journal; }

  /// Loads recovered state into a freshly constructed core. Payloads of
  /// the ordered backlog are *not* restored — they arrive via
  /// on_rdeliver (peer catch-up) before the head unblocks.
  void restore(Restored state);

  /// Feed of R-deliveries (Algorithm 1 lines 11-14): a batch of
  /// `payloads.size()` consecutive messages from one origin, identified
  /// by its first message's id (`id`). Duplicate ids are ignored (the
  /// broadcast layer already guarantees at-most-once; this is
  /// defensive).
  void on_rdeliver(const MessageId& id, std::vector<Payload> payloads);

  /// Single-message convenience (a batch of one); copies `payload`.
  void on_rdeliver(const MessageId& id, BytesView payload) {
    on_rdeliver(id, std::vector<Payload>{Payload::copy_of(payload)});
  }

  /// Feed of consensus decisions, any instance order.
  void on_decision(consensus::InstanceId k, const IdSet& ids);

  /// Lines 9-10: true iff every message named in `ids` has been received
  /// (A-delivered messages count as received).
  bool rcv(const IdSet& ids) const;

  // Observability.
  const IdSet& unordered() const { return unordered_; }
  std::size_t ordered_backlog() const { return ordered_.size(); }
  /// Ordering entries (batch ids) A-delivered so far.
  std::uint64_t delivered_count() const { return delivered_batches_; }
  /// Client messages A-delivered so far (≥ delivered_count(): every
  /// batch expands to its constituents).
  std::uint64_t msgs_delivered() const { return msgs_delivered_; }
  consensus::InstanceId instances_completed() const { return applied_k_; }
  /// Number of currently open instances (proposed, decision not yet
  /// applied). 0 or 1 at window 1.
  std::size_t instances_in_flight() const { return inflight_.size(); }
  /// Most instances ever open at once — how much of the window the run
  /// actually used.
  std::size_t inflight_high_water() const { return inflight_high_water_; }
  /// Ids skipped at apply time because an earlier instance already
  /// ordered them (only reachable at window > 1).
  std::uint64_t ids_deduplicated() const { return ids_deduplicated_; }
  std::uint32_t window() const { return window_; }
  bool is_delivered(const MessageId& id) const {
    return delivered_.contains(id);
  }
  /// First ordered-but-undelivered id, if any (a permanently stuck head
  /// is how the §2.2 validity violation manifests).
  std::optional<MessageId> blocked_head() const;
  /// Delivered ids, every batch's constituents included, as per-origin
  /// runs (snapshot capture). Its size() is the number of runs.
  const IdRuns& delivered_set() const { return delivered_; }
  /// Ordered-but-undelivered backlog in delivery order (snapshot
  /// capture).
  const std::deque<MessageId>& ordered_entries() const { return ordered_; }
  /// Highest instance this process proposed in (participation floor).
  consensus::InstanceId opened_instance() const { return opened_k_; }
  /// Up to `limit` ordered entries whose payload is still missing, front
  /// first — what a recovering process asks peers for.
  std::vector<MessageId> missing_payload_ids(std::size_t limit) const;
  /// Payloads of an R-delivered-but-not-yet-A-delivered batch; null if
  /// unknown (catch-up serving looks here before giving up).
  const std::vector<Payload>* payloads_of(const MessageId& id) const {
    const auto it = received_.find(id);
    return it == received_.end() ? nullptr : &it->second;
  }
  /// True while decisions are buffered that cannot apply because an
  /// earlier instance's decision is missing (the gap catch-up fills).
  bool has_decision_gap() const {
    return !pending_decisions_.empty() &&
           pending_decisions_.begin()->first > applied_k_ + 1;
  }

  /// Test-only fault injection: disables the apply-time dedup guard, so
  /// at window > 1 an id decided by two overlapping instances enters
  /// `ordered` twice and permanently blocks the head at its second
  /// occurrence (the payload was consumed by the first delivery). Exists
  /// to prove the scenario fuzzer's oracle and shrinker catch a real
  /// ordering-layer bug; never set outside tests.
  void set_skip_dedup_for_test(bool skip) { skip_dedup_for_test_ = skip; }

 private:
  void maybe_start_instances();
  void apply_decision(consensus::InstanceId k, const IdSet& ids);
  void try_deliver();

  Callbacks callbacks_;
  OrderingJournal* journal_ = nullptr;
  std::uint32_t window_ = 1;
  /// Re-entrancy latch for try_deliver: an adeliver callback that feeds
  /// new events back in must not interleave deliveries out of order.
  bool delivering_ = false;
  /// Batch id -> constituent payloads (shared views of the R-delivered
  /// frame), pending A-delivery.
  std::unordered_map<MessageId, std::vector<Payload>> received_;
  /// A-delivered ids: each delivered batch inserts its whole
  /// `[head, head + count)` range, so consecutive batches of an origin
  /// share one run. Only batch ids are ever looked up.
  IdRuns delivered_;
  std::uint64_t delivered_batches_ = 0;
  std::uint64_t msgs_delivered_ = 0;
  IdSet unordered_;
  std::deque<MessageId> ordered_;
  std::unordered_set<MessageId> ordered_set_;  // mirror of ordered_
  consensus::InstanceId applied_k_ = 0;
  /// Open instances: k -> the proposal this process made in k. Closed
  /// (erased) when k's decision is applied; leftovers re-enter the pool.
  std::map<consensus::InstanceId, IdSet> inflight_;
  /// Union of the open proposals — ids excluded from new proposals.
  std::unordered_set<MessageId> proposed_;
  /// unordered_ \ proposed_, maintained incrementally: the next
  /// proposal, ready to go (keeps the hot path O(changes), not
  /// O(|unordered|) per event).
  IdSet unproposed_;
  /// Highest instance this process ever proposed in — the durable
  /// participation floor (D6), not the allocator. New instances take the
  /// lowest untouched number (see maybe_start_instances), so this only
  /// ever ratchets up.
  consensus::InstanceId opened_k_ = 0;
  /// The journaled floor restore() loaded, if any: this incarnation may
  /// have proposed (and voted) in anything at or below it pre-crash, so
  /// the allocator never reuses those numbers.
  consensus::InstanceId restored_floor_ = 0;
  std::map<consensus::InstanceId, IdSet> pending_decisions_;
  std::size_t inflight_high_water_ = 0;
  std::uint64_t ids_deduplicated_ = 0;
  bool skip_dedup_for_test_ = false;
};

}  // namespace ibc::core
