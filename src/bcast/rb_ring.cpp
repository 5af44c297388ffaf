#include "bcast/rb_ring.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace ibc::bcast {

namespace {
// Retry floor for unconfirmed forwards (and the sweep cadence). In good
// runs DONE arrives within a couple of loop latencies and the sweep
// never fires for a frame; the floor only bounds how fast a silently
// lost hop (successor crashed and restarted between heartbeats, so
// never suspected) is repaired on an otherwise idle ring.
constexpr Duration kRetryDelay = milliseconds(25);
// Per-frame retry cap. Under load confirmation takes as long as the
// ring's queues are deep; a fixed-cadence retry then re-forwards every
// in-flight frame every period, which adds load, which delays DONE
// further — congestion collapse (the retry storm showed up as ~90
// sends/frame and zero goodput in the fig11 ladder). The initial delay
// is an RTO tracking observed loop times (initial_rto) and doubles per
// retry up to this cap, bounding duplicates per frame to O(log) while
// keeping the lost-hop repair path alive.
constexpr Duration kRetryDelayMax = seconds(2);
}  // namespace

RbRing::RbRing(runtime::Stack& stack, runtime::LayerId layer_id,
               fd::FailureDetector& detector)
    : ctx_(stack.register_layer(layer_id, *this, "rbring")),
      detector_(detector) {
  IBC_REQUIRE_MSG(ctx_.n() <= 32,
                  "RbRing's visited bitmap is a u32: n must be <= 32");
  detector_.subscribe([this](ProcessId p, bool suspected) {
    on_fd_transition(p, suspected);
  });
}

void RbRing::broadcast(Bytes payload) {
  const MessageId key{ctx_.self(), ++next_seq_};
  FrameState& state = frames_[key];
  state.payload = Payload::wrap(std::move(payload));
  state.visited = bit(ctx_.self());
  state.origin_ns = static_cast<std::uint64_t>(ctx_.now());
  state.first_seen = ctx_.now();
  count_frame();
  undone_.insert(key);
  forward(key, state);
  arm_sweep();
  // The origin's own delivery goes through the loopback path like
  // RbFlood's, so it pays the same (simulated) cost and happens
  // asynchronously; the stored payload is reused, no second copy.
  Writer w(24);
  w.u8(kForward);
  w.message_id(key);
  w.u32(state.visited);
  w.u64(state.origin_ns);
  w.blob(BytesView());
  ctx_.send_frame(ctx_.self(), ctx_.make_frame(w.view()));
}

void RbRing::on_message(ProcessId from, Reader& r) {
  const auto kind = static_cast<Kind>(r.u8());
  const MessageId key = r.message_id();

  if (kind == kDone) {
    // Confirmation from the node at which the loop closed: everyone has
    // the frame. Unknown keys are fine (a restarted incarnation that
    // lost its frame table) — there is nothing left to stop.
    const auto it = frames_.find(key);
    if (it != frames_.end()) mark_done(key, it->second, false);
    return;
  }

  const std::uint32_t visited = r.u32();
  const std::uint64_t origin_ns = r.u64();
  const BytesView payload = r.blob_view();

  const auto it = frames_.find(key);
  if (it != frames_.end()) {
    FrameState& state = it->second;
    // Duplicate (a retry, a repair send, or our own loopback): merge
    // what the sender knew. The sender retries until it hears DONE; if
    // we already know the loop closed, tell it right away.
    state.visited |= visited | bit(ctx_.self());
    if (from != ctx_.self()) {
      if (state.done) {
        send_done_to(from, key);
      } else if ((state.visited & full_mask()) == full_mask()) {
        mark_done(key, state, true);
      }
    }
    if (key.origin == ctx_.self() && from == ctx_.self() &&
        !state.delivered) {
      state.delivered = true;
      deliver(key.origin, state.payload);
    }
    return;
  }

  // First receipt: take responsibility — forward down the ring before
  // delivering (RbFlood's relay-before-deliver discipline). Our own
  // loopback is never a first receipt: broadcast() stores the frame
  // before sending it, and a host drops the loopbacks a dead incarnation
  // queued, so an unknown self frame would carry an empty blob from a
  // previous life.
  IBC_ASSERT_MSG(from != ctx_.self(),
                 "RbRing: loopback of a frame this process never held");
  FrameState& state = frames_[key];
  state.payload = copy_payload(payload);
  state.visited = visited | bit(ctx_.self());
  state.origin_ns = origin_ns;
  state.first_seen = ctx_.now();
  count_frame();
  undone_.insert(key);
  forward(key, state);
  arm_sweep();
  state.delivered = true;
  const std::uint64_t now_ns = static_cast<std::uint64_t>(ctx_.now());
  if (now_ns > origin_ns) note_hop_latency(now_ns - origin_ns);
  deliver(key.origin, state.payload);
}

void RbRing::forward(const MessageId& key, FrameState& state) {
  if ((state.visited & full_mask()) == full_mask()) {
    // The loop closed at us: nothing to forward, announce DONE.
    state.forwarded_to = kInvalidProcess;
    mark_done(key, state, true);
    return;
  }
  const std::uint32_t n = ctx_.n();
  ProcessId target = kInvalidProcess;
  for (std::uint32_t step = 1; step < n; ++step) {
    const auto p =
        static_cast<ProcessId>((ctx_.self() - 1 + step) % n + 1);
    if ((state.visited & bit(p)) != 0) continue;
    if (detector_.is_suspected(p)) {
      // Possibly a false suspicion: remember it so the unsuspect
      // transition can repair (a later holder that doesn't share the
      // suspicion may also pick p up — receivers dedup).
      state.skipped |= bit(p);
      continue;
    }
    target = p;
    break;
  }
  state.forwarded_to = target;
  if (target == kInvalidProcess) return;  // parked on suspicions
  send_to(target, key, state);
}

void RbRing::send_to(ProcessId dst, const MessageId& key,
                     FrameState& state) {
  const BytesView payload = state.payload;
  Writer w(payload.size() + 32);
  w.u8(kForward);
  w.message_id(key);
  w.u32(state.visited);
  w.u64(state.origin_ns);
  w.blob(payload);
  ctx_.send_frame(dst, ctx_.make_frame(w.view()));
  state.last_send = ctx_.now();
  if (state.retry_delay == 0) state.retry_delay = initial_rto();
  count_wire_sends(1);
}

Duration RbRing::initial_rto() const {
  if (loop_ewma_ns_ <= 0.0) return kRetryDelay;
  const auto rto = static_cast<Duration>(4.0 * loop_ewma_ns_);
  return std::max(kRetryDelay, std::min(rto, kRetryDelayMax));
}

void RbRing::mark_done(const MessageId& key, FrameState& state,
                       bool announce) {
  if (state.done) return;
  state.done = true;
  undone_.erase(key);
  // Feed the RTO: how long this node held the frame before the loop was
  // known closed tracks queue depth, so retry pacing follows load.
  if (state.first_seen > 0) {
    const auto sample =
        static_cast<double>(ctx_.now() - state.first_seen);
    loop_ewma_ns_ = loop_ewma_ns_ <= 0.0
                        ? sample
                        : loop_ewma_ns_ + (sample - loop_ewma_ns_) / 8.0;
  }
  if (!announce) return;
  // The loop closed here: one hop of fan-out quenches every holder's
  // retry timer directly. Same message count as relaying DONE backward
  // along the chain, but confirmation latency is one hop instead of n —
  // under load that difference is what keeps retries from amplifying
  // the very congestion that delays confirmation.
  for (ProcessId p = 1; p <= static_cast<ProcessId>(ctx_.n()); ++p) {
    if (p != ctx_.self()) send_done_to(p, key);
  }
}

void RbRing::send_done_to(ProcessId dst, const MessageId& key) {
  // DONE is control traffic, not payload dissemination: it does not
  // count toward wire_sends (the per-node sends/frame figure measures
  // how many times payload bytes leave a host).
  Writer w(20);
  w.u8(kDone);
  w.message_id(key);
  ctx_.send_frame(dst, ctx_.make_frame(w.view()));
}

void RbRing::on_fd_transition(ProcessId q, bool suspected) {
  if (suspected) {
    // Our forward target may have died before relaying: re-splice the
    // chain past it. The scan sees q suspected, so it lands on the next
    // eligible process (or parks, recording q in `skipped`).
    for (auto& [key, state] : frames_) {
      if (state.done || state.forwarded_to != q) continue;
      state.skipped |= bit(q);
      forward(key, state);
    }
    return;
  }
  // Suspicion lifted: everything we skipped past q now goes to q
  // directly. q dedups if some other holder already repaired it.
  for (auto& [key, state] : frames_) {
    if (state.done || (state.skipped & bit(q)) == 0) continue;
    state.skipped &= ~bit(q);
    if ((state.visited & bit(q)) != 0) continue;  // learned it got there
    send_to(q, key, state);
    // If the frame was parked on q's suspicion, q is now responsible for
    // the tail of the ring; our own responsibility ends here.
    if (state.forwarded_to == kInvalidProcess) state.forwarded_to = q;
  }
}

void RbRing::arm_sweep() {
  if (sweep_armed_ || undone_.empty()) return;
  sweep_armed_ = true;
  ctx_.set_timer(kRetryDelay, [this] { sweep(); });
}

void RbRing::sweep() {
  sweep_armed_ = false;
  const TimePoint now = ctx_.now();
  // forward() can mark a frame done (erasing it from undone_), so
  // iterate a snapshot of the keys.
  const std::vector<MessageId> keys(undone_.begin(), undone_.end());
  for (const MessageId& key : keys) {
    const auto it = frames_.find(key);
    if (it == frames_.end() || it->second.done) continue;
    FrameState& state = it->second;
    if (now - state.last_send < state.retry_delay) continue;
    // A quiet frame is either a genuinely lost hop (retry repairs it) or
    // a DONE chain lagging behind load (retry makes it worse): back off
    // so the repair path survives without amplifying congestion.
    state.retry_delay = std::min(state.retry_delay * 2, kRetryDelayMax);
    forward(key, state);
  }
  arm_sweep();
}

}  // namespace ibc::bcast
