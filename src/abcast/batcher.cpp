#include "abcast/batcher.hpp"

#include <utility>

#include "util/assert.hpp"

namespace ibc::abcast {

BatchView parse_batch(const Payload& frame) {
  Reader r(frame);
  BatchView out;
  out.first = r.message_id();
  const std::uint32_t count = r.u32();
  IBC_ASSERT_MSG(count >= 1, "malformed batch frame: empty batch");
  out.payloads.reserve(count);
  // Slice each blob out of the shared frame — offsets come from the
  // Reader, the bytes stay where they are.
  const std::size_t frame_size = frame.size();
  for (std::uint32_t i = 0; i < count; ++i) {
    const BytesView blob = r.blob_view();
    const std::size_t offset =
        frame_size - r.remaining() - blob.size();
    out.payloads.push_back(frame.slice(offset, blob.size()));
  }
  IBC_ASSERT_MSG(r.done(), "malformed batch frame: trailing bytes");
  return out;
}

Batcher::Batcher(runtime::Env& env, bcast::BroadcastService& rb,
                 const BatchConfig& config)
    : env_(env), rb_(rb), config_(config) {
  IBC_REQUIRE_MSG(config_.max_msgs >= 1, "batch.max_msgs must be >= 1");
  IBC_REQUIRE_MSG(config_.max_bytes >= 1, "batch_max_bytes must be >= 1");
}

void Batcher::add(const MessageId& id, Bytes payload) {
  if (pending_.empty()) {
    first_ = id;
    arm_timer();
    arm_idle_flush();
  } else {
    IBC_ASSERT_MSG(
        id.origin == first_.origin && id.seq == first_.seq + pending_.size(),
        "batched ids must be consecutive per process");
  }
  pending_bytes_ += payload.size();
  pending_.push_back(std::move(payload));
  if (pending_.size() >= config_.max_msgs ||
      pending_bytes_ >= config_.max_bytes) {
    flush();
  }
}

void Batcher::flush() {
  if (pending_.empty()) return;
  if (timer_ != 0) {
    env_.cancel_timer(timer_);
    timer_ = 0;
  }
  Writer w(pending_bytes_ + 16 + 4 * pending_.size());
  w.message_id(first_);
  IBC_ASSERT(pending_.size() <= UINT32_MAX);
  w.u32(static_cast<std::uint32_t>(pending_.size()));
  for (const Bytes& payload : pending_) w.blob(payload);
  ++batches_sent_;
  msgs_sent_ += pending_.size();
  pending_.clear();
  pending_bytes_ = 0;
  rb_.broadcast(w.take());
}

void Batcher::arm_timer() {
  if (config_.max_msgs <= 1 || config_.max_delay <= 0) return;
  timer_ = env_.set_timer(config_.max_delay, [this] {
    timer_ = 0;
    flush();
  });
}

void Batcher::arm_idle_flush() {
  // max_delay is a *ceiling*, not a wait: on hosts with an idleness
  // notion (the TCP reactor) an underfull batch leaves as soon as no
  // more adds are ready to join it, so batching never costs latency the
  // traffic didn't already have. One queued flush at a time — a stale
  // one (batch already flushed by size or timer) degrades to a no-op.
  if (config_.max_msgs <= 1 || idle_flush_armed_) return;
  idle_flush_armed_ = env_.run_at_idle([this] {
    idle_flush_armed_ = false;
    // Backlog-aware sizing: while the transport still holds frames a
    // previous writev could not put on the wire, flushing an underfull
    // batch now cannot reach the socket any sooner — it only shrinks
    // the frames-per-syscall amortization. Keep the batch open and
    // check again at the next idle point; the size/bytes triggers and
    // the max_delay timer (armed whenever a batch is open) remain the
    // ceilings, so latency is still bounded. Deferral requires the
    // timer: with max_delay = 0 nothing else would ever flush an
    // underfull batch, so it leaves at idle as before.
    if (timer_ != 0 && !pending_.empty() &&
        pending_.size() < config_.max_msgs &&
        pending_bytes_ < config_.max_bytes && env_.transport_backlog()) {
      arm_idle_flush();
      return;
    }
    flush();
  });
}

}  // namespace ibc::abcast
