#include "bcast/rb_flood.hpp"

namespace ibc::bcast {

RbFlood::RbFlood(runtime::Stack& stack, runtime::LayerId layer_id)
    : ctx_(stack.register_layer(layer_id, *this, "rb")) {}

void RbFlood::broadcast(Bytes payload) {
  const MessageId key{ctx_.self(), ++next_seq_};
  Writer w(payload.size() + 20);
  w.message_id(key);
  w.blob(payload);
  // One envelope encoding shared by the loopback copy and the n-1
  // multicast destinations — no per-peer re-encoding.
  const Payload wire = ctx_.make_frame(w.view());
  // The origin's own copy goes through the loopback path like everyone
  // else's, so its delivery pays the same (simulated) cost and happens
  // asynchronously — matching a real stack where the layer hands the
  // message to itself through the transport. The payload is retained
  // here so the loopback delivery reuses it instead of copying the
  // frame a second time.
  seen_.insert(key);
  own_.emplace(key, Payload::wrap(std::move(payload)));
  count_frame();
  count_wire_sends(ctx_.n() - 1);
  ctx_.send_frame(ctx_.self(), wire);
  ctx_.multicast_frame(wire);
}

void RbFlood::on_message(ProcessId from, Reader& r) {
  const MessageId key = r.message_id();
  const BytesView payload = r.blob_view();

  if (key.origin == ctx_.self()) {
    // Our own broadcast coming back (loopback or relay): deliver once,
    // from the payload stored at broadcast() — the loopback frame
    // carries the same bytes, so no second copy is needed.
    if (from == ctx_.self()) {
      const auto it = own_.find(key);
      if (it != own_.end()) {
        const Payload stored = std::move(it->second);
        own_.erase(it);
        deliver(key.origin, stored);
      }
    }
    return;
  }
  if (!seen_.insert(key)) return;  // duplicate

  // Relay before delivering (first receipt), then deliver. The relay
  // frame is encoded once and shared across every relay target.
  Writer w(payload.size() + 20);
  w.message_id(key);
  w.blob(payload);
  const Payload wire = ctx_.make_frame(w.view());
  const std::uint32_t n = ctx_.n();
  count_frame();
  for (ProcessId p = 1; p <= n; ++p) {
    if (p != ctx_.self() && p != key.origin && p != from) {
      ctx_.send_frame(p, wire);
      count_wire_sends(1);
    }
  }
  deliver(key.origin, copy_payload(payload));
}

}  // namespace ibc::bcast
