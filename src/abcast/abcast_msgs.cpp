#include "abcast/abcast_msgs.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace ibc::abcast {

// ------------------------------------------------------- MsgSetEncoder

namespace {

/// Serialized chunk size of one entry: message_id (u32 + u64) + blob.
std::size_t chunk_size(std::size_t payload_bytes) {
  return 12 + 4 + payload_bytes;
}

}  // namespace

std::size_t MsgSetEncoder::chunk_end(std::size_t index) const {
  return index + 1 < index_.size() ? index_[index + 1].offset : buf_.size();
}

void MsgSetEncoder::set_count(std::uint32_t count) {
  for (int i = 0; i < 4; ++i)
    buf_[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(count >> (8 * i));
}

bool MsgSetEncoder::contains(const MessageId& id) const {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const Entry& e, const MessageId& v) { return e.id < v; });
  return it != index_.end() && it->id == id;
}

bool MsgSetEncoder::insert(const MessageId& id, BytesView payload) {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const Entry& e, const MessageId& v) { return e.id < v; });
  if (it != index_.end() && it->id == id) return false;

  const std::size_t pos = static_cast<std::size_t>(it - index_.begin());
  const std::size_t offset =
      pos < index_.size() ? index_[pos].offset : buf_.size();
  const std::size_t added = chunk_size(payload.size());

  // Splice the new chunk into the canonical buffer in place.
  Writer w(added);
  w.message_id(id);
  w.blob(payload);
  const Bytes chunk = w.take();
  buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(offset),
              chunk.begin(), chunk.end());

  IBC_REQUIRE(offset <= UINT32_MAX && added <= UINT32_MAX);
  index_.insert(it, Entry{id, static_cast<std::uint32_t>(offset)});
  for (std::size_t i = pos + 1; i < index_.size(); ++i)
    index_[i].offset += static_cast<std::uint32_t>(added);
  set_count(static_cast<std::uint32_t>(index_.size()));
  return true;
}

void MsgSetEncoder::erase(const MessageId& id) {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const Entry& e, const MessageId& v) { return e.id < v; });
  if (it == index_.end() || !(it->id == id)) return;

  const std::size_t pos = static_cast<std::size_t>(it - index_.begin());
  const std::size_t offset = it->offset;
  const std::size_t removed = chunk_end(pos) - offset;
  buf_.erase(buf_.begin() + static_cast<std::ptrdiff_t>(offset),
             buf_.begin() + static_cast<std::ptrdiff_t>(offset + removed));
  index_.erase(it);
  for (std::size_t i = pos; i < index_.size(); ++i)
    index_[i].offset -= static_cast<std::uint32_t>(removed);
  set_count(static_cast<std::uint32_t>(index_.size()));
}

// ---------------------------------------------------------- AbcastMsgs

AbcastMsgs::AbcastMsgs(runtime::Env& env, bcast::BroadcastService& bc,
                       consensus::Consensus& cons,
                       const BatchConfig& batch)
    : env_(env), bc_(bc), cons_(cons), batcher_(env, bc, batch) {
  bc_.subscribe([this](ProcessId, const Payload& frame) {
    // Unpack the batch frame: each constituent becomes one pending
    // message (consensus carries full messages, so batching here only
    // amortizes the reliable-broadcast traffic).
    const BatchView batch_view = parse_batch(frame);
    for (std::size_t i = 0; i < batch_view.payloads.size(); ++i) {
      on_rdeliver(
          MessageId{batch_view.first.origin, batch_view.first.seq + i},
          batch_view.payloads[i]);
    }
  });
  cons_.subscribe_decide([this](consensus::InstanceId k, BytesView value) {
    on_decision(k, value);
  });
}

MessageId AbcastMsgs::abroadcast(Bytes payload) {
  const MessageId id{env_.self(), ++next_seq_};
  batcher_.add(id, std::move(payload));
  return id;
}

void AbcastMsgs::on_rdeliver(const MessageId& id, const Payload& payload) {
  if (delivered_.contains(id) || unordered_.contains(id)) return;
  unordered_.insert(id, payload);
  maybe_start_instance();
}

void AbcastMsgs::maybe_start_instance() {
  if (inflight_ || unordered_.empty()) return;
  const consensus::InstanceId k = applied_k_ + 1;
  if (pending_decisions_.contains(k)) return;
  inflight_ = true;
  // The canonical value is maintained incrementally — proposing is one
  // buffer copy, not a re-serialization of the backlog.
  cons_.propose(k, to_bytes(unordered_.value()));
}

void AbcastMsgs::on_decision(consensus::InstanceId k, BytesView value) {
  IBC_ASSERT_MSG(k > applied_k_, "decision for an already-applied instance");
  pending_decisions_.emplace(k, Payload::copy_of(value));
  while (true) {
    const auto it = pending_decisions_.find(applied_k_ + 1);
    if (it == pending_decisions_.end()) break;
    const Payload decision = std::move(it->second);
    pending_decisions_.erase(it);
    ++applied_k_;
    inflight_ = false;
    apply_decision(decision);
  }
  maybe_start_instance();
}

void AbcastMsgs::apply_decision(const Payload& value) {
  Reader r(value);
  const std::uint32_t count = r.u32();
  // The value is canonical (sorted by id), so iteration order *is* the
  // deterministic delivery order shared by all processes. Each payload
  // is handed up as a zero-copy slice of the decision buffer.
  for (std::uint32_t i = 0; i < count; ++i) {
    const MessageId id = r.message_id();
    const BytesView blob = r.blob_view();
    unordered_.erase(id);
    if (!delivered_.insert(id)) continue;  // delivered earlier
    ++delivered_count_;
    const std::size_t offset = value.size() - r.remaining() - blob.size();
    fire_deliver(id, value.slice(offset, blob.size()));
  }
  IBC_ASSERT(r.done());
}

}  // namespace ibc::abcast
