#include "recovery/catchup.hpp"

#include <utility>
#include <vector>

#include "core/id_set.hpp"
#include "util/assert.hpp"

namespace ibc::recovery {

namespace {

enum class Tag : std::uint8_t {
  kReqState = 1,    // u64 from_k
  kRespState = 2,   // u32 count | count × (u64 k | u32 m | m × id)
  kReqPayload = 3,  // u32 count | count × id
  kRespPayload = 4, // u32 count | count × (id | u32 m | m × blob)
  kReqPool = 5,     // (empty)
  kRespPool = 6     // u8 authoritative+complete | RespPayload body
};

/// Instances per RespState; a shorter response means "that was all I
/// had", which is the recovering side's sync signal.
constexpr std::uint32_t kMaxStatePerResp = 256;
/// Ids per ReqPayload / RespPayload round.
constexpr std::size_t kMaxPayloadReq = 128;
/// Batches per RespPool. A truncated pool is served without the
/// complete flag; the recovering side keeps polling, and the pool only
/// shrinks as instances decide, so repeated polls converge.
constexpr std::size_t kMaxPoolPerResp = 256;
/// Poll cadence of a recovering process.
constexpr Duration kPollInterval = milliseconds(25);

}  // namespace

void CatchupLayer::begin() {
  if (begun_) return;
  begun_ = true;
  ctx_.log().logf(LogLevel::kInfo,
                  "catch-up: begin (applied_k=%llu, backlog=%zu)",
                  static_cast<unsigned long long>(
                      ordering_.instances_completed()),
                  ordering_.ordered_backlog());
  ctx_.set_timer(milliseconds(1), [this] { poll(); });
}

void CatchupLayer::notify_decision_applied() {
  if (!begun_ || !done_) return;
  if (ordering_.missing_payload_ids(1).empty()) return;
  ctx_.log().logf(LogLevel::kInfo,
                  "catch-up: re-armed (post-catch-up decision ordered a "
                  "payload this incarnation never received)");
  done_ = false;
  clean_polls_ = 0;
  ctx_.set_timer(milliseconds(1), [this] { poll(); });
}

void CatchupLayer::poll() {
  if (done_) return;
  const bool want_state = !state_synced_ || ordering_.has_decision_gap();
  const std::vector<MessageId> missing =
      ordering_.missing_payload_ids(kMaxPayloadReq);
  if (want_state) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(Tag::kReqState));
    w.u64(ordering_.instances_completed() + 1);
    ctx_.send_to_others(w.view());
  }
  if (!missing.empty()) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(Tag::kReqPayload));
    w.u32(static_cast<std::uint32_t>(missing.size()));
    for (const MessageId& id : missing) w.message_id(id);
    ctx_.send_to_others(w.view());
  }
  if (!pool_synced_) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(Tag::kReqPool));
    ctx_.send_to_others(w.view());
  }
  if (!want_state && pool_synced_ && missing.empty()) {
    if (++clean_polls_ >= 2) {
      done_ = true;
      ctx_.log().logf(LogLevel::kInfo, "catch-up: done (applied_k=%llu)",
                      static_cast<unsigned long long>(
                          ordering_.instances_completed()));
      return;
    }
  } else {
    clean_polls_ = 0;
  }
  ctx_.set_timer(kPollInterval, [this] { poll(); });
}

void CatchupLayer::on_message(ProcessId from, Reader& r) {
  switch (static_cast<Tag>(r.u8())) {
    case Tag::kReqState:
      handle_req_state(from, r);
      break;
    case Tag::kRespState:
      handle_resp_state(r);
      break;
    case Tag::kReqPayload:
      handle_req_payload(from, r);
      break;
    case Tag::kRespPayload:
      handle_resp_payload(r);
      break;
    case Tag::kReqPool:
      handle_req_pool(from);
      break;
    case Tag::kRespPool:
      handle_resp_pool(r);
      break;
  }
}

void CatchupLayer::handle_req_state(ProcessId from, Reader& r) {
  const std::uint64_t from_k = r.u64();
  const auto& history = manager_.decision_history();
  Writer w;
  w.u8(static_cast<std::uint8_t>(Tag::kRespState));
  std::uint32_t count = 0;
  Writer body;
  for (auto it = history.lower_bound(from_k);
       it != history.end() && count < kMaxStatePerResp; ++it, ++count) {
    body.u64(it->first);
    body.u32(static_cast<std::uint32_t>(it->second.size()));
    for (const MessageId& id : it->second) body.message_id(id);
  }
  w.u32(count);
  w.raw(body.view());
  ctx_.send(from, w.view());
}

void CatchupLayer::handle_resp_state(Reader& r) {
  const std::uint32_t count = r.u32();
  std::uint64_t fed = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const consensus::InstanceId k = r.u64();
    const std::uint32_t m = r.u32();
    std::vector<MessageId> ids;
    ids.reserve(m);
    for (std::uint32_t j = 0; j < m; ++j) ids.push_back(r.message_id());
    // Feeding an applied instance again would trip on_decision's
    // sequencing contract; overlapping responses from several peers make
    // that a normal case, not an error.
    if (k <= ordering_.instances_completed()) continue;
    fed += m;
    ordering_.on_decision(k, core::IdSet::from_unsorted(std::move(ids)));
  }
  manager_.count_catchup_ids(fed);
  // A short response is the peer saying "nothing further": state sync
  // achieved (new decisions from here on arrive as normal floods).
  if (count < kMaxStatePerResp) state_synced_ = true;
}

void CatchupLayer::handle_req_payload(ProcessId from, Reader& r) {
  const std::uint32_t count = r.u32();
  Writer body;
  std::uint32_t found = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const MessageId id = r.message_id();
    const std::vector<Payload>* payloads = manager_.archived(id);
    if (payloads == nullptr) {
      payloads = ordering_.payloads_of(id);
    }
    if (payloads == nullptr) continue;
    ++found;
    body.message_id(id);
    body.u32(static_cast<std::uint32_t>(payloads->size()));
    for (const Payload& p : *payloads) body.blob(p);
  }
  if (found == 0) return;
  Writer w;
  w.u8(static_cast<std::uint8_t>(Tag::kRespPayload));
  w.u32(found);
  w.raw(body.view());
  ctx_.send(from, w.view());
}

void CatchupLayer::handle_resp_payload(Reader& r) {
  feed_batches(r, r.u32());
}

void CatchupLayer::handle_req_pool(ProcessId from) {
  // Serve the current undecided pool. A process that is itself still
  // recovering serves what it has (every batch is valid data), but only
  // a caught-up process's complete pool carries the flag that ends the
  // requester's poll — an amnesiac pool is not evidence that nothing
  // was lost.
  const core::IdSet& pool = ordering_.unordered();
  Writer body;
  std::uint32_t served = 0;
  for (const MessageId& id : pool) {
    if (served >= kMaxPoolPerResp) break;
    const std::vector<Payload>* payloads = ordering_.payloads_of(id);
    if (payloads == nullptr) continue;  // delivered mid-iteration
    ++served;
    body.message_id(id);
    body.u32(static_cast<std::uint32_t>(payloads->size()));
    for (const Payload& p : *payloads) body.blob(p);
  }
  const bool complete = !recovering() && served == pool.size();
  Writer w;
  w.u8(static_cast<std::uint8_t>(Tag::kRespPool));
  w.u8(complete ? 1 : 0);
  w.u32(served);
  w.raw(body.view());
  ctx_.send(from, w.view());
}

void CatchupLayer::handle_resp_pool(Reader& r) {
  const bool complete = r.u8() != 0;
  const std::uint32_t count = r.u32();
  feed_batches(r, count);
  if (complete && !pool_synced_) {
    pool_synced_ = true;
    ctx_.log().logf(LogLevel::kInfo,
                    "catch-up: pool re-flood synced (%u batches)", count);
  }
}

void CatchupLayer::feed_batches(Reader& r, std::uint32_t count) {
  std::uint64_t fed = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const MessageId id = r.message_id();
    const std::uint32_t m = r.u32();
    std::vector<Payload> payloads;
    payloads.reserve(m);
    for (std::uint32_t j = 0; j < m; ++j) {
      payloads.push_back(Payload::copy_of(r.blob_view()));
    }
    if (ordering_.is_delivered(id)) continue;
    ++fed;
    manager_.archive(id, payloads);
    // Idempotent: a duplicate of something already received is dropped
    // by on_rdeliver's dedup guard.
    ordering_.on_rdeliver(id, std::move(payloads));
  }
  manager_.count_catchup_ids(fed);
}

}  // namespace ibc::recovery
