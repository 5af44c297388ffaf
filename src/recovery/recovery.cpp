#include "recovery/recovery.hpp"

#include <chrono>
#include <utility>

#include "util/assert.hpp"

namespace ibc::recovery {

Counters& Counters::operator+=(const Counters& o) {
  log_appends += o.log_appends;
  log_bytes += o.log_bytes;
  fsyncs += o.fsyncs;
  snapshot_count += o.snapshot_count;
  catchup_ids_fetched += o.catchup_ids_fetched;
  replay_ms += o.replay_ms;
  return *this;
}

RecoveryManager::RecoveryManager(store::Dir& dir, const Config& config)
    : dir_(dir), config_(config), log_(dir, config.segment_bytes) {
  replay();
}

void RecoveryManager::replay() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t floor = 1;
  core::OrderingCore::Restored& r = recovered_.core;
  std::vector<MessageId> ordered;  // backlog; head moves as kDeliver pops
  std::size_t head = 0;
  if (auto snap = store::load_latest_snapshot(dir_)) {
    r.applied_k = snap->applied_k;
    r.opened_k = snap->opened_k;
    r.batches_delivered = snap->batches_delivered;
    r.msgs_delivered = snap->msgs_delivered;
    reserved_seq_ = snap->reserved_seq;
    floor = snap->wal_floor;
    r.delivered = std::move(snap->delivered);
    ordered = std::move(snap->ordered);
  }
  for (const std::string& name : dir_.list()) {
    snapshot_index_ =
        std::max(snapshot_index_, store::parse_snapshot(name));
  }
  const store::ReplayResult result =
      log_.replay(floor, [&](BytesView body) {
        Reader rd(body);
        switch (static_cast<store::RecordType>(rd.u8())) {
          case store::RecordType::kOpen:
            r.opened_k = std::max(r.opened_k, rd.u64());
            break;
          case store::RecordType::kSeqReserve:
            reserved_seq_ = std::max(reserved_seq_, rd.u64());
            break;
          case store::RecordType::kDecide: {
            const consensus::InstanceId k = rd.u64();
            IBC_ASSERT_MSG(k == r.applied_k + 1,
                           "log decisions are strictly sequential");
            r.applied_k = k;
            const std::uint32_t m = rd.u32();
            std::vector<MessageId> appended;
            appended.reserve(m);
            for (std::uint32_t i = 0; i < m; ++i) {
              const MessageId id = rd.message_id();
              appended.push_back(id);
              ordered.push_back(id);
            }
            history_.emplace(k, std::move(appended));
            break;
          }
          case store::RecordType::kDeliver: {
            const MessageId id = rd.message_id();
            const std::uint32_t msgs = rd.u32();
            IBC_ASSERT_MSG(head < ordered.size() && ordered[head] == id,
                           "deliver record matches the backlog head");
            ++head;
            r.delivered.insert(id, msgs);
            ++r.batches_delivered;
            r.msgs_delivered += msgs;
            break;
          }
        }
      });
  // Appending after a torn record would strand bytes behind garbage;
  // start a fresh segment instead.
  if (result.torn_tail) log_.rotate();
  r.ordered.assign(ordered.begin() + static_cast<std::ptrdiff_t>(head),
                   ordered.end());
  recovered_.reserved_seq = reserved_seq_;
  const auto dt = std::chrono::steady_clock::now() - t0;
  replay_ms_ =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          dt)
          .count();
}

void RecoveryManager::append_record(BytesView body) { log_.append(body); }

void RecoveryManager::on_open_instance(consensus::InstanceId k) {
  Writer w(9);
  w.u8(static_cast<std::uint8_t>(store::RecordType::kOpen));
  w.u64(k);
  append_record(w.view());
  if (config_.strict_sync) log_.sync();
}

void RecoveryManager::on_decision_applied(
    consensus::InstanceId k, const std::vector<MessageId>& appended) {
  Writer w(13 + appended.size() * 12);
  w.u8(static_cast<std::uint8_t>(store::RecordType::kDecide));
  w.u64(k);
  w.u32(static_cast<std::uint32_t>(appended.size()));
  for (const MessageId& id : appended) w.message_id(id);
  append_record(w.view());
  history_.emplace(k, appended);
  entries_since_snapshot_ += appended.size();
  if (config_.snapshot_every > 0 &&
      entries_since_snapshot_ >= config_.snapshot_every) {
    take_snapshot();
  }
  if (apply_listener_) apply_listener_();
}

void RecoveryManager::on_deliver_batch(const MessageId& head,
                                       const std::vector<Payload>& payloads) {
  Writer w(17);
  w.u8(static_cast<std::uint8_t>(store::RecordType::kDeliver));
  w.message_id(head);
  w.u32(static_cast<std::uint32_t>(payloads.size()));
  append_record(w.view());
  archive_.emplace(head, payloads);
}

void RecoveryManager::commit_deliveries() {
  if (config_.strict_sync) log_.sync();
}

void RecoveryManager::on_reserve_seqs(std::uint64_t reserved_up_to) {
  reserved_seq_ = reserved_up_to;
  Writer w(9);
  w.u8(static_cast<std::uint8_t>(store::RecordType::kSeqReserve));
  w.u64(reserved_up_to);
  append_record(w.view());
  // Synced even in relaxed mode: a reused MessageId breaks safety, and
  // the chunking already amortizes this to one sync per 1024 sends.
  log_.sync();
}

const std::vector<Payload>* RecoveryManager::archived(
    const MessageId& id) const {
  const auto it = archive_.find(id);
  return it == archive_.end() ? nullptr : &it->second;
}

void RecoveryManager::archive(const MessageId& id,
                              std::vector<Payload> payloads) {
  archive_.emplace(id, std::move(payloads));
}

void RecoveryManager::take_snapshot() {
  IBC_ASSERT_MSG(core_ != nullptr, "snapshots need an attached core");
  log_.rotate();
  store::Snapshot snap;
  snap.applied_k = core_->instances_completed();
  snap.opened_k = core_->opened_instance();
  snap.reserved_seq = reserved_seq_;
  snap.batches_delivered = core_->delivered_count();
  snap.msgs_delivered = core_->msgs_delivered();
  snap.wal_floor = log_.current_index();
  snap.delivered = core_->delivered_set();
  snap.ordered.assign(core_->ordered_entries().begin(),
                      core_->ordered_entries().end());
  store::write_snapshot(dir_, snap, ++snapshot_index_);
  log_.remove_segments_below(snap.wal_floor);
  ++snapshot_count_;
  entries_since_snapshot_ = 0;
}

Counters RecoveryManager::counters() const {
  Counters c;
  const store::WalCounters& wal = log_.counters();
  c.log_appends = wal.appends;
  c.log_bytes = wal.bytes;
  c.fsyncs = wal.fsyncs;
  c.snapshot_count = snapshot_count_;
  c.catchup_ids_fetched = catchup_ids_fetched_;
  c.replay_ms = replay_ms_;
  return c;
}

}  // namespace ibc::recovery
