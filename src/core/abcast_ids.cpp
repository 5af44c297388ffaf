#include "core/abcast_ids.hpp"

#include "util/assert.hpp"

namespace ibc::core {

AbcastIds::AbcastIds(runtime::Env& env, bcast::BroadcastService& rb,
                     consensus::Consensus& cons,
                     std::uint32_t pipeline_depth,
                     const abcast::BatchConfig& batch)
    : env_(env),
      rb_(rb),
      cons_(cons),
      core_(OrderingCore::Callbacks{
                .start_instance =
                    [this](consensus::InstanceId k, const IdSet& proposal) {
                      // Lines 15-17: propose the unordered ids. The
                      // proposal is drawn from ids this process has
                      // received, so the reduction's precondition holds.
                      IBC_ASSERT_MSG(
                          core_.rcv(proposal),
                          "proposer must hold msgs(v) of its own proposal");
                      cons_.propose(k, proposal.to_value());
                    },
                .adeliver =
                    [this](const MessageId& id, const Payload& payload) {
                      fire_deliver(id, payload);
                    },
            },
            pipeline_depth),
      batcher_(env, rb, batch) {
  rb_.subscribe([this](ProcessId, const Payload& frame) {
    // One batch frame = one ordering entry; the constituent payloads are
    // zero-copy slices of the frame the broadcast layer copied once.
    abcast::BatchView batch_view = abcast::parse_batch(frame);
    core_.on_rdeliver(batch_view.first, std::move(batch_view.payloads));
  });
  cons_.subscribe_decide([this](consensus::InstanceId k, BytesView value) {
    // After a crash-recovery the core may already hold this instance
    // from log replay or catch-up while peers (or pre-crash messages
    // still in flight) finish deciding it live. Agreement makes the
    // decided value unique per instance, so the late copy adds nothing.
    if (k <= core_.instances_completed()) return;
    core_.on_decision(k, IdSet::from_value(value));
  });
}

void AbcastIds::set_journal(OrderingJournal* journal) {
  journal_ = journal;
  core_.set_journal(journal);
}

void AbcastIds::restore_seq(std::uint64_t reserved) {
  next_seq_ = reserved;
  reserved_seq_ = reserved;
}

MessageId AbcastIds::abroadcast(Bytes payload) {
  if (journal_ != nullptr && next_seq_ >= reserved_seq_) {
    reserved_seq_ = next_seq_ + kSeqReserveChunk;
    journal_->on_reserve_seqs(reserved_seq_);
  }
  const MessageId id{env_.self(), ++next_seq_};
  batcher_.add(id, std::move(payload));  // line 8: R-broadcast(m) to all
  return id;
}

}  // namespace ibc::core
