#include "abcast/stack_builder.hpp"

#include "util/assert.hpp"

namespace ibc::abcast {

std::string describe(const StackConfig& config) {
  std::string out;
  switch (config.variant) {
    case Variant::kIndirect: out = "indirect-"; break;
    case Variant::kMsgs: out = "msgs-"; break;
    case Variant::kIdsPlain: out = "ids-plain-"; break;
  }
  out += config.algo == ConsensusAlgo::kCt ? "CT" : "MR";
  switch (config.rb) {
    case RbKind::kFloodN2: out += " + RB(n^2)"; break;
    case RbKind::kFdBasedN: out += " + RB(n)"; break;
    case RbKind::kUniform: out += " + URB"; break;
    case RbKind::kRing: out += " + RB(ring)"; break;
  }
  if (config.pipeline_depth > 1)
    out += " [W=" + std::to_string(config.pipeline_depth) + "]";
  if (config.batch.max_msgs > 1)
    out += " [B=" + std::to_string(config.batch.max_msgs) + "]";
  if (!is_correct_stack(config)) out += " [FAULTY]";
  return out;
}

bool is_correct_stack(const StackConfig& config) {
  return !(config.variant == Variant::kIdsPlain &&
           config.rb != RbKind::kUniform);
}

namespace {

void apply_injected_bugs(const StackConfig& config,
                         core::OrderingCore* ordering) {
  if (config.bugs.skip_ordering_dedup) {
    IBC_REQUIRE_MSG(ordering != nullptr,
                    "skip_ordering_dedup needs an id-ordering stack");
    ordering->set_skip_dedup_for_test(true);
  }
}

}  // namespace

ProcessStack::ProcessStack(runtime::Host& host, ProcessId p,
                           const StackConfig& config, store::Dir* durable,
                           const recovery::Config& recovery_config)
    : stack_(host.env(p)) {
  IBC_REQUIRE_MSG(durable == nullptr || config.variant == Variant::kIndirect,
                  "crash recovery is implemented for the indirect stack");
  runtime::Env& env = stack_.env();
  net::SimNetwork* sim = host.sim_network();
  // Failure detector.
  switch (config.fd) {
    case FdKind::kHeartbeat:
      heartbeat_fd_ = std::make_unique<fd::HeartbeatFd>(
          stack_, runtime::kLayerFd, config.heartbeat);
      fd_ = heartbeat_fd_.get();
      break;
    case FdKind::kPerfect:
      IBC_REQUIRE_MSG(sim != nullptr,
                      "PerfectFd needs the simulated network's oracle");
      perfect_fd_ = std::make_unique<fd::PerfectFd>(
          env, *sim, config.perfect_fd_delay);
      fd_ = perfect_fd_.get();
      break;
  }

  // Broadcast layer.
  switch (config.rb) {
    case RbKind::kFloodN2:
      bcast_owned_ =
          std::make_unique<bcast::RbFlood>(stack_, runtime::kLayerBcast);
      break;
    case RbKind::kFdBasedN:
      bcast_owned_ = std::make_unique<bcast::RbFdBased>(
          stack_, runtime::kLayerBcast, *fd_);
      break;
    case RbKind::kUniform:
      bcast_owned_ =
          std::make_unique<bcast::UrbBroadcast>(stack_, runtime::kLayerUrb);
      break;
    case RbKind::kRing:
      bcast_owned_ = std::make_unique<bcast::RbRing>(
          stack_, runtime::kLayerBcast, *fd_);
      break;
  }
  bcast_ = bcast_owned_.get();

  // Consensus engine + atomic broadcast. The indirect engine's rcv reads
  // ordering_, which is set below, before any propose can happen.
  const bool indirect = config.variant == Variant::kIndirect;
  const Duration rcv_cost = config.rcv_check_cost_per_id;
  const core::RcvFn rcv = [this](const core::IdSet& v) {
    return ordering_->rcv(v);
  };
  if (config.algo == ConsensusAlgo::kCt) {
    consensus_ = std::make_unique<consensus::CtConsensus>(
        stack_, runtime::kLayerConsensus, *fd_,
        indirect ? core::indirect_ct(env, rcv_cost, rcv)
                 : consensus::CtConfig{});
  } else {
    consensus_ = std::make_unique<consensus::MrConsensus>(
        stack_, runtime::kLayerConsensus, *fd_,
        indirect ? core::indirect_mr(env, rcv_cost, rcv)
                 : consensus::MrConfig{});
  }
  core::AbcastIds* ids = nullptr;
  if (config.variant == Variant::kMsgs) {
    abcast_ = std::make_unique<AbcastMsgs>(env, *bcast_, *consensus_,
                                           config.batch);
  } else {
    auto owned = std::make_unique<core::AbcastIds>(
        env, *bcast_, *consensus_, config.pipeline_depth, config.batch);
    ids = owned.get();
    ordering_ = &owned->mutable_ordering();
    abcast_ = std::move(owned);
  }
  apply_injected_bugs(config, ordering_);
  if (durable == nullptr) return;

  // Recover whatever the store holds (empty on first boot), load it into
  // the fresh core, then install the journal so every subsequent event
  // is logged.
  recovery_ =
      std::make_unique<recovery::RecoveryManager>(*durable, recovery_config);
  const recovery::RecoveryManager::Recovered& rec = recovery_->recovered();
  ordering_->restore(rec.core);
  // Instances up to opened_k may have been voted in by the previous
  // incarnation; this one abstains from them (D6) — and must say so, or
  // peers wait forever on it as those rounds' coordinator.
  consensus_->set_participation_floor(rec.core.opened_k);
  // The restored prefix, and later every decision catch-up applies,
  // counts towards the decided prefix the engine reports (D9): the
  // engine never decides those instances itself.
  consensus_->note_applied(rec.core.applied_k);
  ids->restore_seq(rec.reserved_seq);
  // Each broadcast frame consumes at least one reserved abcast seq and
  // reservations are synced before use, so reserved_seq bounds every
  // prior incarnation's broadcast-seq usage: rebasing here keeps this
  // incarnation's frames out of peers' dedup tables.
  bcast_->set_seq_base(rec.reserved_seq);
  ids->set_journal(recovery_.get());
  recovery_->attach(ordering_);
  catchup_ = std::make_unique<recovery::CatchupLayer>(*recovery_, *ordering_);
  catchup_->bind(
      stack_.register_layer(recovery::kLayerCatchup, *catchup_, "catchup"));
  recovery_->set_apply_listener([this] {
    catchup_->notify_decision_applied();
    consensus_->note_applied(ordering_->instances_completed());
  });
}

void ProcessStack::begin_catchup() {
  IBC_REQUIRE_MSG(catchup_ != nullptr,
                  "begin_catchup needs a recovery-enabled stack");
  catchup_->begin();
}

}  // namespace ibc::abcast
