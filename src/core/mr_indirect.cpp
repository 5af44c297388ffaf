#include "core/mr_indirect.hpp"

#include "util/assert.hpp"

namespace ibc::core {

MrIndirect::MrIndirect(runtime::Stack& stack, runtime::LayerId layer_id,
                       fd::FailureDetector& detector, IndirectConfig config)
    : env_(stack.env()),
      config_(config),
      n_(stack.env().n()),
      engine_(
          stack, layer_id, detector,
          consensus::MrConfig{
              // (1) Phase 1: echo v only if rcv(v) (lines 16-19).
              .accept_phase1 =
                  [this](consensus::InstanceId k, BytesView value) {
                    return check_rcv(k, value);
                  },
              // (3) Phase 2: adopt v iff rcv(v) or v came from enough
              // processes to include a correct holder (lines 27-29).
              .adopt_phase2 =
                  [this](consensus::InstanceId k, BytesView value,
                         std::uint32_t count) {
                    // Paper order (line 28): rcv(v) first, then the
                    // copy-count fallback.
                    return check_rcv(k, value) ||
                           count >= consensus::one_third_quorum(n_);
                  },
              // (2) Phase 2 waits for ⌈(2n+1)/3⌉ echoes (line 22).
              .quorum = [](std::uint32_t n) {
                return consensus::two_thirds_quorum(n);
              },
          }) {
  engine_.subscribe_decide(
      [this](consensus::InstanceId k, BytesView value) {
        // The engine never evaluates rcv for a decided instance.
        rcv_.erase(k);
        fire_decide(k, IdSet::from_value(value));
      });
}

bool MrIndirect::check_rcv(consensus::InstanceId k, BytesView value) {
  const IdSet ids = IdSet::from_value(value);
  env_.charge_cpu(config_.rcv_check_cost_per_id *
                  static_cast<Duration>(ids.size()));
  const auto it = rcv_.find(k);
  IBC_ASSERT_MSG(it != rcv_.end(),
                 "rcv evaluated before propose in this instance");
  return it->second(ids);
}

void MrIndirect::propose(consensus::InstanceId k, IdSet v, RcvFn rcv) {
  IBC_REQUIRE(rcv != nullptr);
  IBC_REQUIRE_MSG(rcv(v), "proposer must hold msgs(v) of its own proposal");
  // A decision that arrived first makes the engine ignore the propose;
  // its rcv would never be evaluated nor erased.
  if (!engine_.has_decided(k)) rcv_.emplace(k, std::move(rcv));
  engine_.propose(k, v.to_value());
}

bool MrIndirect::has_decided(consensus::InstanceId k) const {
  return engine_.has_decided(k);
}

}  // namespace ibc::core
