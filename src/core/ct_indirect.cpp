#include "core/ct_indirect.hpp"

#include "util/assert.hpp"

namespace ibc::core {

CtIndirect::CtIndirect(runtime::Stack& stack, runtime::LayerId layer_id,
                       fd::FailureDetector& detector, IndirectConfig config)
    : env_(stack.env()),
      config_(config),
      engine_(stack, layer_id, detector,
              consensus::CtConfig{
                  // Algorithm 2 lines 25-30: adopt + ack only if rcv.
                  .accept_proposal =
                      [this](consensus::InstanceId k, BytesView value) {
                        return check_rcv(k, value);
                      },
              }) {
  engine_.subscribe_decide(
      [this](consensus::InstanceId k, BytesView value) {
        // The engine never evaluates rcv for a decided instance.
        rcv_.erase(k);
        fire_decide(k, IdSet::from_value(value));
      });
}

bool CtIndirect::check_rcv(consensus::InstanceId k, BytesView value) {
  const IdSet ids = IdSet::from_value(value);
  // Charge the modeled cost of the lookup loop (§4.3: the overhead of
  // indirect consensus grows with the proposal size because of these
  // per-id checks).
  env_.charge_cpu(config_.rcv_check_cost_per_id *
                  static_cast<Duration>(ids.size()));
  const auto it = rcv_.find(k);
  IBC_ASSERT_MSG(it != rcv_.end(),
                 "rcv evaluated before propose in this instance");
  return it->second(ids);
}

void CtIndirect::propose(consensus::InstanceId k, IdSet v, RcvFn rcv) {
  IBC_REQUIRE(rcv != nullptr);
  IBC_REQUIRE_MSG(rcv(v), "proposer must hold msgs(v) of its own proposal");
  // A decision that arrived first makes the engine ignore the propose;
  // its rcv would never be evaluated nor erased.
  if (!engine_.has_decided(k)) rcv_.emplace(k, std::move(rcv));
  engine_.propose(k, v.to_value());
}

bool CtIndirect::has_decided(consensus::InstanceId k) const {
  return engine_.has_decided(k);
}

}  // namespace ibc::core
