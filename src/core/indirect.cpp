#include "core/indirect.hpp"

#include <utility>

namespace ibc::core {

namespace {

/// The rcv test at an adapted decision point, as the engines call it.
std::function<bool(consensus::InstanceId, BytesView)> rcv_gate(
    runtime::Env& env, Duration cost_per_id, RcvFn rcv) {
  return [&env, cost_per_id, rcv = std::move(rcv)](consensus::InstanceId,
                                                    BytesView value) {
    const IdSet ids = IdSet::from_value(value);
    // Charge the modeled cost of the lookup loop (§4.3: the overhead of
    // indirect consensus grows with the proposal size because of these
    // per-id checks).
    env.charge_cpu(cost_per_id * static_cast<Duration>(ids.size()));
    return rcv(ids);
  };
}

}  // namespace

consensus::CtConfig indirect_ct(runtime::Env& env, Duration cost_per_id,
                                RcvFn rcv) {
  return consensus::CtConfig{
      // Algorithm 2 lines 25-30: adopt + ack only if rcv.
      .accept_proposal = rcv_gate(env, cost_per_id, std::move(rcv)),
  };
}

consensus::MrConfig indirect_mr(runtime::Env& env, Duration cost_per_id,
                                RcvFn rcv) {
  auto gate = rcv_gate(env, cost_per_id, std::move(rcv));
  const std::uint32_t n = env.n();
  return consensus::MrConfig{
      // (1) Phase 1: echo v only if rcv(v) (lines 16-19).
      .accept_phase1 = gate,
      // (3) Phase 2: adopt v iff rcv(v) or v came from enough processes
      // to include a correct holder (lines 27-29).
      .adopt_phase2 =
          [gate, n](consensus::InstanceId k, BytesView value,
                    std::uint32_t count) {
            // Paper order (line 28): rcv(v) first, then the copy-count
            // fallback.
            return gate(k, value) || count >= consensus::one_third_quorum(n);
          },
      // (2) Phase 2 waits for ⌈(2n+1)/3⌉ echoes (line 22).
      .quorum = consensus::two_thirds_quorum,
  };
}

}  // namespace ibc::core
