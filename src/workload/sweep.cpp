#include "workload/sweep.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace ibc::workload {

bool point_saturated(const ExperimentResult& result,
                     const SweepOptions& opt) {
  const double undelivered_frac =
      result.broadcasts_measured == 0
          ? 0.0
          : static_cast<double>(result.undelivered) /
                static_cast<double>(result.broadcasts_measured);
  return undelivered_frac > opt.straggler_tolerance;
}

double latency_point(std::uint32_t n, const net::NetModel& model,
                     const abcast::StackConfig& stack,
                     std::size_t payload_bytes, double throughput,
                     const SweepOptions& opt) {
  ExperimentConfig cfg;
  cfg.cluster.with_n(n).with_model(model).with_stack(stack).with_seed(
      opt.seed);
  cfg.payload_bytes = payload_bytes;
  cfg.throughput_msgs_per_sec = throughput;
  cfg.warmup = opt.warmup;
  cfg.measure = opt.measure;
  cfg.drain = opt.drain;
  const ExperimentResult r = run_experiment(cfg);
  IBC_ASSERT_MSG(r.total_order_ok, "total order violated in a bench run");
  if (point_saturated(r, opt)) return saturated_marker();
  return r.mean_latency_ms;
}

bool parse_smoke_flag(int argc, char* const* argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  return false;
}

abcast::StackConfig indirect_ct(const net::NetModel& model,
                                abcast::RbKind rb) {
  abcast::StackConfig c;
  c.variant = abcast::Variant::kIndirect;
  c.algo = abcast::ConsensusAlgo::kCt;
  c.rb = rb;
  c.fd = abcast::FdKind::kHeartbeat;
  c.rcv_check_cost_per_id = model.rcv_check_cost_per_id;
  return c;
}

abcast::StackConfig msgs_ct(abcast::RbKind rb) {
  abcast::StackConfig c;
  c.variant = abcast::Variant::kMsgs;
  c.algo = abcast::ConsensusAlgo::kCt;
  c.rb = rb;
  c.fd = abcast::FdKind::kHeartbeat;
  return c;
}

abcast::StackConfig ids_plain_ct(abcast::RbKind rb) {
  abcast::StackConfig c;
  c.variant = abcast::Variant::kIdsPlain;
  c.algo = abcast::ConsensusAlgo::kCt;
  c.rb = rb;
  c.fd = abcast::FdKind::kHeartbeat;
  return c;
}

}  // namespace ibc::workload
