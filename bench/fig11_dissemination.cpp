// Figure 11 (beyond the paper) — dissemination topology: ring vs flood.
//
// RbFloodN2 is the paper's dissemination layer: the origin sends a frame
// to all n-1 peers and every receiver re-floods it, so each node pays
// n-1 payload sends per frame and the cluster pays O(n²) wire messages.
// RbRing (docs/PROTOCOL.md D7) forwards each frame only to the ring
// successor: 1 payload send per node, O(n) wire messages, at the price
// of O(n) hop latency and an FD-driven repair path. This bench measures
// the trade as n grows.
//
// Panels (open-loop Poisson via workload::run_experiment, the shared
// methodology of figs 1-10):
//   (a) sim, Setup 1: sustained throughput per (n, rb) — the realized
//       rate of the highest offered-load rung that drains within the
//       straggler tolerance. Flooding's per-node send CPU grows with n
//       (n-1 sends/frame × 60 µs) while the ring's stays flat, so the
//       curves separate as n grows;
//   (b) sim: the mechanism behind (a) — per-node payload sends per frame
//       (n-1 vs 1, observed, not asserted) and the ring's origin→deliver
//       hop-latency high water (the cost side of the trade);
//   (c) loopback TCP: the same sweep on real sockets (smaller n and
//       ladder; wall-clock, indicative).
//
// Run with --smoke for the CI-sized variant (sim n ∈ {3,5}, TCP n = 3,
// two-rung ladders, short phases).
#include <cstdio>
#include <string>
#include <vector>

#include "workload/sweep.hpp"

namespace {

using namespace ibc;

constexpr std::size_t kPayloadBytes = 32;

abcast::StackConfig stack_for(abcast::RbKind rb) {
  abcast::StackConfig config =
      workload::indirect_ct(net::NetModel::setup1(), rb);
  // fig10-style fast-path configuration: a modest ordering window and
  // sender batch so dissemination — not the W=1 ordering round-trip —
  // is the binding constraint.
  config.pipeline_depth = 4;
  config.batch.max_msgs = 8;
  config.batch.max_delay = milliseconds(2);
  config.heartbeat.interval = milliseconds(20);
  config.heartbeat.initial_timeout = milliseconds(200);
  return config;
}

struct Sustained {
  double throughput = 0.0;        // realized msgs/s at the last good rung
  double sends_per_frame = 0.0;   // per-node payload sends/frame (max)
  double hop_latency_ms = 0.0;    // ring origin→deliver high water
  bool ladder_capped = false;     // never saturated within the ladder
  bool measured = false;          // at least one rung drained
};

/// Climbs the offered-load ladder until a rung saturates; the sustained
/// throughput is the realized rate of the highest rung that drained.
Sustained sustained_throughput(std::uint32_t n, runtime::HostKind host,
                               abcast::RbKind rb,
                               const std::vector<double>& ladder,
                               const workload::SweepOptions& opt) {
  Sustained out;
  out.ladder_capped = true;
  for (const double offered : ladder) {
    workload::ExperimentConfig cfg;
    cfg.cluster.with_n(n).with_host(host).with_seed(opt.seed).with_stack(
        stack_for(rb));
    cfg.payload_bytes = kPayloadBytes;
    cfg.throughput_msgs_per_sec = offered;
    cfg.warmup = opt.warmup;
    cfg.measure = opt.measure;
    cfg.drain = opt.drain;
    const workload::ExperimentResult r = workload::run_experiment(cfg);
    IBC_ASSERT_MSG(r.total_order_ok, "total order violated in a bench run");
    if (workload::point_saturated(r, opt)) {
      out.ladder_capped = false;
      break;
    }
    out.measured = true;
    out.throughput = r.delivered_throughput;
    out.sends_per_frame = r.stats.rb_sends_per_frame_max;
    out.hop_latency_ms = r.stats.rb_hop_latency_max_ms;
  }
  return out;
}

std::string rb_name(abcast::RbKind rb) {
  return rb == abcast::RbKind::kRing ? "rb_ring" : "rb_flood";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibc;
  const bool smoke = workload::parse_smoke_flag(argc, argv);
  workload::BenchReport report("fig11_dissemination", argc, argv);
  report.meta("model", "setup1");
  report.meta("payload_bytes", std::to_string(kPayloadBytes));
  report.meta("stack_flood",
              abcast::describe(stack_for(abcast::RbKind::kFloodN2)));
  report.meta("stack_ring", abcast::describe(stack_for(abcast::RbKind::kRing)));

  const std::vector<abcast::RbKind> kinds = {abcast::RbKind::kFloodN2,
                                             abcast::RbKind::kRing};

  // ---- Panels (a)+(b): simulator.
  const std::vector<double> sim_ns =
      smoke ? std::vector<double>{3, 5} : std::vector<double>{3, 5, 9, 17};
  const std::vector<double> sim_ladder =
      smoke ? std::vector<double>{100, 200}
            : std::vector<double>{200, 400, 800,  1600,
                                  3200, 6400, 12800};
  workload::SweepOptions sim_opt;
  sim_opt.warmup = smoke ? milliseconds(300) : seconds(1);
  sim_opt.measure = smoke ? milliseconds(800) : seconds(2);
  sim_opt.drain = smoke ? seconds(1) : seconds(2);

  double flood_n9 = 0.0, ring_n9 = 0.0;
  std::string capped;
  std::vector<workload::Series> sim_tput;
  std::vector<workload::Series> sim_sends;
  std::vector<workload::Series> sim_hop;
  for (const abcast::RbKind rb : kinds) {
    workload::Series tput{"sustained tput [msg/s], " + rb_name(rb), {}};
    workload::Series sends{"per-node sends/frame, " + rb_name(rb), {}};
    workload::Series hop{"hop-latency high water [ms], " + rb_name(rb), {}};
    for (const double n : sim_ns) {
      const auto un = static_cast<std::uint32_t>(n);
      const Sustained s = sustained_throughput(un, runtime::HostKind::kSim,
                                               rb, sim_ladder, sim_opt);
      const double mark = workload::saturated_marker();
      tput.values.push_back(s.measured ? s.throughput : mark);
      sends.values.push_back(s.measured ? s.sends_per_frame : mark);
      hop.values.push_back(s.measured ? s.hop_latency_ms : mark);
      if (s.ladder_capped)
        capped += (capped.empty() ? "" : "; ") + rb_name(rb) +
                  ",n=" + std::to_string(un) + ",sim";
      if (un == 9) (rb == abcast::RbKind::kRing ? ring_n9 : flood_n9) =
          s.throughput;
    }
    sim_tput.push_back(std::move(tput));
    sim_sends.push_back(std::move(sends));
    sim_hop.push_back(std::move(hop));
  }
  report.table(
      "Figure 11a: max sustained throughput vs group size n, flood vs ring "
      "dissemination, sim Setup 1 (open-loop Poisson)",
      "n", sim_ns, sim_tput);
  std::vector<workload::Series> mechanism = sim_sends;
  mechanism.insert(mechanism.end(), sim_hop.begin(), sim_hop.end());
  report.table(
      "Figure 11b: the mechanism — per-node payload sends per frame "
      "(n-1 flooding, 1 ring) and the ring's hop-latency high water",
      "n", sim_ns, mechanism);
  if (flood_n9 > 0.0 && ring_n9 > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2fx (%.0f vs %.0f msg/s)",
                  ring_n9 / flood_n9, ring_n9, flood_n9);
    report.note("sim_ring_vs_flood_n9", buf);
  }

  // ---- Panel (c): loopback TCP (wall-clock; keep it small).
  const std::vector<double> tcp_ns =
      smoke ? std::vector<double>{3} : std::vector<double>{3, 5, 9};
  const std::vector<double> tcp_ladder =
      smoke ? std::vector<double>{200, 400}
            : std::vector<double>{500, 1000, 2000, 4000, 8000};
  workload::SweepOptions tcp_opt;
  tcp_opt.warmup = smoke ? milliseconds(200) : milliseconds(300);
  tcp_opt.measure = smoke ? milliseconds(500) : seconds(1);
  tcp_opt.drain = smoke ? milliseconds(800) : seconds(1);

  std::vector<workload::Series> tcp_tput;
  for (const abcast::RbKind rb : kinds) {
    workload::Series tput{"sustained tput [msg/s], " + rb_name(rb), {}};
    for (const double n : tcp_ns) {
      const auto un = static_cast<std::uint32_t>(n);
      const Sustained s = sustained_throughput(un, runtime::HostKind::kTcp,
                                               rb, tcp_ladder, tcp_opt);
      tput.values.push_back(s.measured ? s.throughput
                                       : workload::saturated_marker());
      if (s.ladder_capped)
        capped += (capped.empty() ? "" : "; ") + rb_name(rb) +
                  ",n=" + std::to_string(un) + ",tcp";
    }
    tcp_tput.push_back(std::move(tput));
  }
  report.table(
      "Figure 11c: max sustained throughput vs n, flood vs ring, loopback "
      "TCP (wall-clock, indicative)",
      "n", tcp_ns, tcp_tput);

  if (!capped.empty()) {
    // No silent caps: these points sustained the whole ladder, so their
    // reported value is a lower bound, not the knee.
    report.note("ladder_capped", capped);
  }
  report.note("workload",
              "open-loop Poisson via workload::run_experiment; sustained = "
              "realized rate of the highest offered-load rung that drained "
              "within the 1% straggler tolerance");
  report.note("smoke", smoke ? "true" : "false");
  return report.finish();
}
