// Figure 9 (beyond the paper) — ordering throughput vs batch size ×
// pipeline depth.
//
// PR 3 pipelined the ordering side (fig8); this bench measures what
// sender-side payload batching (`StackConfig::batch`, docs/PROTOCOL.md
// D5) buys on the *dissemination* side. On the CPU-calibrated Setup-1
// model the per-message costs are the paper's Java-era per-frame
// overheads: an unbatched abroadcast costs ~10 message handlings across
// the cluster (RB-flood at n=3) before consensus even sees its id. A
// batch of k messages costs the same per *frame*, so the saturation
// throughput scales with the achieved batch size — the same effect
// Ring Paxos exploits.
//
// Panels (all open-loop Poisson via workload::run_experiment — the
// shared methodology of figs 1-7):
//   (a) sim, Setup 1: max sustained throughput per (B, W) — the highest
//       rung of a geometric offered-load ladder that drains within the
//       straggler tolerance;
//   (b) sim, Setup 1: mean latency at a moderate fixed load — what the
//       batch delay costs when the system is *not* saturated;
//   (c) loopback TCP: delivered throughput at a fixed high offered load
//       (wall-clock, indicative — see docs/BENCHMARKS.md).
//
// Run with --smoke for the CI-sized sim-only variant.
#include <algorithm>
#include <string>
#include <vector>

#include "workload/sweep.hpp"

namespace {

using namespace ibc;

constexpr std::size_t kPayloadBytes = 32;

abcast::StackConfig stack_for(std::size_t batch_msgs, std::uint32_t window,
                              const net::NetModel& model, bool tcp) {
  abcast::StackConfig config =
      workload::indirect_ct(model, abcast::RbKind::kFloodN2);
  config.pipeline_depth = window;
  config.batch.max_msgs = batch_msgs;
  // 2 ms of extra sender-side latency buys batch formation at high load;
  // panel (b) shows what it costs when load is low.
  config.batch.max_delay = milliseconds(2);
  if (tcp) {
    config.heartbeat.interval = milliseconds(20);
    config.heartbeat.initial_timeout = milliseconds(200);
  }
  return config;
}

workload::ExperimentResult run_point(std::size_t batch_msgs,
                                     std::uint32_t window, double offered,
                                     const workload::SweepOptions& opt,
                                     runtime::HostKind host) {
  workload::ExperimentConfig cfg;
  cfg.cluster.with_host(host).with_seed(opt.seed).with_stack(
      stack_for(batch_msgs, window, cfg.cluster.model,
                host == runtime::HostKind::kTcp));
  cfg.payload_bytes = kPayloadBytes;
  cfg.throughput_msgs_per_sec = offered;
  cfg.warmup = opt.warmup;
  cfg.measure = opt.measure;
  cfg.drain = opt.drain;
  const workload::ExperimentResult r = workload::run_experiment(cfg);
  IBC_ASSERT_MSG(r.total_order_ok, "total order violated in a bench run");
  return r;
}

struct Sustained {
  double throughput = 0.0;     // realized msgs/s at the last good rung
  double msgs_per_batch = 0.0; // achieved batching at that rung
  bool ladder_capped = false;  // never saturated within the ladder
};

/// Climbs the offered-load ladder until a rung saturates; the sustained
/// throughput is the realized rate of the highest rung that drained.
Sustained sustained_throughput(std::size_t batch_msgs, std::uint32_t window,
                               const std::vector<double>& ladder,
                               const workload::SweepOptions& opt) {
  Sustained out;
  out.ladder_capped = true;
  for (const double offered : ladder) {
    const workload::ExperimentResult r =
        run_point(batch_msgs, window, offered, opt, runtime::HostKind::kSim);
    if (workload::point_saturated(r, opt)) {
      out.ladder_capped = false;
      break;
    }
    out.throughput = r.achieved_throughput;
    out.msgs_per_batch = r.stats.msgs_per_batch_avg;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibc;
  const bool smoke = workload::parse_smoke_flag(argc, argv);
  workload::BenchReport report("fig9_batching", argc, argv);
  report.meta("host", smoke ? "sim" : "sim + tcp");
  report.meta("n", "3");
  report.meta("model", "setup1");
  report.meta("stack",
              abcast::describe(stack_for(/*batch_msgs=*/16, /*window=*/4,
                                         net::NetModel::setup1(), false)));
  report.meta("payload_bytes", std::to_string(kPayloadBytes));

  const std::vector<double> batches =
      smoke ? std::vector<double>{1, 8} : std::vector<double>{1, 4, 16};
  const std::vector<std::uint32_t> windows =
      smoke ? std::vector<std::uint32_t>{1} : std::vector<std::uint32_t>{1, 4};
  const std::vector<double> ladder =
      smoke ? std::vector<double>{400, 1600}
            : std::vector<double>{500,  1000,  2000,  4000,
                                  8000, 16000, 32000};

  workload::SweepOptions opt;
  opt.warmup = smoke ? milliseconds(500) : seconds(1);
  opt.measure = smoke ? seconds(1) : seconds(4);
  opt.drain = smoke ? seconds(1) : seconds(3);

  // ------------------------------------------------- (a) sim saturation
  double baseline = 0.0;  // sustained at (B=1, W=1)
  double best = 0.0;
  std::string best_label = "B=1,W=1";
  std::string capped;  // configs that never saturated within the ladder
  std::vector<workload::Series> sustained_series;
  std::vector<workload::Series> batching_series;
  for (const std::uint32_t w : windows) {
    workload::Series tput{"sustained tput [msg/s], W=" + std::to_string(w),
                          {}};
    workload::Series mpb{"msgs/batch at knee, W=" + std::to_string(w), {}};
    for (const double b : batches) {
      const std::string label = "B=" +
                                std::to_string(static_cast<int>(b)) +
                                ",W=" + std::to_string(w);
      const Sustained s = sustained_throughput(
          static_cast<std::size_t>(b), w, ladder, opt);
      tput.values.push_back(s.throughput);
      mpb.values.push_back(s.msgs_per_batch);
      if (s.ladder_capped) capped += (capped.empty() ? "" : "; ") + label;
      if (b == 1 && w == 1) baseline = s.throughput;
      if (s.throughput > best) {
        best = s.throughput;
        best_label = label;
      }
    }
    sustained_series.push_back(std::move(tput));
    batching_series.push_back(std::move(mpb));
  }
  if (!capped.empty()) {
    // No silent caps: these points sustained the whole ladder, so their
    // reported value is a lower bound, not the knee.
    report.note("sim_ladder_capped", capped);
  }
  std::vector<workload::Series> panel_a = sustained_series;
  panel_a.insert(panel_a.end(), batching_series.begin(),
                 batching_series.end());
  report.table(
      "Figure 9a: max sustained throughput vs batch size B and window W, "
      "n=3, Setup 1 (sim, open-loop Poisson)",
      "B", batches, panel_a);

  if (baseline > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2fx at %s", best / baseline,
                  best_label.c_str());
    report.note("sim_improvement_best_vs_B1W1", buf);
  }

  // ---------------------------------------- (b) sim latency off the knee
  {
    const double moderate = smoke ? 300 : 800;  // msg/s, all configs drain
    std::vector<workload::Series> latency;
    for (const std::uint32_t w : windows) {
      workload::Series s{"mean latency [ms], W=" + std::to_string(w), {}};
      for (const double b : batches) {
        const workload::ExperimentResult r =
            run_point(static_cast<std::size_t>(b), w, moderate, opt,
                      runtime::HostKind::kSim);
        s.values.push_back(workload::point_saturated(r, opt)
                               ? workload::saturated_marker()
                               : r.mean_latency_ms);
      }
      latency.push_back(std::move(s));
    }
    report.table(
        "Figure 9b: mean latency at a moderate load vs batch size "
        "(the cost of the 2 ms batch delay off-saturation), n=3, Setup 1",
        "B", batches, latency);
  }

  // --------------------------------------------------- (c) loopback TCP
  if (!smoke) {
    workload::SweepOptions tcp_opt;
    tcp_opt.warmup = milliseconds(500);
    tcp_opt.measure = milliseconds(1500);
    tcp_opt.drain = seconds(1);
    const double offered = 3000;
    std::vector<workload::Series> tcp_series;
    for (const std::uint32_t w : windows) {
      workload::Series s{"delivered tput [msg/s], W=" + std::to_string(w),
                         {}};
      for (const double b : batches) {
        const workload::ExperimentResult r =
            run_point(static_cast<std::size_t>(b), w, offered, tcp_opt,
                      runtime::HostKind::kTcp);
        s.values.push_back(r.delivered_throughput);
      }
      tcp_series.push_back(std::move(s));
    }
    report.table(
        "Figure 9c: delivered throughput at 3000 msg/s offered, n=3, "
        "loopback TCP (wall-clock, indicative)",
        "B", batches, tcp_series);
  }

  report.note("workload",
              "open-loop Poisson via workload::run_experiment; sustained = "
              "realized rate of the highest offered-load rung that drained "
              "within the 1% straggler tolerance");
  report.note("batch_max_delay", "2ms");
  report.note("smoke", smoke ? "true" : "false");
  return report.finish();
}
