// Ablation: measured wire cost of the three broadcast primitives.
//
// Validates the message-complexity claims behind Figures 5-7: per
// abroadcast, RB-flood costs (n-1)² point-to-point messages, the
// FD-based RB costs n-1 in good runs, and URB costs about n(n-1)
// (origin + every echo). Latency floors differ too: URB delays delivery
// by its echo round. Counts are measured on the simulated network, not
// derived.
#include <cstdio>
#include <vector>

#include "workload/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ibc;
  workload::BenchReport report("ablation_rb_cost", argc, argv);
  const net::NetModel model = net::NetModel::setup1();

  if (!report.quiet()) {
    std::printf(
        "== Broadcast-layer ablation: wire messages per abroadcast and "
        "latency (n=3/5/7, 64 B, 100 msg/s, Setup 1, failure-free) ==\n");
    std::printf("%6s  %-14s %22s %18s\n", "n", "broadcast",
                "net msgs / abroadcast", "mean latency [ms]");
  }

  const struct {
    abcast::RbKind kind;
    const char* name;
  } kinds[] = {
      {abcast::RbKind::kFloodN2, "RB flood n^2"},
      {abcast::RbKind::kFdBasedN, "RB fd-based n"},
      {abcast::RbKind::kUniform, "URB"},
  };
  const std::vector<double> ns = {3, 5, 7};
  std::vector<workload::Series> msgs_series, latency_series;
  for (const auto& k : kinds) {
    msgs_series.push_back({k.name, {}});
    latency_series.push_back({k.name, {}});
  }

  for (const double n_val : ns) {
    const auto n = static_cast<std::uint32_t>(n_val);
    for (std::size_t ki = 0; ki < std::size(kinds); ++ki) {
      const auto& k = kinds[ki];
      workload::ExperimentConfig cfg;
      cfg.cluster.with_n(n).with_model(model).with_stack(
          k.kind == abcast::RbKind::kUniform
              ? workload::ids_plain_ct(k.kind)
              : workload::indirect_ct(model, k.kind));
      cfg.payload_bytes = 64;
      cfg.throughput_msgs_per_sec = 100;
      cfg.warmup = seconds(1);
      cfg.measure = seconds(10);
      cfg.drain = seconds(3);
      const auto r = workload::run_experiment(cfg);
      // Total network messages also include consensus and heartbeats;
      // report per-abroadcast totals (the broadcast-layer delta between
      // rows is the quantity of interest).
      const double per_ab =
          static_cast<double>(r.stats.messages_sent) /
          static_cast<double>(r.broadcasts_measured > 0
                                  ? r.broadcasts_measured
                                  : 1);
      if (!report.quiet())
        std::printf("%6u  %-14s %22.1f %18.3f\n", n, k.name, per_ab,
                    r.mean_latency_ms);
      msgs_series[ki].values.push_back(per_ab);
      latency_series[ki].values.push_back(r.mean_latency_ms);
    }
  }
  if (!report.quiet())
    std::printf(
        "\n(totals include consensus traffic and heartbeats; rows within "
        "one n differ only by the broadcast layer)\n");
  report.record("net msgs per abroadcast (64 B, 100 msg/s, Setup 1)", "n",
                ns, msgs_series);
  report.record("mean latency [ms] (64 B, 100 msg/s, Setup 1)", "n", ns,
                latency_series);
  return report.finish();
}
