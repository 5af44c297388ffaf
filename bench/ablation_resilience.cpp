// Ablation: the resilience price of indirect MR (§3.3, E8).
//
// Crashes f processes during warmup and checks whether atomic broadcast
// keeps delivering. Indirect CT needs a majority alive (f < n/2);
// indirect MR needs ⌈(2n+1)/3⌉ processes alive (f < n/3) — the paper's
// headline cost of adapting MR. Each row reports whether all messages
// broadcast after the crashes were delivered by every survivor.
#include <cstdio>
#include <vector>

#include "workload/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ibc;
  workload::BenchReport report("ablation_resilience", argc, argv);
  const net::NetModel model = net::NetModel::setup1();

  if (!report.quiet()) {
    std::printf(
        "== Resilience under f crashes (crashes at t=1s, measurement "
        "starts at t=3s, 100 msg/s, Setup 1) ==\n");
    std::printf("%4s %4s  %-26s %-26s\n", "n", "f", "indirect CT (f<n/2)",
                "indirect MR (f<n/3)");
  }

  for (const std::uint32_t n : {4u, 5u, 7u}) {
    std::vector<double> fs;
    workload::Series ct{"indirect CT mean latency [ms]", {}};
    workload::Series mr{"indirect MR mean latency [ms]", {}};
    for (std::uint32_t f = 0; f <= (n - 1) / 2; ++f) {
      fs.push_back(f);
      std::string cells[2];
      for (int a = 0; a < 2; ++a) {
        workload::ExperimentConfig cfg;
        cfg.cluster.with_n(n).with_model(model).with_stack(
            workload::indirect_ct(model, abcast::RbKind::kFloodN2));
        if (a == 1) cfg.cluster.stack.algo = abcast::ConsensusAlgo::kMr;
        cfg.payload_bytes = 16;
        cfg.throughput_msgs_per_sec = 100;
        cfg.warmup = seconds(3);
        cfg.measure = seconds(6);
        cfg.drain = seconds(4);
        for (std::uint32_t i = 0; i < f; ++i)
          cfg.cluster.with_crash(seconds(1), static_cast<ProcessId>(2 + i));
        const auto r = workload::run_experiment(cfg);
        char buf[64];
        const bool ok = r.undelivered == 0 && r.broadcasts_measured > 0;
        if (ok) {
          std::snprintf(buf, sizeof buf, "OK (%.2f ms)",
                        r.mean_latency_ms);
        } else {
          std::snprintf(buf, sizeof buf, "BLOCKED (%zu undelivered)",
                        r.undelivered);
        }
        cells[a] = buf;
        // Blocked points record as null, like saturation in the figures.
        (a == 0 ? ct : mr).values.push_back(
            ok ? r.mean_latency_ms : workload::saturated_marker());
      }
      if (!report.quiet())
        std::printf("%4u %4u  %-26s %-26s\n", n, f, cells[0].c_str(),
                    cells[1].c_str());
    }
    char title[96];
    std::snprintf(title, sizeof title,
                  "Resilience under f crashes, n=%u (null = blocked)", n);
    report.record(title, "f", fs, {ct, mr});
  }
  if (!report.quiet())
    std::printf(
        "\nExpected: CT rows stay OK up to f = ceil(n/2)-1; MR rows block "
        "once f >= n/3 — the resilience reduction of Algorithm 3.\n");
  return report.finish();
}
