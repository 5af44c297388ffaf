// End-to-end experiment driver: the paper's benchmark methodology (§4).
//
// One experiment = one cluster of n processes all running the same stack
// variant, a symmetric workload (every process abroadcasts at rate
// throughput/n, Poisson arrivals), a warmup phase, a measurement window,
// and a drain phase. The result carries the paper's latency metric plus
// network counters and protocol statistics.
//
// The same driver runs on either host (`ExperimentConfig::cluster`'s
// `host`): on the simulator, time is decoupled from wall time — a
// 15-second Setup-1 run completes in milliseconds of real time, which is
// what makes sweeping whole figures practical; on the TCP host the
// identical code path measures real loopback sockets in wall-clock time
// (keep the phases short).
#pragma once

#include <cstddef>

#include "runtime/cluster.hpp"
#include "util/time.hpp"

namespace ibc::workload {

struct ExperimentConfig {
  /// The cluster under test: n, host, network model (Setup 1 by
  /// default), stack, seed, and the crash/restart schedule. A restarted
  /// process resumes generating load (the driver restarts its Poisson
  /// source and re-subscribes its latency recorder — the old
  /// incarnation's subscriptions died with it). The driver turns the
  /// cluster's delivery log off; it keeps its own records.
  ClusterOptions cluster =
      ClusterOptions{}.with_model(net::NetModel::setup1());

  std::size_t payload_bytes = 1;
  double throughput_msgs_per_sec = 100.0;  // global abroadcast rate

  Duration warmup = seconds(2);
  Duration measure = seconds(10);
  Duration drain = seconds(3);
};

struct ExperimentResult {
  // The paper's metric.
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  std::size_t samples = 0;

  std::size_t broadcasts_measured = 0;  // abroadcasts in the window
  std::size_t undelivered = 0;          // not delivered by all alive procs
  bool total_order_ok = false;
  bool saturated = false;  // undelivered > 0 after drain

  double offered_throughput = 0.0;   // configured msgs/s
  double achieved_throughput = 0.0;  // abroadcasts/s realized in window
  /// Messages from the window delivered by every alive process, per
  /// second of the window — the saturation metric: equals the realized
  /// offered rate while the stack keeps up, collapses when it cannot.
  double delivered_throughput = 0.0;

  /// Network, protocol and recovery counters over the whole run (incl.
  /// warmup/drain). The delivery-log fields are empty: the driver runs
  /// without the cluster's log.
  ClusterStats stats;
};

/// Runs one experiment to completion and returns its measurements.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace ibc::workload
