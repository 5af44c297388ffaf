// The benchmark harness: seeded open-loop workloads driven through the
// public API (ibc::Cluster, Host, Env, ProcessStack, AbcastService,
// BroadcastService), correctness checks on the delivery logs, and an
// optional traced mode that times calls into each layer from outside.
//
// Nothing here reaches into the protocol's internals: every figure comes
// from a subscription, a public getter, a timed public call, the host's
// counters, or the operating system (getrusage, mallinfo2, schedstat).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "abcast/stack_builder.hpp"
#include "net/netmodel.hpp"
#include "runtime/host.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace perfbench {

using ibc::Duration;
using ibc::ProcessId;
using ibc::TimePoint;

/// One workload definition. Rates, stack and fault schedule are part of
/// the definition; the generator draws arrival times, payload sizes and
/// routing from the seed.
struct Workload {
  std::string name;
  std::uint32_t n = 3;
  ibc::runtime::HostKind host = ibc::runtime::HostKind::kSim;
  ibc::net::NetModel model = ibc::net::NetModel::setup1();
  ibc::abcast::StackConfig stack = {};
  bool recovery = false;

  double rate = 1000.0;            // offered msgs/s, Poisson
  std::size_t payload_bytes = 32;  // every message, unless drawn large
  std::size_t large_bytes = 0;     // size of the large class (0 = none)
  std::uint32_t large_one_in = 0;  // 1 in this many messages is large

  Duration warmup = ibc::seconds(1);  // generated, not measured
  Duration window = ibc::seconds(10);
  Duration drain_cap = ibc::seconds(10);

  // Crash/restart cycles (fault_process = 0: none). Cycle c spans
  // [window_start + c*cycle, window_start + (c+1)*cycle); the crash lands
  // at crash_offset into it and the restart restart_after later.
  ProcessId fault_process = 0;
  std::uint32_t cycles = 0;
  Duration cycle = 0;
  Duration crash_offset = 0;
  Duration restart_after = 0;
  /// The generator stops routing to the fault process this long before
  /// its crash, so no message dies inside the crashing process's open
  /// batch (a loss the specification allows and this workload does not
  /// set out to measure).
  Duration quiesce = 0;

  bool sim() const { return host == ibc::runtime::HostKind::kSim; }
};

/// Builds the named workload. Returns false for an unknown name.
bool make_workload(const std::string& name, Workload& out);

struct RunOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  std::string spans_path;  // traced runs write their spans here
};

/// Every set-up timed in one batch, in seconds. Callers pool the samples
/// of all batches of a run and take one median.
struct SetupTiming {
  std::vector<double> setup_s;           // construction -> probe delivered
  std::vector<double> construct_s;       // Cluster construction
  std::vector<double> first_delivery_s;  // construction done -> delivered
  int undelivered = 0;                   // set-ups whose probe got stuck
};

/// One generated run: generation, window, drain, checks.
struct RunResult {
  /// Set-ups timed just before this run (see measure_setup).
  SetupTiming setup;

  std::uint64_t attempted = 0;  // messages generated
  std::uint64_t failed = 0;     // refused, or not delivered everywhere
  std::vector<std::string> violations;
  bool generator_behind = false;

  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  std::uint64_t latency_pairs = 0;
  double cpu_us_per_msg = 0.0;
  double heap_bytes_per_msg = 0.0;
  double outage_ms = 0.0;  // fault workloads only

  /// Per-layer figures. Untraced runs fill the counter-derived ones;
  /// traced runs add the spans, samplers and timed calls.
  std::map<std::string, double> layer;
  /// Every figure that is a pure function of (workload, seed) on the
  /// simulator — compared bit for bit across repetitions.
  std::map<std::string, double> deterministic;
};

RunResult run_workload(const Workload& w, const RunOptions& options);

/// Builds the workload's cluster again and again, at least `min_reps`
/// times and until `min_wall` has passed, and times construction and the
/// first A-delivery of a probe at every process.
SetupTiming measure_setup(const Workload& w, std::uint64_t seed, int min_reps,
                          Duration min_wall);

/// Deterministic sim-time search: the highest offered rate at which the
/// workload's stack keeps p99 <= 25 ms with nothing undelivered.
double sustained_rate(const Workload& w, std::uint64_t seed);

/// Median of `v` (copied; empty -> 0).
double median(std::vector<double> v);

}  // namespace perfbench
