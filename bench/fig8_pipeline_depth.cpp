// Figure 8 (beyond the paper) — ordering throughput vs pipeline depth.
//
// Algorithm 1 runs one consensus instance at a time; `StackConfig::
// pipeline_depth` (W) lets the ordering core keep up to W instances in
// flight (docs/PROTOCOL.md D1 has the safety argument). This bench
// sweeps W ∈ {1, 2, 4, 8} over a closed-loop workload — one client
// stream per process with staggered think times, so sends land
// mid-instance and the sequential core makes them wait — and reports,
// per W:
//
//   * closed-loop throughput — messages A-delivered by every live
//     process divided by the time from the first abroadcast to the last
//     delivery (the workload fully drains);
//   * mean delivery latency (abroadcast -> last process A-delivers);
//   * the in-flight high-water mark (how much of the window was used).
//
// Three panels: a latency-dominated simulated LAN (fixed round trips
// are what the window overlaps — see docs/BENCHMARKS.md for why the
// CPU-bound Setup models favor the sequential core's batching instead),
// the same scenario with p2 — the round-1 coordinator of every CT
// instance — crashed mid-run (each open instance detours through round
// 2 independently; the window overlaps those detours), and loopback
// TCP. Run with --smoke for the CI-sized variant (sim panels only).
#include <algorithm>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/cluster.hpp"
#include "workload/sweep.hpp"

namespace {

using namespace ibc;

struct Point {
  double throughput = 0.0;   // msgs/s, drained end-to-end
  double mean_latency = 0.0; // ms
  double high_water = 0.0;   // max instances in flight at one process
};

struct Scenario {
  std::uint32_t n = 3;
  int msgs_per_process = 40;
  /// Base think time between a stream's delivery and its next abroadcast;
  /// each process staggers around it so the streams never sync up into
  /// one batch (see run_point).
  Duration think = microseconds(200);
  std::uint64_t seed = 7;
  bool crash_coordinator = false;  // crash p2 (every round-1 coordinator)
  runtime::HostKind host = runtime::HostKind::kSim;
};

abcast::StackConfig stack_for(bool tcp, std::uint32_t w) {
  abcast::StackConfig config;  // indirect CT + RB-flood
  config.pipeline_depth = w;
  if (tcp) {
    config.heartbeat.interval = milliseconds(20);
    config.heartbeat.initial_timeout = milliseconds(200);
  }
  return config;
}

/// The sim panels run on a latency-dominated LAN: 1 ms propagation, no
/// modeled CPU cost (net::NetModel::fast_test). This is the regime the
/// window targets — consensus instances cost fixed round trips, so W=1
/// serializes them while a window overlaps them. In the CPU-bound
/// Setup-1/2 models the sequential core's adaptive batching (one
/// instance carries the whole backlog) already amortizes per-instance
/// costs, and extra instances only add fixed overhead — see
/// docs/BENCHMARKS.md for that trade-off.
net::NetModel sim_model() { return net::NetModel::fast_test(); }

Point run_point(const Scenario& sc, std::uint32_t w) {
  const bool tcp = sc.host == runtime::HostKind::kTcp;
  ClusterOptions options = ClusterOptions{}
                               .with_n(sc.n)
                               .with_seed(sc.seed)
                               .with_stack(stack_for(tcp, w))
                               .with_model(sim_model())
                               .with_host(sc.host);
  const ProcessId crashed = sc.crash_coordinator ? 2 : kInvalidProcess;
  Cluster cluster(options);

  // Closed-loop workload: every process runs one client stream that
  // abroadcasts, waits for its own delivery, thinks a little, and sends
  // the next message — the think times are staggered per process and per
  // round so the streams stay desynchronized. Under the sequential core
  // a desynchronized send always lands mid-instance and waits for the
  // running instance before it can even be proposed; a window proposes
  // it immediately. Closed-loop throughput therefore measures exactly
  // what the window buys.
  std::mutex mu;
  std::unordered_map<MessageId, TimePoint> sent_at;
  std::vector<int> sent(sc.n + 1, 0);
  const TimePoint start = cluster.now();

  const auto think_of = [&sc](ProcessId p, int i) {
    // Deterministic stagger in [think, 2*think).
    return sc.think + sc.think * ((p * 5 + i * 3) % 8) / 8;
  };
  const auto send_next = [&](ProcessId p) {
    const int i = sent[p]++;
    const MessageId id = cluster.node(p).abroadcast(
        "fig8-" + std::to_string(p) + "-" + std::to_string(i));
    if (id != MessageId{}) {
      const std::scoped_lock lock(mu);
      sent_at.emplace(id, cluster.now());
    }
  };
  for (ProcessId p = 1; p <= sc.n; ++p) {
    cluster.node(p).on_deliver([&, p](const MessageId& id, BytesView) {
      if (id.origin != p || sent[p] >= sc.msgs_per_process) return;
      cluster.env(p).set_timer(think_of(p, sent[p]),
                               [&send_next, p] { send_next(p); });
    });
  }
  for (ProcessId p = 1; p <= sc.n; ++p) {
    const ProcessId pid = p;
    cluster.host().run_on(pid, [&send_next, pid] { send_next(pid); });
  }
  if (sc.crash_coordinator) {
    cluster.run_for(milliseconds(5));
    cluster.crash(crashed);
  }
  cluster.run_until_quiesced(/*idle=*/milliseconds(600),
                             /*limit=*/seconds(120));
  cluster.shutdown();

  // A message counts once it is A-delivered by every live process;
  // latency runs to the *last* such delivery (the paper's metric).
  std::unordered_map<MessageId, std::pair<std::size_t, TimePoint>> seen;
  std::size_t live = 0;
  for (ProcessId p = 1; p <= sc.n; ++p) {
    if (cluster.host().crashed(p)) continue;
    ++live;
    for (const Cluster::Delivery& d : cluster.log(p)) {
      auto& entry = seen[d.id];
      ++entry.first;
      entry.second = std::max(entry.second, d.at);
    }
  }
  Point point;
  TimePoint last = start;
  double latency_sum = 0.0;
  std::size_t complete = 0;
  for (const auto& [id, entry] : seen) {
    if (entry.first < live) continue;
    ++complete;
    last = std::max(last, entry.second);
    const auto it = sent_at.find(id);
    if (it != sent_at.end())
      latency_sum += to_ms(entry.second - it->second);
  }
  const double span_sec = to_sec(last - start);
  point.throughput =
      span_sec > 0 ? static_cast<double>(complete) / span_sec : 0.0;
  point.mean_latency = complete > 0 ? latency_sum / complete : 0.0;
  point.high_water = static_cast<double>(cluster.stats().pipeline_high_water);
  return point;
}

void panel(workload::BenchReport& report, const char* title,
           const Scenario& sc, const std::vector<double>& windows) {
  workload::Series tput{"throughput [msg/s]", {}};
  workload::Series latency{"mean latency [ms]", {}};
  workload::Series high{"in-flight high water", {}};
  for (const double w : windows) {
    const Point p = run_point(sc, static_cast<std::uint32_t>(w));
    tput.values.push_back(p.throughput);
    latency.values.push_back(p.mean_latency);
    high.values.push_back(p.high_water);
  }
  report.table(title, "W", windows, {tput, latency, high});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibc;
  const bool smoke = workload::parse_smoke_flag(argc, argv);
  workload::BenchReport report("fig8_pipeline_depth", argc, argv);
  report.meta("host", smoke ? "sim" : "sim + tcp");
  report.meta("n", "3");
  report.meta("stack", abcast::describe(stack_for(false, 1)));
  const std::vector<double> windows = {1, 2, 4, 8};

  Scenario sim;
  sim.msgs_per_process = smoke ? 12 : 48;
  panel(report,
        "Figure 8a: closed-loop throughput vs pipeline depth W, n=3, "
        "latency-dominated LAN (sim)",
        sim, windows);

  Scenario crash = sim;
  crash.crash_coordinator = true;
  panel(report,
        "Figure 8b: same with the perpetual round-1 coordinator (p2) "
        "crashed mid-run (sim)",
        crash, windows);

  if (!smoke) {
    Scenario tcp;
    tcp.host = runtime::HostKind::kTcp;
    tcp.msgs_per_process = 30;
    panel(report, "Figure 8c: closed-loop throughput vs W, n=3, loopback TCP",
          tcp, windows);
  }
  report.note("workload",
              "closed loop: one stream per process, staggered think times, "
              "throughput = delivered-everywhere msgs / time to drain");
  report.note("smoke", smoke ? "true" : "false");
  return report.finish();
}
