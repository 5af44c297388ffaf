#include "workload/experiment.hpp"

#include <memory>
#include <mutex>

#include "util/assert.hpp"
#include "workload/latency.hpp"

namespace ibc::workload {

namespace {

/// Per-process Poisson source: schedules the next abroadcast through the
/// process's own Env, so a crashed process stops generating. The
/// recorder is shared across processes, hence the mutex (uncontended on
/// the single-threaded simulator, required on TCP reactors).
///
/// The abcast service is resolved per send, not bound at construction:
/// a restart replaces the process's stack, and a reference into the old
/// incarnation would dangle. The Env survives restarts (the host owns
/// it), so the timer chain's home is stable.
class Source {
 public:
  Source(Cluster& cluster, ProcessId p, LatencyRecorder& rec,
         std::mutex& rec_mu, double rate_per_sec, std::size_t payload_bytes,
         TimePoint stop_at)
      : cluster_(cluster),
        process_(p),
        recorder_(rec),
        rec_mu_(rec_mu),
        mean_gap_ns_(1e9 / rate_per_sec),
        payload_(payload_bytes, static_cast<std::uint8_t>(0xA0 + p % 16)),
        stop_at_(stop_at) {}

  void start() { schedule_next(); }

 private:
  void schedule_next() {
    runtime::Env& env = cluster_.env(process_);
    const auto gap =
        static_cast<Duration>(env.rng().next_exponential(mean_gap_ns_));
    // Compute the delay once: on the wall-clock TCP host a second now()
    // read can land *after* `at`, which would make the delay negative.
    const Duration delay = std::max<Duration>(gap, 1);
    if (env.now() + delay >= stop_at_) return;
    env.set_timer(delay, [this, &env] {
      const MessageId id =
          cluster_.node(process_).abcast().abroadcast(payload_);
      {
        const std::scoped_lock lock(rec_mu_);
        recorder_.on_broadcast(id, env.now());
      }
      schedule_next();
    });
  }

  Cluster& cluster_;
  ProcessId process_;
  LatencyRecorder& recorder_;
  std::mutex& rec_mu_;
  double mean_gap_ns_;
  Bytes payload_;
  TimePoint stop_at_;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  IBC_REQUIRE(config.throughput_msgs_per_sec > 0);

  // The driver keeps its own records (LatencyRecorder), so the facade's
  // payload-copying delivery log stays off — it would distort the very
  // latencies being measured.
  Cluster cluster(ClusterOptions(config.cluster).without_delivery_log());

  const TimePoint measure_from = config.warmup;
  const TimePoint measure_to = config.warmup + config.measure;
  const TimePoint run_end = measure_to + config.drain;

  const std::uint32_t n = cluster.n();
  LatencyRecorder recorder(measure_from, measure_to, n);
  std::mutex rec_mu;

  std::vector<std::unique_ptr<Source>> sources;
  sources.reserve(n + 1);
  sources.push_back(nullptr);  // 1-based

  const double per_process_rate = config.throughput_msgs_per_sec / n;

  for (ProcessId p = 1; p <= n; ++p) {
    Cluster::Node& node = cluster.node(p);
    node.on_deliver([&recorder, &rec_mu, &cluster, p](const MessageId& id,
                                                      BytesView) {
      const TimePoint at = cluster.now();
      const std::scoped_lock lock(rec_mu);
      recorder.on_delivery(id, p, at);
    });
    sources.push_back(std::make_unique<Source>(
        cluster, p, recorder, rec_mu, per_process_rate,
        config.payload_bytes, measure_to));
  }
  for (ProcessId p = 1; p <= n; ++p) {
    cluster.host().run_on(p, [&sources, p] { sources[p]->start(); });
  }

  // A restart kills the driver's wiring along with the old incarnation:
  // the delivery subscription died with the stack and the Poisson
  // source's timer chain died with the crash. Re-wire both before the
  // process resumes — the catch-up redeliveries of the downtime gap
  // must land in the recorder, and post-rejoin load must flow again.
  cluster.set_restart_listener(
      [&recorder, &rec_mu, &cluster, &sources](ProcessId p) {
        cluster.node(p).stack().abcast().subscribe(
            [&recorder, &rec_mu, &cluster, p](const MessageId& id,
                                              const Payload&) {
              const TimePoint at = cluster.now();
              const std::scoped_lock lock(rec_mu);
              recorder.on_delivery(id, p, at);
            });
        sources[p]->start();
      });

  // Run generation + measurement + drain, bounded by host time (the
  // heartbeat failure detector keeps event queues busy forever, so
  // "until quiet" is the wrong bound here). Messages still undelivered
  // at run_end are reported as such (saturation — or, for the faulty
  // stack under a crash, a Validity violation).
  const Duration remaining = run_end - cluster.now();
  if (remaining > 0) cluster.run_for(remaining);

  // Quiesce before reading protocol state: on TCP this joins the
  // reactors, so recorder/stacks can be read without races.
  cluster.shutdown();

  ExperimentResult res;
  Samples& samples = recorder.samples();
  res.samples = samples.count();
  res.mean_latency_ms = samples.mean();
  res.p50_latency_ms = samples.quantile(0.50);
  res.p95_latency_ms = samples.quantile(0.95);
  res.max_latency_ms = samples.max();
  res.broadcasts_measured = recorder.broadcasts_in_window();
  res.undelivered = recorder.undelivered(cluster.host().alive_count());
  res.total_order_ok = recorder.total_order_ok();
  res.saturated = res.undelivered > 0;
  res.offered_throughput = config.throughput_msgs_per_sec;
  res.achieved_throughput =
      config.measure > 0
          ? static_cast<double>(res.broadcasts_measured) /
                to_sec(config.measure)
          : 0.0;
  res.delivered_throughput =
      config.measure > 0
          ? static_cast<double>(res.broadcasts_measured - res.undelivered) /
                to_sec(config.measure)
          : 0.0;
  res.stats = cluster.stats();
  return res;
}

}  // namespace ibc::workload
