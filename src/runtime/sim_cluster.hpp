// Simulation host: one Env per process on top of Scheduler + SimNetwork.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/netmodel.hpp"
#include "net/simnet.hpp"
#include "runtime/env.hpp"
#include "runtime/host.hpp"
#include "sim/scheduler.hpp"

namespace ibc::runtime {

/// Env implementation backed by the discrete-event simulator. Timer and
/// receive callbacks stop firing once the process crashes in the network
/// (a crashed process executes no further code).
class SimEnv final : public Env {
 public:
  SimEnv(sim::Scheduler& sched, net::SimNetwork& net, ProcessId self,
         Rng rng);

  using Env::send;  // keep the Bytes convenience overload visible

  ProcessId self() const override { return self_; }
  std::uint32_t n() const override { return net_.n(); }
  TimePoint now() const override { return sched_.now(); }
  void send(ProcessId dst, Payload msg) override;
  void multicast(Payload msg) override;
  TimerId set_timer(Duration delay, TimerFn fn) override;
  void cancel_timer(TimerId id) override;
  void defer(TimerFn fn) override;
  void charge_cpu(Duration cost) override;
  void set_receive(ReceiveFn fn) override { receive_ = std::move(fn); }
  Rng& rng() override { return rng_; }
  const Logger& log() const override { return log_; }

  /// Called by the cluster when the network delivers a message to self.
  void handle_delivery(ProcessId from, BytesView msg);

  /// Invalidates every timer and deferred callback armed so far: they
  /// belong to the incarnation that just crashed and must not fire into
  /// the stack built for the next one (the `!crashed` guard alone would
  /// pass again after a restart). Called by SimCluster::restart.
  void bump_epoch() { ++epoch_; }

 private:
  /// Wraps a timer or deferred callback so it fires only into the
  /// incarnation that armed it, and only while that one is alive.
  sim::EventFn guarded(TimerFn fn);

  sim::Scheduler& sched_;
  net::SimNetwork& net_;
  ProcessId self_;
  Rng rng_;
  Logger log_;
  ReceiveFn receive_;
  std::uint64_t epoch_ = 0;
};

/// A complete simulated group: scheduler, network, and one SimEnv per
/// process. Implements `runtime::Host`, so scenario code (the
/// `ibc::Cluster` facade, the experiment driver) drives it exactly like
/// the TCP host.
class SimCluster final : public Host {
 public:
  /// `seed` drives every random stream in the run (network jitter,
  /// per-process RNGs); same (n, model, seed) => identical execution.
  SimCluster(std::uint32_t n, const net::NetModel& model,
             std::uint64_t seed);

  std::uint32_t n() const override { return net_.n(); }
  sim::Scheduler& scheduler() { return sched_; }
  net::SimNetwork& network() { return net_; }
  Env& env(ProcessId p) override;

  HostKind kind() const override { return HostKind::kSim; }
  void start() override {}     // the scheduler needs no warm-up
  void shutdown() override {}  // ... and no teardown

  /// Executes `fn` inline (the simulation is single-threaded); skipped if
  /// `p` already crashed.
  void run_on(ProcessId p, std::function<void()> fn) override {
    if (!net_.crashed(p)) fn();
  }

  /// Crashes `p` now / at absolute simulated time `t`.
  void crash(ProcessId p) override { net_.crash(p); }
  void crash_at(TimePoint t, ProcessId p) override { net_.crash_at(t, p); }

  /// Revives `p`: pre-crash timers/deferred callbacks are invalidated
  /// (epoch bump) before the network endpoint comes back, so nothing of
  /// the old incarnation can fire into the new stack.
  void restart(ProcessId p) override;
  void resume(ProcessId) override {}  // single-threaded: nothing to resume

  void run_at(TimePoint t, std::function<void()> fn) override {
    sched_.schedule_at(t, std::move(fn));
  }

  bool crashed(ProcessId p) const override { return net_.crashed(p); }
  std::uint32_t alive_count() const override { return net_.alive_count(); }

  /// Runs the simulation for `d` of simulated time from now; returns the
  /// number of events processed.
  std::size_t run_for(Duration d) override {
    return sched_.run_until(sched_.now() + d);
  }

  /// Runs until the event queue drains (or the safety limit fires).
  std::size_t run_all(
      std::size_t max_events = sim::Scheduler::kDefaultEventLimit) {
    return sched_.run_all(max_events);
  }

  TimePoint now() const override { return sched_.now(); }

  HostCounters counters() const override {
    const net::SimNetwork::Counters& c = net_.counters();
    HostCounters out;
    out.messages_sent = c.messages_sent;
    out.wire_bytes_sent = c.wire_bytes_sent;
    out.dropped_crash = c.dropped_crash;
    out.dropped_fault = c.dropped_fault;
    out.duplicated_fault = c.duplicated_fault;
    out.delayed_fault = c.delayed_fault;
    return out;
  }

  net::SimNetwork* sim_network() override { return &net_; }

 private:
  sim::Scheduler sched_;
  net::SimNetwork net_;
  std::vector<std::unique_ptr<SimEnv>> envs_;  // [1..n]
};

}  // namespace ibc::runtime
