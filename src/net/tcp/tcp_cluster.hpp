// n TCP ranks inside one OS process.
//
// `TcpCluster` is n `TcpProcess` ranks (tcp_process.hpp) sharing one
// epoch and an in-memory port table in place of ibcd's port files. The
// ranks do all dialing and accepting; the cluster adds what needs a
// vantage point above them: the `runtime::Host` API over all n ranks,
// kill/restart with the table kept current, the crash_at/run_at
// watchdogs, the test seams, and counters summed over the ranks.
//
// Wiring follows the rank's rule, run synchronously from the calling
// thread:
//   * construction: each rank in turn binds, publishes its port and dials
//     every lower rank (whose listener is already bound, so the first
//     attempt connects); then each rank takes its dialers' connections
//     off its listener through handle_accept, all before start().
//   * restart(p): p rebinds, publishes, and dials every rank whose port
//     is published (kill clears a port). Each live peer then drains its
//     listener on its own reactor, so its link to p is open when
//     restart(p) returns. A peer restarting at the same moment has no
//     reactor yet; whichever of the two publishes second dials the
//     other, and the accept side settles a crossed dial.
//
// Lifecycle:
//   TcpCluster cluster(n);          // mesh wired, reactors idle
//   ...build one stack per process on cluster.env(p)...
//   cluster.start();                // reactors spin up
//   cluster.run_on(p, [&]{ stack.start(); });    // per-process start
//   ...cluster.post(p, ...) to broadcast, etc...
//   cluster.kill(p);                // optional: crash a process
//   ~TcpCluster                     // stops and joins all reactors
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "net/faults.hpp"
#include "net/tcp/tcp_process.hpp"
#include "runtime/host.hpp"

namespace ibc::net::tcp {

class TcpCluster final : public runtime::Host {
 public:
  /// Wires the full loopback mesh; reactors stay idle until start().
  explicit TcpCluster(std::uint32_t n, std::uint64_t seed = 1);

  /// Stops and joins every reactor.
  ~TcpCluster() override;

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  std::uint32_t n() const override {
    return static_cast<std::uint32_t>(ranks_.size() - 1);
  }
  runtime::Env& env(ProcessId p) override;

  runtime::HostKind kind() const override {
    return runtime::HostKind::kTcp;
  }

  /// Nanoseconds since the cluster was constructed (all processes share
  /// the epoch).
  TimePoint now() const override;

  /// Launches the reactor threads. Build the protocol stacks (which call
  /// env().set_receive) before this.
  void start() override;

  /// Cancels pending scheduled crashes, then stops and joins every
  /// reactor. After this the stacks' state can be read without races.
  /// Idempotent.
  void shutdown() override;

  /// Waits `d` of wall-clock time while the reactors make progress.
  std::size_t run_for(Duration d) override;

  /// Enqueues `fn` on p's reactor thread (fire and forget).
  void post(ProcessId p, std::function<void()> fn);

  /// Runs `fn` on p's reactor thread and blocks until it completed
  /// (TcpProcess::run_on).
  void run_on(ProcessId p, std::function<void()> fn) override;

  /// Simulated crash: clears p's port, stops p's reactor and closes its
  /// sockets; peers observe the connection reset and the failure
  /// detector takes over.
  void kill(ProcessId p);

  void crash(ProcessId p) override { kill(p); }

  /// Schedules a kill at absolute host time `t` on a watchdog thread.
  void crash_at(TimePoint t, ProcessId p) override;

  /// Revives a killed `p`: wipes the old incarnation and re-wires it
  /// (see the header comment). On return a fresh protocol stack can be
  /// built on env(p); messages peers send meanwhile wait in the socket
  /// buffers. Call resume(p) afterwards to start the new reactor.
  void restart(ProcessId p) override;

  /// Starts p's new reactor thread and marks it alive again.
  void resume(ProcessId p) override;

  /// Runs `fn` at absolute host time `t` on a watchdog thread (the same
  /// mechanism as crash_at). Call from the controlling thread only —
  /// the watchdog list is not itself thread-safe.
  void run_at(TimePoint t, std::function<void()> fn) override;

  bool crashed(ProcessId p) const override;
  std::uint32_t alive_count() const override;

  runtime::HostCounters counters() const override;

  /// Arms the same fault program on every process's outbound fault
  /// stage, windows relative to the cluster epoch (construction time).
  /// The plan survives kill/restart — a restarted incarnation rejoins
  /// the same hostile wire, like the simulator. Call before start().
  void set_fault_plan(const FaultPlan& plan);

  /// Test seam (tcp_test): writes raw bytes on the mesh socket
  /// src -> dst, on src's reactor thread so the write serializes with
  /// the writev flush. Lets tests split a frame — header included —
  /// across TCP segments and exercise the receiver's reassembly on a
  /// real connection.
  void write_raw_for_test(ProcessId src, ProcessId dst,
                          const Bytes& bytes);

  /// Test seam (tcp_test): tears down src's end of the src -> dst link
  /// (dst observes a connection reset, as after a crash). Idempotent;
  /// the rest of the mesh is untouched.
  void close_link_for_test(ProcessId src, ProcessId dst);

 private:
  TcpProcess& rank(ProcessId p) const;
  /// Sets p's entry in the port table; 0 clears it.
  void publish(ProcessId p, std::uint16_t port);
  std::optional<std::uint16_t> port_of(ProcessId q) const;
  /// The rank's wiring rule for p: bind, publish, then dial every lower
  /// rank (first boot) or every published rank (restart). Returns the
  /// ranks p is now linked to.
  std::vector<ProcessId> wire(ProcessId p, bool first_boot);

  const TimePoint epoch_ns_;
  std::vector<std::unique_ptr<TcpProcess>> ranks_;  // [1..n]

  mutable std::mutex ports_mu_;
  std::vector<std::uint16_t> ports_;  // [1..n]; 0 = not published

  // Pending crash_at watchdogs. Declared last: their jthread destructors
  // request stop and join before anything else is torn down.
  std::vector<std::jthread> watchdogs_;
};

}  // namespace ibc::net::tcp
