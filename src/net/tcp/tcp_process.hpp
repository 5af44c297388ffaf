// One TCP rank: the only rank type of the TCP host.
//
// A `TcpProcess` owns one `TcpEnv` (its reactor, listener and links) and
// hosts one rank's protocol stack. It is deployed two ways:
//   * `ibcd` (tools/ibcd.cpp) runs one per OS process, so a SIGKILL is a
//     genuine crash-stop fault (DSN'06 §2): volatile state dies with the
//     process, only the on-disk store survives. Ranks find each other's
//     ports through port files in a shared scratch directory.
//   * `TcpCluster` (tcp_cluster.hpp) runs n of them in one OS process
//     with one shared epoch and an in-memory port table, and kills and
//     restarts them in place.
//
// Wiring rule (the same on both; only the port source differs):
//   1. bind_listener() binds 127.0.0.1 port 0 (never a hard-coded port;
//      `ctest -j` can run many clusters concurrently) and returns the
//      kernel-assigned port, which the owner publishes.
//   2. First boot: rank p dials every q < p, sending a 4-byte hello (p's
//      rank). Each pair gets exactly one connection, dialed by the higher
//      rank and taken by the lower rank's `TcpEnv::handle_accept`.
//   3. Restart: the rank rebinds, publishes its new port, and dials every
//      peer whose port is published (its old connections died with the
//      old incarnation); each peer's handle_accept replaces the dead
//      slot. Two ranks restarting at once may dial each other; the
//      accept side keeps the lower rank's connection on both ends.
//
// Lifecycle: construct, bind_listener, dial, start. An in-process crash
// and recovery is crash(self), then restart(self), bind_listener, dial,
// resume(self). run_on executes on the reactor thread, inline when no
// reactor runs, and not at all once the rank is killed.
//
// The barrier files (barrier_enter/barrier_await) use the same
// temp+rename publish as the port files, so a barrier entry is atomic and
// survives the entrant's crash — exactly what a relaunch-after-SIGKILL
// needs: the "ready" barrier it re-enters is already satisfied.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/tcp/socket.hpp"
#include "net/tcp/tcp_transport.hpp"
#include "runtime/host.hpp"

namespace ibc::net::tcp {

class TcpProcess final : public runtime::Host {
 public:
  /// One rank of an n-process group. The seed feeds this rank's RNG
  /// stream, forked per rank, so the same (seed, rank) pair draws the
  /// same stream whichever host runs it. The rank's clock counts from
  /// `epoch_ns` (TcpCluster hands one epoch to all its ranks).
  TcpProcess(ProcessId self, std::uint32_t n, std::uint64_t seed = 1,
             TimePoint epoch_ns = steady_ns());
  ~TcpProcess() override;

  TcpProcess(const TcpProcess&) = delete;
  TcpProcess& operator=(const TcpProcess&) = delete;

  runtime::HostKind kind() const override { return runtime::HostKind::kTcp; }
  std::uint32_t n() const override { return n_; }
  ProcessId self() const { return self_; }

  /// Only this rank's env exists here; any other id is a wiring bug.
  runtime::Env& env(ProcessId p) override;

  /// Nanoseconds since this rank's epoch.
  TimePoint now() const override;

  /// Binds a listening socket on 127.0.0.1 port 0, hands it to the
  /// reactor, and returns the kernel-assigned port. Call before start(),
  /// and again after restart().
  std::uint16_t bind_listener();

  /// Dials rank `q` (dial_loopback_hello, which resolves q's port on
  /// every attempt) and installs the link. Returns the attempts it took,
  /// or nullopt when q stayed unreachable until `deadline` or has no
  /// published port. Call while no reactor runs.
  std::optional<int> dial(ProcessId q, const PortResolver& resolve,
                          std::chrono::steady_clock::time_point deadline);

  /// Takes `dialer`'s connection off the listener (TcpEnv::accept_link).
  /// Call before start() or on the reactor thread.
  void accept_link(ProcessId dialer);

  /// Launches the reactor thread. Build the stack (which installs the
  /// Env receive handler) before this.
  void start() override;

  /// Stops and joins the reactor. Idempotent.
  void shutdown() override;

  /// Waits `d` of wall-clock time while the reactor makes progress.
  std::size_t run_for(Duration d) override;

  /// Runs `fn` on the reactor thread and blocks until it completed:
  /// inline on the reactor thread, inline when no reactor runs and the
  /// rank was not killed, skipped for a killed rank (also one that dies
  /// while we wait).
  void run_on(ProcessId p, std::function<void()> fn) override;

  /// Crash-stop: stops the reactor and closes every socket, so peers see
  /// their connections reset. Idempotent. crashed(self) turns true only
  /// once the reactor is joined: a crashed rank runs no further code.
  void crash(ProcessId p) override;

  /// Wipes a crashed rank's old incarnation (timers, queues, links) so a
  /// fresh stack can be built on env(). Then bind_listener, publish,
  /// dial, and resume.
  void restart(ProcessId p) override;

  /// Starts the restarted rank's reactor and marks it alive.
  void resume(ProcessId p) override;

  // A rank has no scheduler: TcpCluster keeps the watchdog threads, and
  // a daemon is crashed by killing its OS process.
  void crash_at(TimePoint t, ProcessId p) override;
  void run_at(TimePoint t, std::function<void()> fn) override;

  /// Whether this rank was killed. Remote liveness is not observable
  /// here (that is the failure detector's job).
  bool crashed(ProcessId p) const override;
  std::uint32_t alive_count() const override { return n_; }

  runtime::HostCounters counters() const override {
    return env_.counters();
  }

  /// Arms the adversary fault program on this rank's outbound links,
  /// windows relative to env time `origin`. Safe before or after start().
  void arm_fault_plan(const FaultPlan& plan, TimePoint origin);

  /// Test seam: writes raw bytes on the link to `dst` from the reactor
  /// thread, so the write serializes with the writev flush.
  void write_raw_for_test(ProcessId dst, const Bytes& bytes);

  /// Test seam: tears down this rank's end of the link to `dst`.
  void close_link_for_test(ProcessId dst);

 private:
  const ProcessId self_;
  const std::uint32_t n_;
  const TimePoint epoch_ns_;
  TcpEnv env_;

  mutable std::mutex state_mu_;  // guards the four flags below
  bool running_ = false;         // reactor launched and not yet joined
  bool kill_started_ = false;    // crash() begun (idempotence)
  bool killed_ = false;          // crashed: reactor joined by crash()
  bool shut_down_ = false;
};

// ---- File-based multi-process coordination -------------------------------
//
// All helpers operate on plain files in a shared scratch directory. The
// publish primitive is write-temp-then-rename, so readers only ever see
// complete files. Polling helpers sleep a few milliseconds between
// checks; timeouts make a hung peer a test failure, not a hang.

/// Atomically publishes `name` with `contents` into `dir`.
void publish_file(const std::string& dir, const std::string& name,
                  const std::string& contents);

/// True iff `dir/name` exists.
bool file_exists(const std::string& dir, const std::string& name);

/// Publishes this rank's TCP port as `port.<rank>`.
void publish_port(const std::string& dir, ProcessId rank,
                  std::uint16_t port);

/// Reads `port.<rank>` once, if present and well-formed. Unlike
/// wait_for_ports this is a single non-blocking probe: redial loops
/// call it every attempt, so a relaunched rank's freshly re-published
/// port is picked up mid-retry instead of hammering the dead one.
std::optional<std::uint16_t> read_port(const std::string& dir,
                                       ProcessId rank);

/// Polls until `port.1` .. `port.n` are all present, then returns the
/// ports indexed by rank ([0] unused). Empty on timeout.
std::vector<std::uint16_t> wait_for_ports(const std::string& dir,
                                          std::uint32_t n,
                                          Duration timeout);

/// Enters barrier `name` as `rank` by publishing `<name>.<rank>`.
/// Idempotent — a relaunched process re-enters a barrier it already
/// passed without disturbing it.
void barrier_enter(const std::string& dir, const std::string& name,
                   ProcessId rank);

/// Waits until all of `<name>.1` .. `<name>.n` exist. False on timeout.
bool barrier_await(const std::string& dir, const std::string& name,
                   std::uint32_t n, Duration timeout);

}  // namespace ibc::net::tcp
