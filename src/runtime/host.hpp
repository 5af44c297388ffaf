// Host abstraction over the two cluster runtimes.
//
// `Env` (env.hpp) abstracts what one *process* sees; `Host` abstracts
// what a *scenario* sees: a group of n processes that can be started,
// driven forward in time, crashed on schedule, and measured. The
// simulated host (`runtime::SimCluster`) and the real-socket host
// (`net::tcp::TcpCluster`) both implement it, so the same scenario code
// — the `ibc::Cluster` facade, `workload::run_experiment`, tests,
// examples — runs unmodified on either.
//
// Semantics per host:
//   - kSim: `run_for` advances simulated time (milliseconds of wall
//     clock for seconds of simulated time); `run_on` executes inline
//     (everything is single-threaded); crashes are scheduler events.
//   - kTcp: `run_for` waits in wall-clock time while reactor threads
//     make progress; `run_on` executes on the target process's reactor
//     thread and blocks until done; crashes stop the reactor and close
//     its sockets.
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/env.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ibc::net {
class SimNetwork;
}  // namespace ibc::net

namespace ibc::runtime {

enum class HostKind {
  kSim,  // deterministic discrete-event simulation
  kTcp,  // loopback TCP, one reactor thread per process
};

/// Transport totals a host can report. The simulated host counts through
/// its cost model; the TCP host counts frames actually queued on sockets.
/// The syscall-amortization counters (writev_calls, frames_sent, wakeups)
/// are TCP-only and stay zero on the simulator.
struct HostCounters {
  std::uint64_t messages_sent = 0;     // accepted sends, incl. self
  std::uint64_t wire_bytes_sent = 0;   // incl. framing, excl. loopback
  std::uint64_t frames_sent = 0;       // frames fully written to a socket
  std::uint64_t writev_calls = 0;      // flush syscalls issued
  std::uint64_t wakeups = 0;           // wake-pipe writes (cross-thread)
  // Fault accounting. The simulator counts at the NIC exit, the TCP
  // host at its writev-boundary fault stage; dropped_crash (messages
  // addressed to an already-dead process) is sim-only — on TCP a dead
  // peer is just a closed socket.
  std::uint64_t dropped_crash = 0;     // messages lost to process crashes
  std::uint64_t dropped_fault = 0;     // discarded by the fault plan
  std::uint64_t duplicated_fault = 0;  // extra copies the adversary made
  std::uint64_t delayed_fault = 0;     // held by a cut or delayed

  HostCounters& operator+=(const HostCounters& o) {
    messages_sent += o.messages_sent;
    wire_bytes_sent += o.wire_bytes_sent;
    frames_sent += o.frames_sent;
    writev_calls += o.writev_calls;
    wakeups += o.wakeups;
    dropped_crash += o.dropped_crash;
    dropped_fault += o.dropped_fault;
    duplicated_fault += o.duplicated_fault;
    delayed_fault += o.delayed_fault;
    return *this;
  }
};

class Host {
 public:
  virtual ~Host() = default;

  virtual HostKind kind() const = 0;
  virtual std::uint32_t n() const = 0;

  /// The per-process environment protocol stacks are built on.
  virtual Env& env(ProcessId p) = 0;

  /// Current time on the host clock (simulated, or nanoseconds since the
  /// host was constructed for TCP).
  virtual TimePoint now() const = 0;

  /// Launches execution. Build every process's stack (which installs the
  /// Env receive handler) before calling this. No-op on the simulator.
  virtual void start() = 0;

  /// Stops execution (joins reactor threads on TCP; no-op on the
  /// simulator). After shutdown the processes' state can be inspected
  /// without races. Idempotent.
  virtual void shutdown() = 0;

  /// Lets the cluster run for `d` of host time. Returns the number of
  /// events processed (0 on hosts that do not count events).
  virtual std::size_t run_for(Duration d) = 0;

  /// Runs `fn` in p's execution context and waits for it to finish.
  /// If p has crashed, `fn` is not run (a crashed process executes no
  /// further code).
  virtual void run_on(ProcessId p, std::function<void()> fn) = 0;

  /// Crashes p now / at absolute host time `t`. Idempotent.
  virtual void crash(ProcessId p) = 0;
  virtual void crash_at(TimePoint t, ProcessId p) = 0;

  /// Revives a crashed `p` to the point where a fresh protocol stack can
  /// be built on `env(p)`: the old incarnation's timers and queues are
  /// gone, the network endpoint works again, but no callbacks run yet.
  /// The caller builds the new stack (installing the receive handler),
  /// then calls `resume(p)` to let execution continue. Precondition:
  /// `crashed(p)`.
  virtual void restart(ProcessId p) = 0;

  /// Completes a restart begun with `restart(p)`: starts p's reactor
  /// thread on TCP (no-op on the simulator).
  virtual void resume(ProcessId p) = 0;

  /// Runs `fn` on the host's scheduling context at absolute host time
  /// `t` (a scheduler event on the simulator; a watchdog thread on TCP).
  /// `fn` runs outside any process context — it may call crash/restart
  /// and run_on.
  virtual void run_at(TimePoint t, std::function<void()> fn) = 0;

  virtual bool crashed(ProcessId p) const = 0;
  virtual std::uint32_t alive_count() const = 0;

  virtual HostCounters counters() const = 0;

  /// The simulated network, for sim-only facilities (the PerfectFd crash
  /// oracle, cost-model hooks). Null on real-network hosts.
  virtual net::SimNetwork* sim_network() { return nullptr; }
};

}  // namespace ibc::runtime
