// Simulated LAN connecting n processes.
//
// Implements the NetModel cost pipeline on top of the discrete-event
// scheduler:
//
//   send ──► sender CPU (FIFO) ──► sender NIC (processor sharing)
//        ──► propagation + jitter ──► receiver CPU (FIFO) ──► deliver
//
// Channels are reliable (no loss, no duplication, no corruption) as the
// paper assumes; the only failures are process crashes. Crash semantics:
// a crashed process stops sending and receiving instantly; its queued CPU
// work and partially-transmitted NIC transfers are discarded, but messages
// already fully on the wire (in propagation) still arrive — this mirrors a
// host dying mid-TCP-stream and is what makes the paper's §2.2
// validity-violation scenario reproducible. A restart does not revive the
// discarded work: CPU tasks carry the incarnation that queued them, and a
// task whose process is crashed or of an earlier incarnation drops itself
// (counted in `dropped_crash`) instead of running in the new one.
//
// A `FaultPlan` (faults.hpp) turns the benign LAN hostile: scheduled
// partitions (buffering or lossy), asymmetric one-way delays, and
// drop/duplicate/reorder bursts, applied per message the instant it
// leaves the sender's NIC. Adversary randomness draws from a dedicated
// RNG stream, so installing an empty plan is bit-identical to no plan —
// and a given (seed, plan) pair replays the exact same execution.
//
// The NIC uses processor sharing across concurrent outgoing transfers
// (concurrent TCP streams on one link), so a small consensus message can
// complete while a large payload is still streaming.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/faults.hpp"
#include "net/netmodel.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/payload.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ibc::net {

class SimNetwork {
 public:
  /// Delivery callback into the runtime: (src, dst, message bytes). The
  /// view is valid only for the duration of the call.
  using DeliverFn = std::function<void(ProcessId, ProcessId, BytesView)>;

  /// Observation hook: (src, dst, message bytes). Used by tests and the
  /// crash-scenario scripts; must not mutate the network beyond calling
  /// crash().
  using MessageHook = std::function<void(ProcessId, ProcessId, BytesView)>;

  using CrashListener = std::function<void(ProcessId)>;
  using ListenerId = std::uint64_t;

  SimNetwork(sim::Scheduler& sched, std::uint32_t n, NetModel model,
             Rng rng);

  std::uint32_t n() const { return n_; }
  const NetModel& model() const { return model_; }
  sim::Scheduler& scheduler() { return sched_; }

  /// Installs the runtime's delivery callback. Must be set before the
  /// first delivery fires.
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Sends `msg` from `src` to `dst` (which may equal `src`: loopback
  /// path, no NIC). No-op if `src` already crashed. The Payload is
  /// shared, not copied — a multicast hands the same buffer to every
  /// destination.
  void send(ProcessId src, ProcessId dst, Payload msg);

  /// Convenience for owning buffers (tests, scripted scenarios).
  void send(ProcessId src, ProcessId dst, Bytes msg) {
    send(src, dst, Payload::wrap(std::move(msg)));
  }

  /// Installs the adversary schedule. Must be set before the first send
  /// whose transit the plan should shape; events already in flight are
  /// not revisited. Loopback (self) deliveries are never faulted.
  void set_fault_plan(FaultPlan plan) { faults_ = std::move(plan); }
  const FaultPlan& fault_plan() const { return faults_; }

  /// Crashes `p` now: all its pending CPU work and outgoing NIC transfers
  /// are dropped, future sends/receives are ignored, crash listeners fire.
  /// Idempotent.
  void crash(ProcessId p);

  /// Schedules a crash of `p` at absolute time `t`.
  void crash_at(TimePoint t, ProcessId p);

  /// Revives a crashed `p`: it may send and receive again, with a fresh
  /// CPU queue. Messages that were on the wire toward `p` at crash time
  /// and arrive after the restart are delivered — to the *new*
  /// incarnation, which must treat them as arbitrarily delayed messages
  /// (the asynchronous model already demands that). Work the old
  /// incarnation had queued on its CPU (receives, loopbacks, sends not
  /// yet on the NIC) is dropped and counted in `dropped_crash`. No-op if
  /// `p` is not crashed. Restart listeners fire after the revival.
  void restart(ProcessId p);

  bool crashed(ProcessId p) const;

  /// Number of processes not crashed.
  std::uint32_t alive_count() const;

  /// Adds `cost` of CPU work at `p` (delays everything behind it in p's
  /// CPU queue). Used to model protocol-internal costs such as the `rcv`
  /// check of indirect consensus.
  void charge_cpu(ProcessId p, Duration cost);

  /// Registers a listener invoked (synchronously) when a process crashes.
  /// The returned id can be passed to `unsubscribe` — required whenever
  /// the listener captures an object that may die before the network
  /// (e.g. a PerfectFd inside a stack that a restart tears down).
  ListenerId subscribe_crash(CrashListener fn) {
    crash_listeners_.push_back({next_listener_id_, std::move(fn)});
    return next_listener_id_++;
  }

  /// Registers a listener invoked (synchronously) when a process
  /// restarts (failure detectors clear their suspicion here).
  ListenerId subscribe_restart(CrashListener fn) {
    restart_listeners_.push_back({next_listener_id_, std::move(fn)});
    return next_listener_id_++;
  }

  /// Removes a crash or restart listener. No-op for unknown ids.
  void unsubscribe(ListenerId id);

  /// Hook invoked when a send is accepted (before any cost is charged).
  void set_sent_hook(MessageHook fn) { sent_hook_ = std::move(fn); }

  /// Hook invoked just before a message is delivered to `dst`'s stack.
  void set_delivered_hook(MessageHook fn) {
    delivered_hook_ = std::move(fn);
  }

  struct Counters {
    std::uint64_t messages_sent = 0;       // accepted sends (incl. self)
    std::uint64_t messages_delivered = 0;  // reached a live destination
    std::uint64_t dropped_crash = 0;       // lost to process crashes
    std::uint64_t dropped_fault = 0;       // discarded by the adversary
    std::uint64_t duplicated_fault = 0;    // extra copies injected
    std::uint64_t delayed_fault = 0;       // held by a cut or delayed
    std::uint64_t payload_bytes_sent = 0;  // excl. header_bytes
    std::uint64_t wire_bytes_sent = 0;     // incl. header, excl. loopback
  };
  const Counters& counters() const { return counters_; }

  std::uint64_t messages_sent_by(ProcessId p) const;
  std::uint64_t messages_delivered_to(ProcessId p) const;

 private:
  struct Transfer {
    ProcessId dst = kInvalidProcess;
    Payload msg;
    double remaining_bytes = 0.0;
  };
  struct Nic {
    std::vector<Transfer> active;
    TimePoint last_update = 0;
    sim::EventId completion_event = 0;  // 0 = none scheduled
  };

  /// Schedules one stage of the pipeline at `t`. Each stage captures at
  /// most `this`, two ids, an incarnation and the Payload, which EventFn
  /// stores inline: an event in flight costs no heap block.
  template <class Task>
  void schedule_task(TimePoint t, Task&& task) {
    static_assert(sim::EventFn::stored_inline<std::decay_t<Task>>(),
                  "a network task outgrew EventFn's inline buffer");
    sched_.schedule_at(t, std::forward<Task>(task));
  }

  /// Appends `cost` to p's CPU queue; returns the completion time.
  TimePoint cpu_enqueue(ProcessId p, Duration cost);
  /// True iff a CPU task queued by incarnation `incarnation` of `p`
  /// died with it: p is crashed now, or restarted since. Counts the
  /// task's message in `dropped_crash`; every CPU task checks this
  /// exactly once, so each such loss is counted once.
  bool task_died(ProcessId p, std::uint64_t incarnation);

  /// Adversary checkpoint between NIC and wire: applies the fault plan
  /// to one message (hold, drop, duplicate, delay) or hands it to
  /// `wire_transit` untouched.
  void leave_nic(ProcessId src, ProcessId dst, Payload msg);
  /// Releases a message a buffering partition held: re-runs the
  /// adversary checkpoint (another cut may still be active), unless the
  /// sender died while the message was parked.
  void release_held(ProcessId src, ProcessId dst, Payload msg);

  void nic_add(ProcessId src, ProcessId dst, Payload msg);
  /// Advances PS accounting of src's NIC to `now`, completes finished
  /// transfers (handing them to the wire), and reschedules the next
  /// completion event.
  void nic_update(ProcessId src);
  void wire_transit(ProcessId src, ProcessId dst, Payload msg,
                    Duration extra_delay = 0);
  void arrive(ProcessId src, ProcessId dst, Payload msg);
  void deliver_now(ProcessId src, ProcessId dst, Payload msg);

  double bytes_per_ns() const { return model_.bandwidth_bytes_per_sec / 1e9; }
  Duration draw_jitter();
  void check_pid(ProcessId p) const {
    IBC_REQUIRE(p >= 1 && p <= n_);
  }

  sim::Scheduler& sched_;
  std::uint32_t n_;
  NetModel model_;
  Rng rng_;
  /// Adversary randomness is a separate stream: a run with an empty
  /// plan draws nothing from it, so pre-adversary executions replay
  /// bit-identically.
  Rng adv_rng_;
  FaultPlan faults_;

  DeliverFn deliver_;
  MessageHook sent_hook_;
  MessageHook delivered_hook_;
  std::vector<std::pair<ListenerId, CrashListener>> crash_listeners_;
  std::vector<std::pair<ListenerId, CrashListener>> restart_listeners_;
  ListenerId next_listener_id_ = 1;

  std::vector<bool> crashed_;            // [1..n]
  std::vector<std::uint64_t> incarnation_;  // [1..n]; bumped by restart
  std::vector<TimePoint> cpu_busy_until_;  // [1..n]
  std::vector<Nic> nics_;                // [1..n]

  Counters counters_;
  std::vector<std::uint64_t> sent_by_;
  std::vector<std::uint64_t> delivered_to_;
};

}  // namespace ibc::net
