// ibc::Cluster — one wiring API for every host.
//
// The facade that turns "construct a host, hand-build n ProcessStacks
// with a dummy slot 0, subscribe, start each" into one call:
//
//   ibc::Cluster cluster(ibc::ClusterOptions{}
//                            .with_n(3)
//                            .with_seed(2024)
//                            .with_stack(config));   // simulated by default
//   cluster.node(1).abroadcast(bytes_of("hello"));
//   cluster.run_until_quiesced();
//   assert(cluster.prefix_consistent());
//
// Swap `.on_tcp()` into the options and the identical scenario runs on
// loopback TCP sockets — the Neko property, now at the wiring layer too.
// Every A-delivery is recorded per process (id, payload, host time), so
// total-order checks and throughput counts come built in.
//
// Threading: on the simulated host everything is single-threaded. On the
// TCP host, `abroadcast` / `on_deliver` hop onto the target process's
// reactor thread, delivery logs are mutex-guarded, and `stats()` /
// destruction quiesce before touching protocol state.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "abcast/stack_builder.hpp"
#include "core/abcast_service.hpp"
#include "net/faults.hpp"
#include "net/netmodel.hpp"
#include "recovery/recovery.hpp"
#include "runtime/host.hpp"
#include "store/storage.hpp"
#include "util/bytes.hpp"
#include "util/payload.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ibc {

/// One scheduled crash: process `process` dies at absolute host time
/// `at`.
struct ClusterCrash {
  TimePoint at = 0;
  ProcessId process = kInvalidProcess;
};

/// One scheduled recovery: process `process` comes back at absolute host
/// time `at`, replays its durable store, and catches up from its peers.
/// Requires `with_recovery()`; a restart of a process that never crashed
/// is a no-op (schedule minimizers drop crashes independently).
struct ClusterRestart {
  TimePoint at = 0;
  ProcessId process = kInvalidProcess;
};

/// Everything needed to wire a cluster, with fluent setters so call
/// sites read as one expression. Defaults: 3 processes, seed 1, the
/// paper's stack (indirect CT + RB-flood), simulated fast-test network.
struct ClusterOptions {
  std::uint32_t n = 3;
  std::uint64_t seed = 1;
  /// Full stack selection, including the ordering window W
  /// (`stack.pipeline_depth`; 1 = the paper's sequential Algorithm 1)
  /// and sender-side batching B (`stack.batch`; max_msgs = 1 disables
  /// it).
  abcast::StackConfig stack = {};
  runtime::HostKind host = runtime::HostKind::kSim;
  net::NetModel model = net::NetModel::fast_test();  // kSim only
  std::vector<ClusterCrash> crashes;
  std::vector<ClusterRestart> restarts;
  /// Crash-recovery subsystem (docs/ARCHITECTURE.md "Durability &
  /// recovery"): when enabled, every process journals its decided order
  /// to a per-process durable store and `restart`/`restart_at` bring
  /// crashed processes back. Indirect-variant stacks only.
  bool recovery_enabled = false;
  recovery::Config recovery;
  /// Hostile-network schedule: partitions, delays, drop/duplicate/
  /// reorder bursts composed with the crash schedule. On kSim the plan
  /// applies at the simulated NIC; on kTcp at the real transport's
  /// writev boundary (frame-granular, windows relative to the cluster
  /// epoch). Same plan text, both hosts.
  net::FaultPlan faults;
  /// Record every A-delivery (id, payload, time) in the cluster's
  /// per-process logs. On by default — it powers `log`, `delivered`,
  /// `prefix_consistent` and `run_until_quiesced`. Turn it off for
  /// measurement runs that keep their own records (the experiment
  /// driver does): recording retains a shared payload view (no copy)
  /// and, on TCP, serializes deliveries on one mutex.
  bool record_deliveries = true;

  ClusterOptions& with_n(std::uint32_t value) {
    n = value;
    return *this;
  }
  ClusterOptions& with_seed(std::uint64_t value) {
    seed = value;
    return *this;
  }
  ClusterOptions& with_stack(const abcast::StackConfig& config) {
    stack = config;
    return *this;
  }
  /// Dissemination variant: how the broadcast layer moves payloads
  /// (flooding, FD-triggered relays, URB, or successor-only ring —
  /// see abcast::RbKind). Convenience for sweeps that hold the rest of
  /// the stack fixed.
  ClusterOptions& with_rb(abcast::RbKind kind) {
    stack.rb = kind;
    return *this;
  }
  /// Sets the simulated network model (only the kSim host reads it;
  /// host selection is with_host/on_tcp alone, so option order never
  /// changes the transport).
  ClusterOptions& with_model(const net::NetModel& m) {
    model = m;
    return *this;
  }
  ClusterOptions& without_delivery_log() {
    record_deliveries = false;
    return *this;
  }
  ClusterOptions& with_host(runtime::HostKind kind) {
    host = kind;
    return *this;
  }
  /// Selects the real-socket host (loopback TCP, one reactor thread per
  /// process). The network model is ignored — real wires cost what they
  /// cost.
  ClusterOptions& on_tcp() { return with_host(runtime::HostKind::kTcp); }
  ClusterOptions& with_crash(TimePoint at, ProcessId process) {
    crashes.push_back(ClusterCrash{at, process});
    return *this;
  }
  /// Enables the crash-recovery subsystem with `config` (default: an
  /// in-memory store with strict fsync discipline).
  ClusterOptions& with_recovery(const recovery::Config& config = {}) {
    recovery_enabled = true;
    recovery = config;
    return *this;
  }
  /// Schedules a restart of `process` at absolute host time `at`.
  /// Implies nothing about a crash: pair it with `with_crash` at an
  /// earlier time. Enables recovery if not already enabled.
  ClusterOptions& with_restart(TimePoint at, ProcessId process) {
    recovery_enabled = true;
    restarts.push_back(ClusterRestart{at, process});
    return *this;
  }
  /// Installs the adversary schedule (replaces any previous plan).
  ClusterOptions& with_faults(net::FaultPlan plan) {
    faults = std::move(plan);
    return *this;
  }
  /// Appends one adversary event to the plan.
  ClusterOptions& with_fault(const net::FaultEvent& event) {
    faults.events.push_back(event);
    return *this;
  }
};

/// Aggregated run statistics (see Cluster::stats()). The transport
/// totals are the host's own `runtime::HostCounters` (messages, wire
/// bytes, writev calls, wake-ups, fault accounting); the durability
/// counters are `recovery::Counters` summed over processes and across
/// incarnations (zero unless recovery is enabled).
struct ClusterStats : runtime::HostCounters, recovery::Counters {
  std::uint64_t consensus_rounds = 0;    // summed over processes
  std::uint64_t proposals_refused = 0;   // nack/⊥ caused by rcv
  std::size_t total_deliveries = 0;      // A-deliveries, all processes
  std::vector<std::size_t> deliveries;   // [1..n]; [0] unused
  bool prefix_consistent = false;        // Uniform Total Order held
  // Ordering-pipeline counters (id-ordering stacks only; zero for kMsgs).
  std::uint64_t instances_completed = 0;  // max over processes
  std::size_t pipeline_high_water = 0;    // max in-flight, max over procs
  std::uint64_t ids_deduplicated = 0;     // summed over processes
  // Dissemination counters (docs/PROTOCOL.md D5).
  std::uint64_t batches_sent = 0;         // R-broadcast frames, summed
  std::uint64_t msgs_batched = 0;         // abroadcasts through batchers
  double msgs_per_batch_avg = 0.0;        // msgs_batched / batches_sent
  /// Bytes the deliver path copied into owned payload storage — once per
  /// R-delivery at the broadcast layer; everything above shares that
  /// copy by reference (summed over processes).
  std::uint64_t payload_bytes_copied = 0;
  // Broadcast-layer dissemination counters (docs/PROTOCOL.md D7): frames
  // the layer handled and point-to-point sends it emitted, summed over
  // processes; `rb_sends_per_frame_max` is the worst per-node fan-out
  // (max over processes of sends/frames — n-1 at a flooding origin, 1 on
  // a ring node), `rb_hop_latency_max_ms` the slowest origin→deliver
  // dissemination path (ring frames only; 0 elsewhere).
  std::uint64_t rb_frames = 0;
  std::uint64_t rb_wire_sends = 0;
  double rb_sends_per_frame_max = 0.0;
  double rb_hop_latency_max_ms = 0.0;
  double frames_per_writev_avg = 0.0;    // frames_sent / writev_calls
};

class Cluster {
 public:
  /// One recorded A-delivery. The payload is a shared view of the
  /// R-delivered frame — recording does not copy the bytes.
  struct Delivery {
    MessageId id;
    Payload payload;
    TimePoint at = 0;
  };

  using DeliverFn = core::AbcastService::DeliverFn;

  class Node;

  /// Builds the host, all n protocol stacks, the built-in delivery
  /// recorder, starts every process, and arms the crash schedule.
  explicit Cluster(const ClusterOptions& options);

  /// Quiesces the host (joins TCP reactors), then tears everything down.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint32_t n() const { return host_->n(); }
  runtime::HostKind host_kind() const { return host_->kind(); }
  runtime::Host& host() { return *host_; }
  runtime::Env& env(ProcessId p) { return host_->env(p); }
  TimePoint now() const { return host_->now(); }

  /// Process handle. Ids are 1-based as in the paper; 0 and > n fail the
  /// precondition check loudly instead of indexing a dummy slot.
  Node& node(ProcessId p);

  /// Crashes `p` now / at absolute host time `t` (on either host).
  void crash(ProcessId p) { host_->crash(p); }
  void crash_at(TimePoint t, ProcessId p) { host_->crash_at(t, p); }

  /// Brings a crashed `p` back (on either host): revives the host
  /// endpoint, drops the store's un-fsynced tail (what a real crash
  /// loses), rebuilds the protocol stack against the same durable store
  /// — replaying snapshot + log — and starts the peer catch-up protocol.
  /// Requires `with_recovery()`. No-op if `p` never crashed. Delivery
  /// recording continues in the same per-process log; `on_deliver`
  /// subscriptions do not survive a restart (re-register if needed).
  void restart(ProcessId p);

  /// Schedules `restart(p)` at absolute host time `t`.
  void restart_at(TimePoint t, ProcessId p);

  /// Installs a hook invoked by `restart(p)` after the new stack is
  /// built but before the process resumes: external observers whose
  /// `on_deliver` subscriptions died with the old incarnation (e.g. the
  /// experiment driver's latency recorder) re-subscribe here, via
  /// `node(p).stack()` directly — the process is not yet executing, so
  /// no hop onto its context is needed (or possible).
  void set_restart_listener(std::function<void(ProcessId)> fn);

  /// Lets the cluster run for `d` of host time.
  std::size_t run_for(Duration d) { return host_->run_for(d); }

  /// Runs until no process A-delivers anything for `idle` of host time
  /// (or `limit` elapses). Returns the host time consumed. Works on both
  /// hosts — unlike draining an event queue, which heartbeats keep
  /// non-empty forever.
  Duration run_until_quiesced(Duration idle = milliseconds(100),
                              Duration limit = seconds(60));

  /// Stops execution so protocol state can be inspected race-free
  /// (no-op on the simulator, joins reactors on TCP). Idempotent; the
  /// destructor calls it.
  void shutdown();

  /// Snapshot of p's delivery log, in delivery order.
  std::vector<Delivery> log(ProcessId p) const;

  /// True iff p delivered `id`.
  bool delivered(ProcessId p, const MessageId& id) const;

  /// True iff every pair of delivery logs is prefix-consistent (Uniform
  /// Total Order).
  bool prefix_consistent() const;

  std::size_t total_deliveries() const;

  /// Aggregated counters + the built-in total-order verdict. On the TCP
  /// host, consensus counters are read on each live process's reactor
  /// thread, so this is safe while the cluster runs. With
  /// `without_delivery_log()` the delivery-derived fields are empty and
  /// `prefix_consistent` is vacuously true.
  ClusterStats stats();

 private:
  void check_pid(ProcessId p) const;
  void subscribe_recorder(ProcessId p);
  std::unique_ptr<store::Dir> make_store(ProcessId p) const;

  std::unique_ptr<runtime::Host> host_;
  std::vector<Node> nodes_;  // [0..n-1] holds p = 1..n

  // Rebuild recipe for restarts.
  abcast::StackConfig stack_config_;
  bool record_deliveries_ = true;
  bool recovery_enabled_ = false;
  recovery::Config recovery_config_;
  /// Per-process durable stores [1..n]; they outlive the stacks, which
  /// is the whole point: a restarted stack replays the same store.
  std::vector<std::unique_ptr<store::Dir>> stores_;
  /// Recovery counters of dead incarnations (a restart destroys the old
  /// RecoveryManager; its totals move here so stats() never loses them).
  std::vector<recovery::Counters> retired_recovery_;  // [1..n]

  /// Serializes restart's stack swap against stats() reading stack
  /// pointers (a TCP restart runs on a watchdog thread).
  std::mutex restart_mu_;
  /// Guarded by restart_mu_; see set_restart_listener.
  std::function<void(ProcessId)> restart_listener_;

  mutable std::mutex log_mu_;
  std::vector<std::vector<Delivery>> logs_;  // [1..n]; [0] unused
};

class Cluster::Node {
 public:
  Node(Node&&) = default;
  Node& operator=(Node&&) = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  ProcessId id() const { return id_; }

  /// Atomically broadcasts from this process. Runs on the process's
  /// execution context (blocking until accepted on TCP); returns the
  /// assigned id, or an invalid id if the process has crashed.
  MessageId abroadcast(Bytes payload);
  MessageId abroadcast(std::string_view payload) {
    return abroadcast(bytes_of(payload));
  }

  /// Registers a delivery callback whose lifetime the cluster owns (it
  /// is detached before the stacks die — no dangling captures). The
  /// callback runs on this process's execution context.
  void on_deliver(DeliverFn fn);

  /// Snapshot of this process's delivery log.
  std::vector<Delivery> log() const;

  abcast::ProcessStack& stack() { return *stack_; }
  core::AbcastService& abcast() { return stack_->abcast(); }
  runtime::Env& env();

 private:
  friend class Cluster;
  Node(Cluster* cluster, ProcessId id,
       std::unique_ptr<abcast::ProcessStack> stack)
      : cluster_(cluster), id_(id), stack_(std::move(stack)) {}

  Cluster* cluster_;
  ProcessId id_;
  std::unique_ptr<abcast::ProcessStack> stack_;
  std::vector<core::Subscription> subscriptions_;
};

}  // namespace ibc
