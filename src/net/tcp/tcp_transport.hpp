// Real TCP transport: one process's `runtime::Env` over loopback sockets.
//
// A `TcpEnv` is one rank's endpoint: a reactor thread (poll loop), a
// listening socket, and one TCP connection per peer over 127.0.0.1. It
// implements the same `runtime::Env` contract as the simulator, so every
// layer — failure detector, broadcasts, consensus, atomic broadcast —
// runs unmodified on real sockets: the Neko property the paper's
// framework provides [9]. `TcpProcess` (tcp_process.hpp) owns one
// `TcpEnv` and is the only rank type; `TcpCluster` (tcp_cluster.hpp)
// runs n of them in one OS process, `ibcd` one per OS process.
//
// Threading contract: each process's protocol code runs exclusively on
// its reactor thread. External threads interact through the thread-safe
// Env methods (send, timers, defer), which hand work to the reactor.
// Per Core Guidelines CP: jthread (no detach), RAII sockets, scoped_lock
// around the small cross-thread state.
//
// Send path: a frame is a (u32 length header, shared Payload) pair in a
// per-peer output queue — the payload bytes are never copied per peer.
// Senders already on the reactor thread (all protocol code) enqueue
// directly, with no lock and no wake syscall; only genuinely
// cross-thread senders take the mutex + wake-pipe route. Queued frames
// are flushed with writev, many frames per syscall; a partial write
// parks the remainder until POLLOUT.
//
// Links: a dialer connects to the peer's listener and writes a 4-byte
// hello (its rank); `handle_accept` is the one place a hello is read
// and a link installed, with a lower-rank-wins tie-break when two ranks
// dial each other at once. Links are wired before the reactor starts
// (`install_peer`, `accept_link`); afterwards the reactor accepts
// restarted peers' dials from its listener.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_set>
#include <vector>

#include "net/faults.hpp"
#include "net/tcp/framing.hpp"
#include "net/tcp/socket.hpp"
#include "net/tcp/tcp_faults.hpp"
#include "runtime/env.hpp"
#include "runtime/host.hpp"
#include "util/payload.hpp"

namespace ibc::net::tcp {

/// The steady clock in nanoseconds. A TCP host's epoch is one reading;
/// its env clocks count from there.
TimePoint steady_ns();

/// Env implementation backed by a reactor thread and TCP sockets.
/// send/set_timer/cancel_timer/defer are thread-safe; receive and timer
/// callbacks run on the reactor thread.
class TcpEnv final : public runtime::Env {
 public:
  TcpEnv(ProcessId self, std::uint32_t n, Rng rng, TimePoint epoch_ns);
  ~TcpEnv() override;

  using Env::send;  // keep the Bytes convenience overload visible

  ProcessId self() const override { return self_; }
  std::uint32_t n() const override { return n_; }
  TimePoint now() const override;
  void send(ProcessId dst, Payload msg) override;
  void multicast(Payload msg) override;
  runtime::TimerId set_timer(Duration delay, TimerFn fn) override;
  void cancel_timer(runtime::TimerId id) override;
  void defer(TimerFn fn) override;
  bool run_at_idle(TimerFn fn) override;
  /// Any per-peer output queue still non-empty (reactor thread only —
  /// every caller is protocol code, which runs nowhere else).
  bool transport_backlog() const override;
  void charge_cpu(Duration) override {}  // real CPUs charge themselves
  void set_receive(ReceiveFn fn) override { receive_ = std::move(fn); }
  Rng& rng() override { return rng_; }
  const Logger& log() const override { return log_; }

  /// Installs an established, hello-sent connection this rank dialed as
  /// the link to `peer`. Legal only while the reactor thread is not
  /// running.
  void install_peer(ProcessId peer, Fd fd);

  /// Hands the reactor a listening socket: incoming connections are
  /// accepted on the reactor thread by `handle_accept`. Call before the
  /// reactor starts; the listener is owned from then on.
  void adopt_listener(Fd listener);

  /// Takes pending connections off the listener (`handle_accept`) until
  /// the link to `dialer` is open, waiting on the listener, bounded by the
  /// hello timeout, for a dial still in flight. Legal before the reactor
  /// starts or on the reactor thread.
  void accept_link(ProcessId dialer);

  /// Transport totals of this rank. They survive kill and restart.
  runtime::HostCounters counters() const;

  /// Installs the adversary fault program on this env's outbound links:
  /// the same `net::FaultPlan` the simulator applies at the NIC exit
  /// runs here at the writev boundary (see tcp_faults.hpp). Plan windows
  /// are relative to `origin` (env time). An empty plan removes the
  /// stage entirely — the clean send path is one null-pointer check.
  /// Call before the reactor starts, or from the reactor thread.
  void set_fault_plan(FaultPlan plan, TimePoint origin);

 private:
  friend class TcpProcess;

  /// One queued outbound frame: the 4-byte length header (the only
  /// per-destination bytes) plus a shared reference to the payload.
  struct OutFrame {
    std::array<std::uint8_t, 4> header;
    Payload payload;
  };
  struct Peer {
    Fd fd;
    std::deque<OutFrame> outq;    // frames accepted but not fully written
    std::size_t out_offset = 0;   // bytes of outq.front() already written
    FrameDecoder decoder;
    bool open = false;
    bool has_backlog() const { return !outq.empty(); }
    /// Drops the connection and anything still queued on it.
    void close() { *this = Peer{}; }
  };
  struct PendingTimer {
    TimePoint deadline;
    std::uint64_t seq;
    runtime::TimerId id;
    std::shared_ptr<TimerFn> fn;
    bool operator>(const PendingTimer& other) const {
      return deadline != other.deadline ? deadline > other.deadline
                                        : seq > other.seq;
    }
  };

  void start_thread();
  void request_stop();
  /// Clears every trace of the previous incarnation (timers, queued
  /// tasks, cross-thread sends, peer decoders). Only legal once the
  /// reactor thread is joined.
  void reset_for_restart();
  void reactor_loop(const std::stop_token& st);
  void wake();
  /// True on the reactor thread — the lock-free, wake-free fast path.
  bool on_reactor() const {
    return reactor_tid_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }
  /// Send-path entry (reactor thread only): consults the fault stage
  /// when one is armed, else forwards straight to enqueue_frame_direct.
  void enqueue_frame(ProcessId dst, const Payload& msg);
  /// Appends one frame to dst's output queue (reactor thread only).
  void enqueue_frame_direct(ProcessId dst, const Payload& msg);
  /// Applies the armed fault stage's verdict to one outbound frame:
  /// forward, drop, or park in held_ (reactor thread only).
  void fault_checkpoint(ProcessId dst, const Payload& msg);
  /// Re-examines parked frames whose release time has passed: held
  /// (partitioned) frames re-run the checkpoint, delayed frames enqueue.
  void release_due_held();
  /// Moves cross-thread sends/tasks into reactor-local state. The lock
  /// is held only for the container swaps; all processing is lock-free.
  void drain_cross_thread();
  /// Poll timeout from pending local work and the earliest live timer.
  int poll_timeout_ms();
  void fire_due_timers();
  void run_ready_tasks();
  /// Runs queued idle tasks iff no ready local work remains this cycle
  /// (the reactor is about to flush and block in poll).
  void run_idle_tasks();
  /// writev-flushes dst's queue until empty, EAGAIN, or error.
  void flush_peer(ProcessId dst);
  void flush_all_peers();
  void handle_readable(ProcessId peer);
  /// Drains the adopted listener: accepts pending connections, reads
  /// each dialer's hello rank, installs the link (reactor thread, or
  /// before it starts).
  void handle_accept();

  const ProcessId self_;
  const std::uint32_t n_;
  const TimePoint epoch_ns_;
  Rng rng_;
  Logger log_;
  ReceiveFn receive_;

  std::vector<Peer> peers_;  // [1..n]; peers_[self_] unused
  Fd wake_r_, wake_w_;
  Fd listener_;  // accepts peers' dials (invalid until adopt_listener)

  /// One frame the fault stage parked. `recheck` distinguishes a
  /// buffering-partition hold (the release re-runs the checkpoint —
  /// another cut may be active by then) from a plain delay (enqueue on
  /// release, no second look). Reactor thread only; parked frames die
  /// with the incarnation, exactly as the simulator loses held messages
  /// when their sender crashes before the heal.
  struct HeldFrame {
    TimePoint release = 0;
    ProcessId dst = 0;
    Payload msg;
    bool recheck = false;
  };
  std::unique_ptr<LinkFaultStage> faults_;  // null = clean wire
  std::deque<HeldFrame> held_;

  /// Deferred work owned by the reactor thread (fast-path defer and
  /// loopback sends land here without locking).
  std::vector<TimerFn> local_tasks_;
  /// Work to run when the reactor goes idle (reactor thread only); the
  /// Batcher uses this to flush an underfull batch without waiting out
  /// its max_delay ceiling.
  std::vector<TimerFn> idle_tasks_;

  std::mutex mu_;  // guards the four members below
  std::vector<std::pair<ProcessId, Payload>> pending_sends_;
  std::vector<TimerFn> tasks_;
  std::priority_queue<PendingTimer, std::vector<PendingTimer>,
                      std::greater<>>
      timers_;
  std::unordered_set<runtime::TimerId> live_timers_;

  std::uint64_t next_timer_id_ = 1;
  std::uint64_t next_timer_seq_ = 0;

  // Transport counters, read from any thread by counters().
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> writev_calls_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> dropped_fault_{0};
  std::atomic<std::uint64_t> duplicated_fault_{0};
  std::atomic<std::uint64_t> delayed_fault_{0};

  // The reactor's thread id while the loop runs (default id otherwise).
  // Read by TcpProcess::run_on without touching thread_, which a
  // concurrent kill() may be joining.
  std::atomic<std::thread::id> reactor_tid_{};

  std::jthread thread_;  // joins on destruction (CP.25)
};

}  // namespace ibc::net::tcp
