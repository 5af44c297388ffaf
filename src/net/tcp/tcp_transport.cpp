#include "net/tcp/tcp_transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/assert.hpp"

namespace ibc::net::tcp {

namespace {

/// iovec entries per writev. Each frame contributes up to two (header,
/// payload), so one syscall can carry ~half this many frames. Well under
/// any platform IOV_MAX (POSIX guarantees >= 16; Linux has 1024).
constexpr std::size_t kMaxIov = 64;

/// How long the reactor waits for an accepted connection's hello rank
/// before dropping it. Dialers write the hello immediately after
/// connect, so on loopback this is only hit by stray connections.
constexpr int kHelloTimeoutMs = 2000;

void bump(std::atomic<std::uint64_t>& ctr, std::uint64_t by = 1) {
  ctr.fetch_add(by, std::memory_order_relaxed);
}

}  // namespace

TimePoint steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TcpEnv::TcpEnv(ProcessId self, std::uint32_t n, Rng rng, TimePoint epoch_ns)
    : self_(self),
      n_(n),
      epoch_ns_(epoch_ns),
      rng_(rng),
      log_("p" + std::to_string(self) + "/tcp",
           [this] { return now(); }),
      peers_(n + 1) {
  auto [r, w] = make_wakeup_pipe();
  wake_r_ = std::move(r);
  wake_w_ = std::move(w);
}

TcpEnv::~TcpEnv() { request_stop(); }

TimePoint TcpEnv::now() const { return steady_ns() - epoch_ns_; }

void TcpEnv::wake() {
  bump(wakeups_);
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t ignored =
      ::write(wake_w_.get(), &byte, 1);
}

void TcpEnv::enqueue_frame(ProcessId dst, const Payload& msg) {
  // The only cost an unfaulted run pays for the adversary machinery:
  // one null-pointer check.
  if (faults_ != nullptr) {
    fault_checkpoint(dst, msg);
    return;
  }
  enqueue_frame_direct(dst, msg);
}

void TcpEnv::enqueue_frame_direct(ProcessId dst, const Payload& msg) {
  Peer& peer = peers_[dst];
  if (!peer.open) return;  // peer gone: reliable-channel-until-crash
  // Counted here — frames actually queued on a socket — so sends to
  // dead peers don't inflate the wire total. Payload plus the u32
  // length prefix.
  bump(wire_bytes_, msg.size() + sizeof(std::uint32_t));
  peer.outq.push_back(
      OutFrame{frame_header(static_cast<std::uint32_t>(msg.size())), msg});
}

void TcpEnv::fault_checkpoint(ProcessId dst, const Payload& msg) {
  using Action = LinkFaultStage::Decision::Action;
  const LinkFaultStage::Decision verdict =
      faults_->decide(self_, dst, now());
  switch (verdict.action) {
    case Action::kDrop:
      bump(dropped_fault_);
      return;
    case Action::kHold:
      // Buffering partition: park until the heal, then re-check.
      bump(delayed_fault_);
      held_.push_back(HeldFrame{verdict.release, dst, msg, true});
      return;
    case Action::kDelay:
      bump(delayed_fault_);
      if (verdict.duplicate) {
        bump(duplicated_fault_);
        held_.push_back(HeldFrame{verdict.release, dst, msg, false});
      }
      held_.push_back(HeldFrame{verdict.release, dst, msg, false});
      return;
    case Action::kForward:
      if (verdict.duplicate) {
        bump(duplicated_fault_);
        enqueue_frame_direct(dst, msg);
      }
      enqueue_frame_direct(dst, msg);
      return;
  }
}

void TcpEnv::release_due_held() {
  if (held_.empty()) return;
  const TimePoint t = now();
  bool any_due = false;
  for (const HeldFrame& h : held_) {
    if (h.release <= t) {
      any_due = true;
      break;
    }
  }
  if (!any_due) return;
  // Swap out first: a re-checked frame can park itself again (a second
  // cut opened during the first hold), and it must land in held_, not in
  // the deque being iterated.
  std::deque<HeldFrame> pending;
  pending.swap(held_);
  for (HeldFrame& h : pending) {
    if (h.release > t) {
      held_.push_back(std::move(h));
    } else if (h.recheck) {
      fault_checkpoint(h.dst, h.msg);
    } else {
      enqueue_frame_direct(h.dst, h.msg);
    }
  }
}

void TcpEnv::set_fault_plan(FaultPlan plan, TimePoint origin) {
  IBC_REQUIRE_MSG(on_reactor() || reactor_tid_.load() == std::thread::id{},
                  "set_fault_plan off the reactor while it runs");
  if (plan.empty()) {
    faults_.reset();
    return;
  }
  // The adversary draws from its own forked stream, exactly like
  // SimNetwork: arming a plan never perturbs protocol randomness.
  faults_ = std::make_unique<LinkFaultStage>(std::move(plan), origin,
                                             rng_.fork("adversary"));
}

void TcpEnv::send(ProcessId dst, Payload msg) {
  IBC_REQUIRE(dst >= 1 && dst <= n_);
  bump(messages_);
  if (dst == self_) {
    // Loopback: dispatch asynchronously on the reactor, like everyone
    // else's messages. The shared Payload is the frame — no copy.
    defer([this, msg = std::move(msg)] {
      if (receive_) receive_(self_, msg);
    });
    return;
  }
  if (on_reactor()) {
    // Fast path: protocol code runs on the reactor thread, which owns
    // the output queues outright — no lock, no wake syscall.
    enqueue_frame(dst, msg);
    return;
  }
  {
    const std::scoped_lock lock(mu_);
    pending_sends_.emplace_back(dst, std::move(msg));
  }
  wake();
}

void TcpEnv::multicast(Payload msg) {
  // Accounting is per destination, exactly like a loop of sends; the
  // frame bytes are shared by every queue entry.
  bump(messages_, n_ - 1);
  if (on_reactor()) {
    for (ProcessId q = 1; q <= n_; ++q) {
      if (q != self_) enqueue_frame(q, msg);
    }
    return;
  }
  {
    const std::scoped_lock lock(mu_);
    for (ProcessId q = 1; q <= n_; ++q) {
      if (q != self_) pending_sends_.emplace_back(q, msg);
    }
  }
  wake();
}

runtime::TimerId TcpEnv::set_timer(Duration delay, TimerFn fn) {
  IBC_REQUIRE(delay >= 0);
  IBC_REQUIRE(fn != nullptr);
  runtime::TimerId id;
  {
    const std::scoped_lock lock(mu_);
    id = next_timer_id_++;
    timers_.push(PendingTimer{now() + delay, next_timer_seq_++, id,
                              std::make_shared<TimerFn>(std::move(fn))});
    live_timers_.insert(id);
  }
  // On the reactor thread the loop recomputes its poll timeout before
  // sleeping, so the wake syscall is needed only for other threads.
  if (!on_reactor()) wake();
  return id;
}

void TcpEnv::cancel_timer(runtime::TimerId id) {
  const std::scoped_lock lock(mu_);
  live_timers_.erase(id);
}

void TcpEnv::defer(TimerFn fn) {
  if (on_reactor()) {
    // Fast path: the reactor drains local_tasks_ every loop iteration.
    local_tasks_.push_back(std::move(fn));
    return;
  }
  {
    const std::scoped_lock lock(mu_);
    tasks_.push_back(std::move(fn));
  }
  wake();
}

bool TcpEnv::run_at_idle(TimerFn fn) {
  // Protocol callbacks all run on the reactor, so this is the only
  // caller that matters; a cross-thread caller gets `false` and uses
  // its timer fallback instead of racing the reactor for the queue.
  if (!on_reactor()) return false;
  idle_tasks_.push_back(std::move(fn));
  return true;
}

bool TcpEnv::transport_backlog() const {
  if (!on_reactor()) return false;
  for (ProcessId p = 1; p <= n_; ++p) {
    if (p == self_) continue;
    const Peer& peer = peers_[p];
    if (peer.open && peer.has_backlog()) return true;
  }
  return false;
}

void TcpEnv::start_thread() {
  thread_ = std::jthread([this](const std::stop_token& st) {
    reactor_loop(st);
  });
}

void TcpEnv::request_stop() {
  if (thread_.joinable()) {
    thread_.request_stop();
    wake();
    thread_.join();
  }
  for (Peer& peer : peers_) peer.close();
  // Parked fault frames die with the incarnation — the simulator
  // likewise loses held messages whose sender crashes before the heal.
  held_.clear();
  listener_.reset();
}

void TcpEnv::reset_for_restart() {
  IBC_REQUIRE_MSG(!thread_.joinable(), "reset with the reactor running");
  local_tasks_.clear();
  idle_tasks_.clear();
  {
    const std::scoped_lock lock(mu_);
    pending_sends_.clear();
    tasks_.clear();
    timers_ = {};
    live_timers_.clear();
  }
  receive_ = nullptr;
  // Fresh peer slots: a decoder holding half a pre-crash frame must not
  // parse the new incarnation's stream. The fault *plan* survives (the
  // restarted process rejoins the same hostile wire); its parked frames
  // do not.
  held_.clear();
  for (Peer& peer : peers_) peer.close();
  // Stale wakeup bytes would make the first poll spin.
  std::uint8_t sink[256];
  while (::read(wake_r_.get(), sink, sizeof sink) > 0) {
  }
}

void TcpEnv::install_peer(ProcessId peer_id, Fd fd) {
  IBC_REQUIRE(peer_id >= 1 && peer_id <= n_ && peer_id != self_);
  IBC_REQUIRE_MSG(reactor_tid_.load() == std::thread::id{},
                  "install_peer with the reactor running");
  IBC_REQUIRE(fd.valid());
  make_nonblocking_nodelay(fd);
  Peer& peer = peers_[peer_id];
  peer.close();
  peer.fd = std::move(fd);
  peer.open = true;
}

void TcpEnv::adopt_listener(Fd listener) {
  IBC_REQUIRE_MSG(reactor_tid_.load() == std::thread::id{},
                  "adopt_listener with the reactor running");
  IBC_REQUIRE(listener.valid());
  make_nonblocking_nodelay(listener);
  listener_ = std::move(listener);
}

void TcpEnv::handle_accept() {
  while (true) {
    Fd conn(::accept(listener_.get(), nullptr, nullptr));
    if (!conn.valid()) return;  // EAGAIN: backlog drained
    // The accepted socket is blocking (O_NONBLOCK does not inherit), so
    // the hello read blocks — bounded by kHelloTimeoutMs. A dialer
    // writes its rank immediately after connect, so a timeout means a
    // stray connection; it is dropped without touching the mesh.
    std::uint32_t hello = 0;
    if (!read_exact(conn, &hello, sizeof hello, kHelloTimeoutMs)) continue;
    if (hello < 1 || hello > n_ || hello == self_) continue;
    Peer& peer = peers_[hello];
    if (peer.open) {
      // Two connections for one pair: either the slot holds a dead
      // predecessor whose FIN we have not read yet, or both ends dialed
      // each other simultaneously (two restarted ranks redialing the
      // mesh at once). Drain the existing socket first so a queued
      // death notice is observed before we arbitrate.
      handle_readable(hello);
    }
    if (peer.open && hello > self_) {
      // Simultaneous dial, and we are the lower rank: the connection
      // *we* dialed is the deterministic winner on both ends (lower
      // rank's dial wins). Dropping `conn` here is the loser's
      // idempotent teardown — the higher rank sees EOF on a socket it
      // has already abandoned for the same reason.
      continue;
    }
    make_nonblocking_nodelay(conn);
    // The incoming connection wins: the slot was dead, or the dialer is
    // the lower rank. Frames queued for this peer are kept — the offset
    // resets so a partially-written frame resends whole on the new
    // socket (the receiver's decoder died with the loser), and the RB
    // layer's frame dedup absorbs any frame that had already crossed.
    std::deque<OutFrame> outq = std::move(peer.outq);
    peer.close();
    peer.fd = std::move(conn);
    peer.open = true;
    peer.outq = std::move(outq);
  }
}

void TcpEnv::accept_link(ProcessId dialer) {
  IBC_REQUIRE(dialer >= 1 && dialer <= n_ && dialer != self_);
  IBC_REQUIRE_MSG(on_reactor() || reactor_tid_.load() == std::thread::id{},
                  "accept_link off the reactor while it runs");
  handle_accept();
  pollfd pfd{listener_.get(), POLLIN, 0};
  while (!peers_[dialer].open && ::poll(&pfd, 1, kHelloTimeoutMs) == 1)
    handle_accept();
}

runtime::HostCounters TcpEnv::counters() const {
  runtime::HostCounters out;
  out.messages_sent = messages_.load(std::memory_order_relaxed);
  out.wire_bytes_sent = wire_bytes_.load(std::memory_order_relaxed);
  out.frames_sent = frames_.load(std::memory_order_relaxed);
  out.writev_calls = writev_calls_.load(std::memory_order_relaxed);
  out.wakeups = wakeups_.load(std::memory_order_relaxed);
  out.dropped_fault = dropped_fault_.load(std::memory_order_relaxed);
  out.duplicated_fault = duplicated_fault_.load(std::memory_order_relaxed);
  out.delayed_fault = delayed_fault_.load(std::memory_order_relaxed);
  return out;
}

void TcpEnv::drain_cross_thread() {
  // Swap the shared containers into locals under the lock, then process
  // lock-free: cross-thread senders never wait behind frame enqueueing,
  // and the reactor never encodes while holding mu_.
  std::vector<std::pair<ProcessId, Payload>> sends;
  std::vector<TimerFn> tasks;
  {
    const std::scoped_lock lock(mu_);
    sends.swap(pending_sends_);
    tasks.swap(tasks_);
  }
  for (auto& [dst, msg] : sends) enqueue_frame(dst, msg);
  for (TimerFn& fn : tasks) local_tasks_.push_back(std::move(fn));
}

int TcpEnv::poll_timeout_ms() {
  if (!local_tasks_.empty()) return 0;  // ready work: don't sleep
  // Otherwise the earliest live timer or parked fault frame bounds the
  // sleep (ms, rounded up).
  Duration until = -1;  // < 0: nothing pending
  for (const HeldFrame& h : held_) {
    const Duration d = h.release - now();
    if (until < 0 || d < until) until = d;
  }
  {
    const std::scoped_lock lock(mu_);
    while (!timers_.empty() &&
           !live_timers_.contains(timers_.top().id)) {
      timers_.pop();  // lazily discard cancelled timers
    }
    if (!timers_.empty()) {
      const Duration d = timers_.top().deadline - now();
      if (until < 0 || d < until) until = d;
    }
  }
  if (until < 0) return 100;
  if (until <= 0) return 0;
  const auto ms = static_cast<int>((until + kMillisecond - 1) / kMillisecond);
  return std::min(ms, 100);
}

void TcpEnv::fire_due_timers() {
  while (true) {
    std::shared_ptr<TimerFn> fn;
    {
      const std::scoped_lock lock(mu_);
      while (!timers_.empty() &&
             !live_timers_.contains(timers_.top().id)) {
        timers_.pop();
      }
      if (timers_.empty() || timers_.top().deadline > now()) return;
      fn = timers_.top().fn;
      live_timers_.erase(timers_.top().id);
      timers_.pop();
    }
    (*fn)();  // run without the lock: timer code sends messages
  }
}

void TcpEnv::run_ready_tasks() {
  // Tasks deferred while this batch runs land in the fresh local_tasks_
  // and execute next iteration — same "after the current callback
  // returns" semantics as before.
  std::vector<TimerFn> batch;
  batch.swap(local_tasks_);
  for (TimerFn& fn : batch) fn();
}

void TcpEnv::run_idle_tasks() {
  // "Idle" = nothing ready to run this cycle: whatever an idle task was
  // waiting to coalesce with has already happened. Tasks queued while
  // the batch runs wait for the next idle cycle.
  if (idle_tasks_.empty() || !local_tasks_.empty()) return;
  std::vector<TimerFn> batch;
  batch.swap(idle_tasks_);
  for (TimerFn& fn : batch) fn();
}

void TcpEnv::handle_readable(ProcessId peer_id) {
  Peer& peer = peers_[peer_id];
  std::uint8_t buf[64 * 1024];
  while (peer.open) {
    const ssize_t got = ::read(peer.fd.get(), buf, sizeof buf);
    if (got > 0) {
      const bool ok = peer.decoder.feed(
          BytesView(buf, static_cast<std::size_t>(got)),
          [this, peer_id](BytesView frame) {
            if (receive_) receive_(peer_id, frame);
          });
      IBC_ASSERT_MSG(ok, "malformed TCP frame stream");
      continue;
    }
    if (got == 0 ||
        (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      // Peer crashed or closed: from now on it is silent, exactly like a
      // crashed process in the model. The failure detector notices. Any
      // parked backlog dies with the channel.
      peer.close();
    }
    return;
  }
}

void TcpEnv::flush_peer(ProcessId peer_id) {
  Peer& peer = peers_[peer_id];
  while (peer.open && !peer.outq.empty()) {
    // Scatter up to kMaxIov segments straight out of the queued frames:
    // the headers and the shared payload buffers, nothing re-copied.
    iovec iov[kMaxIov];
    std::size_t iov_count = 0;
    std::size_t requested = 0;
    std::size_t skip = peer.out_offset;  // partial progress on front
    for (const OutFrame& frame : peer.outq) {
      if (iov_count + 2 > kMaxIov) break;
      const std::size_t hdr_skip = std::min(skip, frame.header.size());
      const std::size_t pay_skip = skip - hdr_skip;
      if (frame.header.size() > hdr_skip) {
        iov[iov_count++] = {
            const_cast<std::uint8_t*>(frame.header.data()) + hdr_skip,
            frame.header.size() - hdr_skip};
        requested += frame.header.size() - hdr_skip;
      }
      if (frame.payload.size() > pay_skip) {
        iov[iov_count++] = {
            const_cast<std::uint8_t*>(frame.payload.data()) + pay_skip,
            frame.payload.size() - pay_skip};
        requested += frame.payload.size() - pay_skip;
      }
      skip = 0;
    }
    if (iov_count == 0) {  // queued empty frames already fully written
      peer.outq.pop_front();
      peer.out_offset = 0;
      continue;
    }

    // sendmsg is writev-with-flags: MSG_NOSIGNAL turns the EPIPE of a
    // peer that reset mid-flush into an error return (handled below as
    // a crash) instead of a process-killing SIGPIPE.
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = iov_count;
    const ssize_t wrote = ::sendmsg(peer.fd.get(), &mh, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        return;  // kernel buffer full: resume on POLLOUT
      peer.close();  // connection reset
      return;
    }
    bump(writev_calls_);

    // Retire fully-written frames; a partial frame keeps its offset.
    std::size_t remaining = static_cast<std::size_t>(wrote);
    while (remaining > 0 && !peer.outq.empty()) {
      const OutFrame& front = peer.outq.front();
      const std::size_t frame_total =
          front.header.size() + front.payload.size();
      const std::size_t frame_left = frame_total - peer.out_offset;
      if (remaining >= frame_left) {
        remaining -= frame_left;
        peer.outq.pop_front();
        peer.out_offset = 0;
        bump(frames_);
      } else {
        peer.out_offset += remaining;
        remaining = 0;
      }
    }
    if (static_cast<std::size_t>(wrote) < requested) return;  // short write
  }
}

void TcpEnv::flush_all_peers() {
  for (ProcessId q = 1; q <= n_; ++q) {
    if (q != self_ && peers_[q].has_backlog()) flush_peer(q);
  }
}

void TcpEnv::reactor_loop(const std::stop_token& st) {
  reactor_tid_.store(std::this_thread::get_id());
  while (!st.stop_requested()) {
    // Collect work produced since the last iteration (cross-thread
    // senders and the previous cycle's callbacks), run it, then flush
    // every touched peer once: all frames the cycle produced leave in
    // one writev per peer instead of one syscall per frame.
    drain_cross_thread();
    run_ready_tasks();
    fire_due_timers();
    // Parked fault frames whose delay or partition window elapsed enter
    // the queues now, so they ride this cycle's flush.
    release_due_held();
    // Idle work (underfull-batch flushes) goes right before the writev
    // flush: its output still rides this cycle's syscalls.
    run_idle_tasks();
    flush_all_peers();

    const int timeout_ms = poll_timeout_ms();
    std::vector<pollfd> pfds;
    std::vector<ProcessId> owners;  // 0 = not a peer (wake pipe, listener)
    pfds.push_back(pollfd{wake_r_.get(), POLLIN, 0});
    owners.push_back(0);
    std::size_t listener_idx = 0;
    if (listener_.valid()) {
      listener_idx = pfds.size();
      pfds.push_back(pollfd{listener_.get(), POLLIN, 0});
      owners.push_back(0);
    }
    for (ProcessId q = 1; q <= n_; ++q) {
      Peer& peer = peers_[q];
      if (!peer.open) continue;
      short events = POLLIN;
      if (peer.has_backlog()) events |= POLLOUT;
      pfds.push_back(pollfd{peer.fd.get(), events, 0});
      owners.push_back(q);
    }

    ::poll(pfds.data(), pfds.size(), timeout_ms);

    if ((pfds[0].revents & POLLIN) != 0) {
      std::uint8_t sink[256];
      while (::read(wake_r_.get(), sink, sizeof sink) > 0) {
      }
    }
    if (listener_idx != 0 && (pfds[listener_idx].revents & POLLIN) != 0)
      handle_accept();
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if (owners[i] == 0) continue;
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        handle_readable(owners[i]);
      if ((pfds[i].revents & POLLOUT) != 0) flush_peer(owners[i]);
    }
  }
  // Cleared on exit so a recycled OS thread id can't alias a dead
  // reactor in run_on's self-thread check.
  reactor_tid_.store(std::thread::id{});
}

}  // namespace ibc::net::tcp
