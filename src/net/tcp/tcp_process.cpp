#include "net/tcp/tcp_process.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "util/assert.hpp"

namespace ibc::net::tcp {

namespace {

constexpr auto kPollInterval = std::chrono::milliseconds(5);

}  // namespace

TcpProcess::TcpProcess(ProcessId self, std::uint32_t n, std::uint64_t seed,
                       TimePoint epoch_ns)
    : self_(self),
      n_(n),
      epoch_ns_(epoch_ns),
      env_(self, n, Rng(seed).fork("tcp-process", self), epoch_ns) {
  IBC_REQUIRE(n >= 1 && self >= 1 && self <= n);
}

TcpProcess::~TcpProcess() { shutdown(); }

runtime::Env& TcpProcess::env(ProcessId p) {
  IBC_REQUIRE_MSG(p == self_, "TcpProcess only hosts its own rank");
  return env_;
}

TimePoint TcpProcess::now() const { return steady_ns() - epoch_ns_; }

std::uint16_t TcpProcess::bind_listener() {
  auto [listener, port] = listen_loopback();
  env_.adopt_listener(std::move(listener));
  return port;
}

std::optional<int> TcpProcess::dial(
    ProcessId q, const PortResolver& resolve,
    std::chrono::steady_clock::time_point deadline) {
  DialResult result = dial_loopback_hello(resolve, self_, deadline);
  if (!result.fd.valid()) return std::nullopt;
  env_.install_peer(q, std::move(result.fd));
  return result.attempts;
}

void TcpProcess::accept_link(ProcessId dialer) { env_.accept_link(dialer); }

void TcpProcess::start() {
  {
    // Flipped before the thread exists: a concurrent run_on queues its
    // task for the reactor instead of running it inline beside it.
    const std::scoped_lock lock(state_mu_);
    IBC_REQUIRE_MSG(!running_ && !shut_down_,
                    "start() with the reactor running or after shutdown");
    running_ = true;
    killed_ = false;
    kill_started_ = false;
  }
  env_.start_thread();
}

void TcpProcess::shutdown() {
  {
    const std::scoped_lock lock(state_mu_);
    if (shut_down_) return;
  }
  env_.request_stop();
  const std::scoped_lock lock(state_mu_);
  shut_down_ = true;
  running_ = false;
}

std::size_t TcpProcess::run_for(Duration d) {
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  return 0;
}

void TcpProcess::run_on(ProcessId p, std::function<void()> fn) {
  IBC_REQUIRE_MSG(p == self_, "TcpProcess only hosts its own rank");
  if (env_.on_reactor()) {
    // Already on the reactor (e.g. abroadcast from inside a delivery
    // callback): deferring and blocking would deadlock; run directly.
    fn();
    return;
  }
  bool run_inline = false;
  {
    const std::scoped_lock lock(state_mu_);
    if (killed_) return;
    run_inline = !running_;
  }
  if (run_inline) {
    // No reactor thread: inline execution is race-free.
    fn();
    return;
  }
  struct DoneGate {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
  };
  // Shared: if the rank dies before running the task, the closure (and
  // gate) must outlive this frame. The reactor runs `fn` while holding
  // gate->mu, so the abandon decision below is serialized against the
  // task: once we mark it abandoned, `fn` (whose captures may reference
  // this frame) can no longer start.
  auto gate = std::make_shared<DoneGate>();
  env_.defer([fn = std::move(fn), gate] {
    std::unique_lock lock(gate->mu);
    if (gate->abandoned) return;
    fn();
    gate->done = true;
    lock.unlock();
    gate->cv.notify_one();
  });
  std::unique_lock lock(gate->mu);
  while (!gate->done) {
    // Re-check liveness periodically: a concurrent crash or shutdown
    // stops the reactor and the task would otherwise never complete.
    gate->cv.wait_for(lock, std::chrono::milliseconds(20));
    if (gate->done) break;
    const std::scoped_lock state_lock(state_mu_);
    if (killed_ || !running_) {
      gate->abandoned = true;
      return;
    }
  }
}

void TcpProcess::crash(ProcessId p) {
  IBC_REQUIRE_MSG(p == self_, "TcpProcess only hosts its own rank");
  {
    const std::scoped_lock lock(state_mu_);
    if (kill_started_) return;  // serializes concurrent request_stop
    kill_started_ = true;
  }
  env_.request_stop();
  const std::scoped_lock lock(state_mu_);
  killed_ = true;
  running_ = false;
}

void TcpProcess::restart(ProcessId p) {
  IBC_REQUIRE_MSG(p == self_, "TcpProcess only hosts its own rank");
  {
    const std::scoped_lock lock(state_mu_);
    IBC_REQUIRE_MSG(killed_, "restart of a process that is alive");
    IBC_REQUIRE_MSG(!shut_down_, "restart after shutdown");
  }
  env_.reset_for_restart();
}

void TcpProcess::resume(ProcessId p) {
  IBC_REQUIRE_MSG(p == self_, "TcpProcess only hosts its own rank");
  start();
}

void TcpProcess::crash_at(TimePoint, ProcessId) {
  IBC_REQUIRE_MSG(false, "TcpProcess has no scheduler: kill the OS process");
}

void TcpProcess::run_at(TimePoint, std::function<void()>) {
  IBC_REQUIRE_MSG(false, "TcpProcess has no scheduler");
}

bool TcpProcess::crashed(ProcessId p) const {
  IBC_REQUIRE_MSG(p == self_,
                  "TcpProcess cannot observe remote liveness; ask the FD");
  const std::scoped_lock lock(state_mu_);
  return killed_;
}

void TcpProcess::arm_fault_plan(const FaultPlan& plan, TimePoint origin) {
  // The reactor owns the fault stage: run_on installs it there, or inline
  // while no reactor runs.
  run_on(self_, [this, &plan, origin] { env_.set_fault_plan(plan, origin); });
}

void TcpProcess::write_raw_for_test(ProcessId dst, const Bytes& bytes) {
  IBC_REQUIRE(dst >= 1 && dst <= n_ && dst != self_);
  // run_on blocks until the closure ran, so capturing by reference is
  // safe and the caller observes a completed write.
  run_on(self_, [this, dst, &bytes] {
    TcpEnv::Peer& peer = env_.peers_[dst];
    IBC_REQUIRE_MSG(peer.open && !peer.has_backlog(),
                    "raw writes need an open, idle link");
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t wrote =
          ::send(peer.fd.get(), bytes.data() + off, bytes.size() - off,
                 MSG_NOSIGNAL);
      if (wrote < 0 &&
          (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        continue;  // test writes are tiny; spinning is fine
      }
      IBC_REQUIRE(wrote > 0);
      off += static_cast<std::size_t>(wrote);
    }
  });
}

void TcpProcess::close_link_for_test(ProcessId dst) {
  IBC_REQUIRE(dst >= 1 && dst <= n_ && dst != self_);
  run_on(self_, [this, dst] { env_.peers_[dst].close(); });
}

// ---- File-based multi-process coordination -------------------------------

void publish_file(const std::string& dir, const std::string& name,
                  const std::string& contents) {
  namespace fs = std::filesystem;
  const fs::path target = fs::path(dir) / name;
  const fs::path tmp = fs::path(dir) / (".tmp." + name);
  {
    std::ofstream out(tmp, std::ios::trunc);
    IBC_REQUIRE_MSG(out.good(), "cannot write into the scratch directory");
    out << contents;
  }
  // rename(2) is atomic within a filesystem: readers see the old state
  // or the complete new file, never a torn write.
  IBC_REQUIRE(std::rename(tmp.c_str(), target.c_str()) == 0);
}

bool file_exists(const std::string& dir, const std::string& name) {
  return std::filesystem::exists(std::filesystem::path(dir) / name);
}

void publish_port(const std::string& dir, ProcessId rank,
                  std::uint16_t port) {
  publish_file(dir, "port." + std::to_string(rank), std::to_string(port));
}

std::optional<std::uint16_t> read_port(const std::string& dir,
                                       ProcessId rank) {
  namespace fs = std::filesystem;
  const fs::path file = fs::path(dir) / ("port." + std::to_string(rank));
  std::ifstream in(file);
  unsigned value = 0;
  if (in.good() && (in >> value) && value > 0 && value <= 0xffff) {
    return static_cast<std::uint16_t>(value);
  }
  return std::nullopt;
}

std::vector<std::uint16_t> wait_for_ports(const std::string& dir,
                                          std::uint32_t n,
                                          Duration timeout) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout);
  std::vector<std::uint16_t> ports(n + 1, 0);
  while (true) {
    bool all = true;
    for (ProcessId rank = 1; rank <= n; ++rank) {
      if (ports[rank] != 0) continue;
      if (const std::optional<std::uint16_t> port = read_port(dir, rank)) {
        ports[rank] = *port;
      } else {
        all = false;
      }
    }
    if (all) return ports;
    if (std::chrono::steady_clock::now() >= deadline) return {};
    std::this_thread::sleep_for(kPollInterval);
  }
}

void barrier_enter(const std::string& dir, const std::string& name,
                   ProcessId rank) {
  publish_file(dir, name + "." + std::to_string(rank), "1");
}

bool barrier_await(const std::string& dir, const std::string& name,
                   std::uint32_t n, Duration timeout) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout);
  while (true) {
    bool all = true;
    for (ProcessId rank = 1; rank <= n; ++rank) {
      if (!file_exists(dir, name + "." + std::to_string(rank))) {
        all = false;
        break;
      }
    }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(kPollInterval);
  }
}

}  // namespace ibc::net::tcp
