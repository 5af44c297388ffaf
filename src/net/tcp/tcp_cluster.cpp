#include "net/tcp/tcp_cluster.hpp"

#include <chrono>
#include <condition_variable>

#include "util/assert.hpp"

namespace ibc::net::tcp {

TcpCluster::TcpCluster(std::uint32_t n, std::uint64_t seed)
    : epoch_ns_(steady_ns()), ports_(n + 1, 0) {
  IBC_REQUIRE(n >= 1);
  ranks_.push_back(nullptr);  // 1-based
  for (ProcessId p = 1; p <= n; ++p) {
    ranks_.push_back(std::make_unique<TcpProcess>(p, n, seed, epoch_ns_));
  }
  for (ProcessId p = 1; p <= n; ++p) wire(p, /*first_boot=*/true);
  for (ProcessId q = 1; q <= n; ++q) {
    for (ProcessId p = q + 1; p <= n; ++p) rank(q).accept_link(p);
  }
}

TcpCluster::~TcpCluster() { shutdown(); }

TcpProcess& TcpCluster::rank(ProcessId p) const {
  IBC_REQUIRE(p >= 1 && p <= n());
  return *ranks_[p];
}

void TcpCluster::publish(ProcessId p, std::uint16_t port) {
  const std::scoped_lock lock(ports_mu_);
  ports_[p] = port;
}

std::optional<std::uint16_t> TcpCluster::port_of(ProcessId q) const {
  const std::scoped_lock lock(ports_mu_);
  if (ports_[q] == 0) return std::nullopt;
  return ports_[q];
}

std::vector<ProcessId> TcpCluster::wire(ProcessId p, bool first_boot) {
  publish(p, rank(p).bind_listener());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<ProcessId> linked;
  for (ProcessId q = 1; q <= (first_boot ? p - 1 : n()); ++q) {
    if (q == p) continue;
    const bool ok =
        rank(p).dial(q, [this, q] { return port_of(q); }, deadline)
            .has_value();
    IBC_REQUIRE_MSG(ok || !first_boot,
                    "initial mesh dial failed after bounded backoff");
    if (ok) linked.push_back(q);
  }
  return linked;
}

runtime::Env& TcpCluster::env(ProcessId p) { return rank(p).env(p); }

TimePoint TcpCluster::now() const { return steady_ns() - epoch_ns_; }

void TcpCluster::start() {
  for (ProcessId p = 1; p <= n(); ++p) rank(p).start();
}

void TcpCluster::shutdown() {
  // Joining the watchdogs first guarantees no concurrent kill() below.
  watchdogs_.clear();
  for (ProcessId p = 1; p <= n(); ++p) rank(p).shutdown();
}

std::size_t TcpCluster::run_for(Duration d) {
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  return 0;
}

void TcpCluster::post(ProcessId p, std::function<void()> fn) {
  env(p).defer(std::move(fn));
}

void TcpCluster::run_on(ProcessId p, std::function<void()> fn) {
  rank(p).run_on(p, std::move(fn));
}

void TcpCluster::kill(ProcessId p) {
  publish(p, 0);  // redials stop at a dead rank instead of retrying it
  rank(p).crash(p);
}

void TcpCluster::crash_at(TimePoint t, ProcessId p) {
  IBC_REQUIRE(p >= 1 && p <= n());
  run_at(t, [this, p] { kill(p); });
}

void TcpCluster::restart(ProcessId p) {
  rank(p).restart(p);
  // A rank that is itself between kill and resume skips the run_on; its
  // reactor takes p's dial off its listener once it starts.
  for (const ProcessId q : wire(p, /*first_boot=*/false)) {
    rank(q).run_on(q, [this, p, q] { rank(q).accept_link(p); });
  }
}

void TcpCluster::resume(ProcessId p) { rank(p).resume(p); }

void TcpCluster::run_at(TimePoint t, std::function<void()> fn) {
  watchdogs_.emplace_back(
      [this, t, fn = std::move(fn)](const std::stop_token& st) {
        std::mutex mu;
        std::condition_variable_any cv;
        std::unique_lock lock(mu);
        const Duration delay = t - now();
        if (delay > 0) {
          cv.wait_for(lock, st, std::chrono::nanoseconds(delay),
                      [] { return false; });
        }
        if (!st.stop_requested()) fn();
      });
}

bool TcpCluster::crashed(ProcessId p) const { return rank(p).crashed(p); }

std::uint32_t TcpCluster::alive_count() const {
  std::uint32_t alive = 0;
  for (ProcessId p = 1; p <= n(); ++p)
    if (!crashed(p)) ++alive;
  return alive;
}

void TcpCluster::write_raw_for_test(ProcessId src, ProcessId dst,
                                    const Bytes& bytes) {
  rank(src).write_raw_for_test(dst, bytes);
}

void TcpCluster::close_link_for_test(ProcessId src, ProcessId dst) {
  rank(src).close_link_for_test(dst);
}

runtime::HostCounters TcpCluster::counters() const {
  runtime::HostCounters sum;
  for (ProcessId p = 1; p <= n(); ++p) sum += rank(p).counters();
  return sum;
}

void TcpCluster::set_fault_plan(const FaultPlan& plan) {
  // Origin 0 is the shared epoch: every rank's windows line up.
  for (ProcessId p = 1; p <= n(); ++p) rank(p).arm_fault_plan(plan, 0);
}

}  // namespace ibc::net::tcp
