// RAII POSIX socket helpers for the loopback TCP transport.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

namespace ibc::net::tcp {

/// Owning file descriptor. Closes on destruction; move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Creates a TCP listener bound to 127.0.0.1 on an ephemeral port;
/// returns the socket and the chosen port.
std::pair<Fd, std::uint16_t> listen_loopback();

/// Blocking connect to 127.0.0.1:port that reports failure instead of
/// aborting: returns an invalid Fd when the dial fails (connection
/// refused, etc.). A peer that has not bound yet — or is genuinely dead —
/// is an expected outcome for a dialer, not a bug.
Fd try_connect_loopback(std::uint16_t port);

/// Blocking connect to 127.0.0.1:port; aborts if it fails.
Fd connect_loopback(std::uint16_t port);

/// Blocking accept.
Fd accept_one(const Fd& listener);

/// Result of a bounded-backoff dial: the connected socket (invalid if
/// the deadline passed first or the peer's port went unpublished) and
/// how many connect attempts were spent — the caller logs the count so
/// retry behavior is observable post-mortem.
struct DialResult {
  Fd fd;
  int attempts = 0;
};

/// Where a dialer finds the peer's current listen port. nullopt means
/// the peer has no published port (it is dead): the dial gives up.
using PortResolver = std::function<std::optional<std::uint16_t>()>;

/// Dials the port `resolve` names on 127.0.0.1 and writes the 4-byte
/// mesh hello, retrying with capped exponential backoff (2 ms doubling
/// to 250 ms, ±50% jitter) until `deadline`. The port is resolved again
/// on every attempt, so a relaunched peer's fresh port is picked up
/// mid-retry instead of hammering its dead one. The jitter keeps a herd
/// of simultaneously restarted ranks from re-dialing each other in
/// lockstep; its stream is seeded off the hello and the clock — dial
/// pacing is wall-clock territory, determinism is not at stake here.
DialResult dial_loopback_hello(const PortResolver& resolve,
                               std::uint32_t hello,
                               std::chrono::steady_clock::time_point deadline);

/// Reads exactly `len` bytes from a blocking socket, giving up after
/// `timeout_ms` of inactivity (SO_RCVTIMEO). Returns false on EOF,
/// error, or timeout — the caller drops the connection.
bool read_exact(const Fd& fd, void* buf, std::size_t len, int timeout_ms);

/// Switches a socket to non-blocking mode and disables Nagle.
void make_nonblocking_nodelay(const Fd& fd);

/// Creates a self-pipe used to wake a poll loop; returns {read, write}.
std::pair<Fd, Fd> make_wakeup_pipe();

}  // namespace ibc::net::tcp
