#include "net/tcp/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ibc::net::tcp {

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<Fd, std::uint16_t> listen_loopback() {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  IBC_REQUIRE(fd.valid());
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  IBC_REQUIRE(::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) == 0);
  IBC_REQUIRE(::listen(fd.get(), 64) == 0);

  socklen_t len = sizeof addr;
  IBC_REQUIRE(::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                            &len) == 0);
  return {std::move(fd), ntohs(addr.sin_port)};
}

Fd try_connect_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  IBC_REQUIRE(fd.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof addr) != 0) {
    return Fd{};
  }
  return fd;
}

Fd connect_loopback(std::uint16_t port) {
  Fd fd = try_connect_loopback(port);
  IBC_REQUIRE_MSG(fd.valid(), "loopback connect failed");
  return fd;
}

DialResult dial_loopback_hello(
    const PortResolver& resolve, std::uint32_t hello,
    std::chrono::steady_clock::time_point deadline) {
  DialResult result;
  std::uint64_t jitter_state =
      (static_cast<std::uint64_t>(hello) << 32) ^
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  std::int64_t backoff_us = 2000;
  while (true) {
    const std::optional<std::uint16_t> port = resolve();
    if (!port) return result;  // unpublished: the peer is dead
    ++result.attempts;
    Fd fd = try_connect_loopback(*port);
    if (fd.valid()) {
      if (::write(fd.get(), &hello, sizeof hello) == sizeof hello) {
        result.fd = std::move(fd);
        return result;
      }
      fd.reset();  // peer reset between connect and hello: keep retrying
    }
    if (std::chrono::steady_clock::now() >= deadline) return result;
    const std::int64_t jitter =
        static_cast<std::int64_t>(splitmix64(jitter_state) %
                                  static_cast<std::uint64_t>(backoff_us)) -
        backoff_us / 2;
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us + jitter));
    backoff_us = std::min<std::int64_t>(backoff_us * 2, 250'000);
  }
}

Fd accept_one(const Fd& listener) {
  Fd fd(::accept(listener.get(), nullptr, nullptr));
  IBC_REQUIRE_MSG(fd.valid(), "accept failed");
  return fd;
}

bool read_exact(const Fd& fd, void* buf, std::size_t len, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  auto* out = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t r = ::recv(fd.get(), out + got, len - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;  // EOF, timeout, or error
  }
  return true;
}

void make_nonblocking_nodelay(const Fd& fd) {
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  IBC_REQUIRE(flags >= 0);
  IBC_REQUIRE(::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) == 0);
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::pair<Fd, Fd> make_wakeup_pipe() {
  int fds[2];
  IBC_REQUIRE(::pipe(fds) == 0);
  Fd read_end(fds[0]), write_end(fds[1]);
  make_nonblocking_nodelay(read_end);  // NODELAY is a no-op on pipes
  const int flags = ::fcntl(write_end.get(), F_GETFL, 0);
  ::fcntl(write_end.get(), F_SETFL, flags | O_NONBLOCK);
  return {std::move(read_end), std::move(write_end)};
}

}  // namespace ibc::net::tcp
