// Tests for the real TCP transport: framing, the Env contract over
// sockets, and the full atomic-broadcast stack on loopback TCP.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "net/faults.hpp"
#include "net/tcp/framing.hpp"
#include "net/tcp/socket.hpp"
#include "net/tcp/tcp_cluster.hpp"
#include "net/tcp/tcp_process.hpp"
#include "net/tcp/tcp_transport.hpp"
#include "runtime/cluster.hpp"

namespace ibc::net::tcp {
namespace {

// -------------------------------------------------------------- framing

TEST(Framing, RoundtripSingleFrame) {
  Bytes wire;
  encode_frame(bytes_of("hello"), wire);
  FrameDecoder dec;
  std::vector<Bytes> frames;
  ASSERT_TRUE(dec.feed(wire, [&](BytesView f) {
    frames.push_back(to_bytes(f));
  }));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(bytes_equal(frames[0], bytes_of("hello")));
  EXPECT_EQ(dec.pending(), 0u);
}

TEST(Framing, ByteAtATimeReassembly) {
  Bytes wire;
  encode_frame(bytes_of("fragmented"), wire);
  encode_frame(bytes_of("stream"), wire);
  FrameDecoder dec;
  std::vector<Bytes> frames;
  for (const std::uint8_t b : wire) {
    ASSERT_TRUE(dec.feed(BytesView(&b, 1), [&](BytesView f) {
      frames.push_back(to_bytes(f));
    }));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(bytes_equal(frames[0], bytes_of("fragmented")));
  EXPECT_TRUE(bytes_equal(frames[1], bytes_of("stream")));
}

TEST(Framing, EmptyFrameIsLegal) {
  Bytes wire;
  encode_frame({}, wire);
  FrameDecoder dec;
  int count = 0;
  ASSERT_TRUE(dec.feed(wire, [&](BytesView f) {
    ++count;
    EXPECT_EQ(f.size(), 0u);
  }));
  EXPECT_EQ(count, 1);
}

TEST(Framing, OversizedFrameRejected) {
  Bytes wire = {0xFF, 0xFF, 0xFF, 0xFF};  // 4 GiB length prefix
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(wire, [](BytesView) {}));
}

TEST(Framing, HeaderHelperMatchesEncodeFrame) {
  // The writev path scatters frame_header() + payload; byte-for-byte it
  // must equal the contiguous encode_frame() wire format.
  const Bytes payload = bytes_of("same wire bytes");
  Bytes contiguous;
  encode_frame(payload, contiguous);
  const auto hdr = frame_header(static_cast<std::uint32_t>(payload.size()));
  Bytes scattered(hdr.begin(), hdr.end());
  scattered.insert(scattered.end(), payload.begin(), payload.end());
  EXPECT_TRUE(bytes_equal(contiguous, scattered));
}

// ------------------------------------------------------------- Env/TCP

TEST(TcpCluster, PointToPointDelivery) {
  TcpCluster cluster(3);
  std::mutex mu;
  std::vector<std::pair<ProcessId, Bytes>> received;  // at p2
  cluster.env(2).set_receive([&](ProcessId from, BytesView msg) {
    const std::scoped_lock lock(mu);
    received.emplace_back(from, to_bytes(msg));
  });
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(3).set_receive([](ProcessId, BytesView) {});
  cluster.start();

  cluster.run_on(1, [&] { cluster.env(1).send(2, bytes_of("over tcp")); });
  cluster.run_on(3, [&] { cluster.env(3).send(2, bytes_of("also tcp")); });

  // Deliveries are asynchronous: wait briefly.
  for (int i = 0; i < 200; ++i) {
    {
      const std::scoped_lock lock(mu);
      if (received.size() == 2) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::scoped_lock lock(mu);
  ASSERT_EQ(received.size(), 2u);
}

TEST(TcpCluster, TimersFireOnReactor) {
  TcpCluster cluster(1);
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.start();
  std::atomic<int> fired{0};
  cluster.run_on(1, [&] {
    cluster.env(1).set_timer(milliseconds(10), [&] { ++fired; });
    const auto id = cluster.env(1).set_timer(milliseconds(10),
                                             [&] { fired += 100; });
    cluster.env(1).cancel_timer(id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(fired.load(), 1);
}

TEST(TcpCluster, SelfSendLoopsBack) {
  TcpCluster cluster(2);
  std::atomic<bool> got{false};
  cluster.env(1).set_receive([&](ProcessId from, BytesView) {
    if (from == 1) got = true;
  });
  cluster.env(2).set_receive([](ProcessId, BytesView) {});
  cluster.start();
  cluster.run_on(1, [&] { cluster.env(1).send(1, bytes_of("me")); });
  for (int i = 0; i < 100 && !got; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(got.load());
}

// --------------------------------------- multicast + backpressure path

namespace {

/// Payload for ordered-stream tests: u32 LE sequence number + filler.
Bytes seq_payload(std::uint32_t seq, std::size_t size) {
  Bytes out(std::max<std::size_t>(size, 4),
            static_cast<std::uint8_t>(seq * 31 + 7));
  out[0] = static_cast<std::uint8_t>(seq);
  out[1] = static_cast<std::uint8_t>(seq >> 8);
  out[2] = static_cast<std::uint8_t>(seq >> 16);
  out[3] = static_cast<std::uint8_t>(seq >> 24);
  return out;
}

std::uint32_t seq_of(BytesView msg) {
  return static_cast<std::uint32_t>(msg[0]) |
         (static_cast<std::uint32_t>(msg[1]) << 8) |
         (static_cast<std::uint32_t>(msg[2]) << 16) |
         (static_cast<std::uint32_t>(msg[3]) << 24);
}

/// True iff the filler bytes match what seq_payload produced.
bool seq_payload_intact(BytesView msg) {
  const std::uint8_t fill =
      static_cast<std::uint8_t>(seq_of(msg) * 31 + 7);
  for (std::size_t i = 4; i < msg.size(); ++i) {
    if (msg[i] != fill) return false;
  }
  return true;
}

/// Polls until `done()` or ~5 s.
template <typename Fn>
void wait_for(Fn done) {
  for (int i = 0; i < 1000 && !done(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

}  // namespace

TEST(TcpCluster, MulticastReachesAllOthersExactlyOnce) {
  TcpCluster cluster(3);
  std::mutex mu;
  std::vector<std::pair<ProcessId, std::uint32_t>> at2, at3;
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId from, BytesView msg) {
    const std::scoped_lock lock(mu);
    at2.emplace_back(from, seq_of(msg));
  });
  cluster.env(3).set_receive([&](ProcessId from, BytesView msg) {
    const std::scoped_lock lock(mu);
    at3.emplace_back(from, seq_of(msg));
  });
  cluster.start();

  constexpr std::uint32_t kFrames = 20;
  const std::uint64_t msgs_before = cluster.counters().messages_sent;
  cluster.run_on(1, [&] {
    for (std::uint32_t i = 0; i < kFrames; ++i)
      cluster.env(1).multicast(Payload::wrap(seq_payload(i, 16)));
  });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return at2.size() >= kFrames && at3.size() >= kFrames;
  });

  const std::scoped_lock lock(mu);
  ASSERT_EQ(at2.size(), kFrames);
  ASSERT_EQ(at3.size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(at2[i], (std::pair<ProcessId, std::uint32_t>{1, i}));
    EXPECT_EQ(at3[i], (std::pair<ProcessId, std::uint32_t>{1, i}));
  }
  // Per-destination accounting: one accepted send per peer, like the
  // old loop of point-to-point sends.
  EXPECT_EQ(cluster.counters().messages_sent, msgs_before + 2 * kFrames);
}

TEST(TcpCluster, BackpressureLargeFramesNoLossNoReorder) {
  // 48 frames x 256 KiB enqueued in one reactor callback vastly exceed
  // the socket buffers: the writev flush must park partial frames on
  // EAGAIN and resume on POLLOUT without losing, reordering, or
  // corrupting anything.
  constexpr std::uint32_t kFrames = 48;
  constexpr std::size_t kFrameSize = 256 * 1024;
  TcpCluster cluster(2);
  std::mutex mu;
  std::vector<std::uint32_t> seqs;
  bool all_intact = true;
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    ASSERT_EQ(msg.size(), kFrameSize);
    seqs.push_back(seq_of(msg));
    all_intact = all_intact && seq_payload_intact(msg);
  });
  cluster.start();

  cluster.run_on(1, [&] {
    for (std::uint32_t i = 0; i < kFrames; ++i)
      cluster.env(1).send(2, seq_payload(i, kFrameSize));
  });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return seqs.size() >= kFrames;
  });

  const std::scoped_lock lock(mu);
  ASSERT_EQ(seqs.size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) EXPECT_EQ(seqs[i], i);
  EXPECT_TRUE(all_intact);
  EXPECT_GT(cluster.counters().writev_calls, 0u);
}

TEST(TcpCluster, PausedReaderStallsNothingAndLosesNothing) {
  // The receiver's reactor sleeps while the sender pumps 16 MiB into
  // it: the kernel buffers fill, the sender queues the overflow, and
  // once the reader resumes every frame arrives in order exactly once.
  constexpr std::uint32_t kFrames = 512;
  constexpr std::size_t kFrameSize = 32 * 1024;
  TcpCluster cluster(2);
  std::mutex mu;
  std::vector<std::uint32_t> seqs;
  bool all_intact = true;
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    seqs.push_back(seq_of(msg));
    all_intact = all_intact && seq_payload_intact(msg);
  });
  cluster.start();

  cluster.post(2, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  cluster.run_on(1, [&] {
    for (std::uint32_t i = 0; i < kFrames; ++i)
      cluster.env(1).send(2, seq_payload(i, kFrameSize));
  });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return seqs.size() >= kFrames;
  });

  const std::scoped_lock lock(mu);
  ASSERT_EQ(seqs.size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) EXPECT_EQ(seqs[i], i);
  EXPECT_TRUE(all_intact);
}

TEST(TcpCluster, MulticastToCrashedPeerDropsSilently) {
  // Reliable-channel-until-crash: frames for a dead peer are dropped
  // without stalling delivery to the live ones.
  TcpCluster cluster(3);
  std::mutex mu;
  std::vector<std::uint32_t> at2;
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    at2.push_back(seq_of(msg));
  });
  cluster.env(3).set_receive([](ProcessId, BytesView) {});
  cluster.start();
  cluster.kill(3);

  constexpr std::uint32_t kFrames = 50;
  cluster.run_on(1, [&] {
    for (std::uint32_t i = 0; i < kFrames; ++i)
      cluster.env(1).multicast(Payload::wrap(seq_payload(i, 64 * 1024)));
  });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return at2.size() >= kFrames;
  });

  const std::scoped_lock lock(mu);
  ASSERT_EQ(at2.size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) EXPECT_EQ(at2[i], i);
}

TEST(TcpCluster, CrossThreadSendTakesTheWakePath) {
  // Env::send is thread-safe from any thread; a non-reactor sender must
  // go through the mutex + wake-pipe route (observable via the wakeups
  // counter) and still deliver.
  TcpCluster cluster(2);
  std::atomic<int> got{0};
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId, BytesView) { ++got; });
  cluster.start();

  const std::uint64_t wakeups_before = cluster.counters().wakeups;
  cluster.env(1).send(2, bytes_of("from the test thread"));  // not run_on
  wait_for([&] { return got.load() >= 1; });
  EXPECT_EQ(got.load(), 1);
  EXPECT_GT(cluster.counters().wakeups, wakeups_before);
}

// ------------------------------------- hostile-wire hardening cases

TEST(TcpCluster, ByteAtATimePartialFrameDeliveryOnTheWire) {
  // Dribbles two encoded frames onto the real mesh socket one byte per
  // segment (TCP_NODELAY, paced writes): the receiver's read loop sees
  // partial frames — the 4-byte length header itself split across
  // reads — and must reassemble both messages exactly once, intact.
  TcpCluster cluster(2);
  std::mutex mu;
  std::vector<std::pair<ProcessId, Bytes>> received;  // at p2
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId from, BytesView msg) {
    const std::scoped_lock lock(mu);
    received.emplace_back(from, to_bytes(msg));
  });
  cluster.start();

  Bytes wire;
  encode_frame(bytes_of("split header"), wire);
  encode_frame(bytes_of("and split payload"), wire);
  for (const std::uint8_t b : wire) {
    cluster.write_raw_for_test(1, 2, Bytes{b});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return received.size() >= 2;
  });
  {
    const std::scoped_lock lock(mu);
    ASSERT_EQ(received.size(), 2u);
    EXPECT_EQ(received[0].first, 1u);
    EXPECT_TRUE(bytes_equal(received[0].second, bytes_of("split header")));
    EXPECT_EQ(received[1].first, 1u);
    EXPECT_TRUE(
        bytes_equal(received[1].second, bytes_of("and split payload")));
  }

  // The ordinary framed send path still works on the same connection:
  // the decoder is back at a frame boundary.
  cluster.run_on(1, [&] { cluster.env(1).send(2, bytes_of("framed")); });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return received.size() >= 3;
  });
  const std::scoped_lock lock(mu);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_TRUE(bytes_equal(received[2].second, bytes_of("framed")));
}

TEST(TcpSocket, DuplicateConnectTearsDownCleanly) {
  // A dialer that retries produces a second connection to the same
  // listener. The accept side keeps the first and drops the duplicate:
  // the duplicate's dialer must observe a clean EOF while the kept
  // connection keeps carrying frames, and a double close of the
  // duplicate is a no-op.
  auto [listener, port] = listen_loopback();
  Fd first = connect_loopback(port);
  Fd first_accepted = accept_one(listener);
  Fd dup = connect_loopback(port);  // the duplicate connect
  Fd dup_accepted = accept_one(listener);
  make_nonblocking_nodelay(first);
  make_nonblocking_nodelay(first_accepted);

  dup_accepted.reset();  // server policy: tear down the duplicate

  // The duplicate's dialer sees EOF (blocking read returns 0 once the
  // FIN arrives), not an error, and double-reset is harmless.
  std::uint8_t buf[4096];
  EXPECT_EQ(::read(dup.get(), buf, sizeof buf), 0);
  dup.reset();
  EXPECT_FALSE(dup.valid());
  dup.reset();  // duplicate teardown: idempotent

  // The kept connection still passes framed traffic.
  Bytes wire;
  encode_frame(bytes_of("still alive"), wire);
  ASSERT_EQ(::send(first.get(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  FrameDecoder dec;
  std::vector<Bytes> frames;
  for (int i = 0; i < 1000 && frames.empty(); ++i) {
    const ssize_t got = ::read(first_accepted.get(), buf, sizeof buf);
    if (got > 0) {
      ASSERT_TRUE(dec.feed(BytesView(buf, static_cast<std::size_t>(got)),
                           [&](BytesView f) {
                             frames.push_back(to_bytes(f));
                           }));
    } else {
      ASSERT_TRUE(got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(bytes_equal(frames[0], bytes_of("still alive")));
}

TEST(TcpCluster, LinkTeardownIsIdempotentAndIsolated) {
  // Resetting one mesh link (twice — duplicate teardown) must look like
  // a crash on that link only: sends across it drop silently, every
  // other link keeps delivering, and shutdown stays clean.
  TcpCluster cluster(3);
  std::mutex mu;
  std::vector<std::pair<ProcessId, Bytes>> at2;
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId from, BytesView msg) {
    const std::scoped_lock lock(mu);
    at2.emplace_back(from, to_bytes(msg));
  });
  cluster.env(3).set_receive([](ProcessId, BytesView) {});
  cluster.start();

  cluster.close_link_for_test(1, 2);
  cluster.close_link_for_test(1, 2);  // duplicate teardown: no-op

  cluster.run_on(1, [&] {
    cluster.env(1).send(2, bytes_of("into the void"));  // dropped
    cluster.env(1).send(3, bytes_of("via live link"));
  });
  cluster.run_on(3, [&] { cluster.env(3).send(2, bytes_of("unaffected")); });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return !at2.empty();
  });
  // Give the dropped frame a moment to (not) arrive as well.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const std::scoped_lock lock(mu);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0].first, 3u);
  EXPECT_TRUE(bytes_equal(at2[0].second, bytes_of("unaffected")));
}

// --------------------------------------- link faults at the writev boundary

TEST(TcpFaults, DelayedLinkDoesNotStallUnrelatedPeers) {
  // A 200ms delay program on the 1->2 link only. The reactor parks the
  // delayed frames in its held queue instead of blocking, so 1->3
  // traffic enqueued in the same callback arrives at loopback speed
  // while 2 is still waiting.
  TcpCluster cluster(3);
  FaultPlan plan;
  FaultEvent delay;
  delay.kind = FaultKind::kDelay;
  delay.from = 0;
  delay.until = seconds(10);
  delay.src = 1;
  delay.dst = 2;
  delay.extra = milliseconds(200);
  plan.events.push_back(delay);
  cluster.set_fault_plan(plan);

  std::mutex mu;
  std::vector<std::uint32_t> at2, at3;
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    at2.push_back(seq_of(msg));
  });
  cluster.env(3).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    at3.push_back(seq_of(msg));
  });
  cluster.start();

  constexpr std::uint32_t kFrames = 5;
  cluster.run_on(1, [&] {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      cluster.env(1).send(2, seq_payload(i, 16));
      cluster.env(1).send(3, seq_payload(i, 16));
    }
  });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return at3.size() >= kFrames;
  });
  {
    // 3 has everything while 2's frames are still parked: the delayed
    // link never stalled the unrelated one.
    const std::scoped_lock lock(mu);
    ASSERT_EQ(at3.size(), kFrames);
    EXPECT_TRUE(at2.empty())
        << "frames crossed the delayed link faster than the program allows";
  }
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return at2.size() >= kFrames;
  });
  const std::scoped_lock lock(mu);
  ASSERT_EQ(at2.size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) EXPECT_EQ(at2[i], i);
  EXPECT_EQ(cluster.counters().delayed_fault, kFrames);
}

TEST(TcpFaults, DropProgramDiscardsAndCounts) {
  // prob-1.0 drop on 1->2: nothing crosses that link, the control link
  // 1->3 is untouched, and every discard is accounted.
  TcpCluster cluster(3);
  FaultPlan plan;
  FaultEvent drop;
  drop.kind = FaultKind::kDrop;
  drop.from = 0;
  drop.until = seconds(10);
  drop.src = 1;
  drop.dst = 2;
  drop.prob = 1.0;
  plan.events.push_back(drop);
  cluster.set_fault_plan(plan);

  std::mutex mu;
  std::vector<std::uint32_t> at2, at3;
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    at2.push_back(seq_of(msg));
  });
  cluster.env(3).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    at3.push_back(seq_of(msg));
  });
  cluster.start();

  constexpr std::uint32_t kFrames = 5;
  cluster.run_on(1, [&] {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      cluster.env(1).send(2, seq_payload(i, 16));
      cluster.env(1).send(3, seq_payload(i, 16));
    }
  });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return at3.size() >= kFrames;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const std::scoped_lock lock(mu);
  ASSERT_EQ(at3.size(), kFrames);
  EXPECT_TRUE(at2.empty()) << "a dropped frame crossed the link";
  EXPECT_EQ(cluster.counters().dropped_fault, kFrames);
}

TEST(TcpFaults, DuplicateProgramDeliversTwiceAndCounts) {
  // prob-1.0 duplication on 1->2: every frame arrives exactly twice,
  // back-to-back, and the copies are counted at the fault stage.
  TcpCluster cluster(2);
  FaultPlan plan;
  FaultEvent dup;
  dup.kind = FaultKind::kDuplicate;
  dup.from = 0;
  dup.until = seconds(10);
  dup.prob = 1.0;
  plan.events.push_back(dup);
  cluster.set_fault_plan(plan);

  std::mutex mu;
  std::vector<std::uint32_t> at2;
  cluster.env(1).set_receive([](ProcessId, BytesView) {});
  cluster.env(2).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    at2.push_back(seq_of(msg));
  });
  cluster.start();

  constexpr std::uint32_t kFrames = 4;
  cluster.run_on(1, [&] {
    for (std::uint32_t i = 0; i < kFrames; ++i)
      cluster.env(1).send(2, seq_payload(i, 16));
  });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return at2.size() >= 2 * kFrames;
  });

  const std::scoped_lock lock(mu);
  ASSERT_EQ(at2.size(), 2 * kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(at2[2 * i], i);
    EXPECT_EQ(at2[2 * i + 1], i);
  }
  EXPECT_EQ(cluster.counters().duplicated_fault, kFrames);
}

// --------------------------------- simultaneous-dial tie-break regression

TEST(TcpHandshake, SimultaneousDialsConvergeOnLowerRanksConnection) {
  // Both ranks dial each other in lockstep before either reactor runs —
  // the classic simultaneous-redial shape. Each listener then accepts
  // the other's connection while its own dialed one is already
  // installed. The accept-side tie-break must converge both ends onto
  // the lower rank's dialed connection (rank 2 accepts rank 1's, rank 1
  // refuses rank 2's) with no assertion and no torn-down mesh, and
  // traffic must flow both ways afterwards.
  TcpProcess a(1, 2, 11);
  TcpProcess b(2, 2, 11);
  const std::uint16_t port_a = a.bind_listener();
  const std::uint16_t port_b = b.bind_listener();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ASSERT_TRUE(a.dial(2, [&] { return std::optional(port_b); }, deadline));
  ASSERT_TRUE(b.dial(1, [&] { return std::optional(port_a); }, deadline));

  std::mutex mu;
  std::vector<std::uint32_t> at1, at2;
  a.env(1).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    at1.push_back(seq_of(msg));
  });
  b.env(2).set_receive([&](ProcessId, BytesView msg) {
    const std::scoped_lock lock(mu);
    at2.push_back(seq_of(msg));
  });
  a.start();
  b.start();

  // Let both reactors process the crossing accepts (the tie-break) so
  // post-convergence traffic rides the surviving connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  constexpr std::uint32_t kFrames = 8;
  a.run_on(1, [&] {
    for (std::uint32_t i = 0; i < kFrames; ++i)
      a.env(1).send(2, seq_payload(i, 16));
  });
  b.run_on(2, [&] {
    for (std::uint32_t i = 0; i < kFrames; ++i)
      b.env(2).send(1, seq_payload(i, 16));
  });
  wait_for([&] {
    const std::scoped_lock lock(mu);
    return at1.size() >= kFrames && at2.size() >= kFrames;
  });

  const std::scoped_lock lock(mu);
  ASSERT_EQ(at1.size(), kFrames);
  ASSERT_EQ(at2.size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(at1[i], i);
    EXPECT_EQ(at2[i], i);
  }
}

// ------------------------------------------- full stack over real TCP

TEST(TcpAbcast, TotalOrderOnRealSockets) {
  constexpr std::uint32_t kN = 3;
  constexpr int kPerProcess = 25;

  abcast::StackConfig config;  // indirect CT + RB-flood
  config.heartbeat.interval = milliseconds(20);
  config.heartbeat.initial_timeout = milliseconds(200);

  ibc::Cluster cluster(ibc::ClusterOptions{}
                           .with_n(kN)
                           .with_seed(5)
                           .with_stack(config)
                           .on_tcp());

  for (int i = 0; i < kPerProcess; ++i) {
    for (ProcessId p = 1; p <= kN; ++p) {
      cluster.node(p).abroadcast("tcp-" + std::to_string(p) + "-" +
                                 std::to_string(i));
    }
    cluster.run_for(milliseconds(2));
  }

  // Wait for every process to deliver everything (bounded).
  const std::size_t expected = kN * kPerProcess;
  for (int i = 0; i < 2000; ++i) {
    bool all = true;
    for (ProcessId p = 1; p <= kN; ++p)
      all &= cluster.log(p).size() >= expected;
    if (all) break;
    cluster.run_for(milliseconds(5));
  }
  cluster.shutdown();

  std::vector<std::vector<ibc::Cluster::Delivery>> logs;
  logs.emplace_back();  // 1-based
  for (ProcessId p = 1; p <= kN; ++p) logs.push_back(cluster.log(p));
  for (ProcessId p = 1; p <= kN; ++p)
    ASSERT_EQ(logs[p].size(), expected) << "p" << p;
  // Uniform total order: identical logs.
  EXPECT_TRUE(cluster.prefix_consistent());
  const ibc::ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.total_deliveries, expected * kN);
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_GT(stats.wire_bytes_sent, 0u);
  EXPECT_GT(stats.consensus_rounds, 0u);
}

// The PR's acceptance case: a healing partition programmed onto real
// sockets. Process 1 is cut from {2,3} for a 350ms window starting
// 50ms into the run — crossing frames (heartbeats, RB floods, consensus
// votes, whatever the stack emits) park at each sender's writev
// boundary and are released when the cut heals, the buffering reading
// of a partition (TCP retransmits once the cable is back). The majority
// side keeps ordering throughout; after the heal the full ladder must
// come out on every process exactly once.
TEST(TcpAbcast, PartitionThenHealDeliversLadderExactlyOnce) {
  constexpr std::uint32_t kN = 3;
  constexpr int kPerProcess = 10;

  abcast::StackConfig config;  // indirect CT + RB-flood
  config.heartbeat.interval = milliseconds(20);
  config.heartbeat.initial_timeout = milliseconds(200);

  FaultPlan plan;
  FaultEvent cut;
  cut.kind = FaultKind::kPartition;
  cut.from = milliseconds(50);
  cut.until = milliseconds(400);
  cut.group = 1u << 0;  // process 1 alone on side A
  plan.events.push_back(cut);

  ibc::Cluster cluster(ibc::ClusterOptions{}
                           .with_n(kN)
                           .with_seed(7)
                           .with_stack(config)
                           .with_faults(plan)
                           .on_tcp());

  // Spread the sends across the partition window so broadcasts from the
  // cut-off process genuinely queue behind the fault stage.
  for (int i = 0; i < kPerProcess; ++i) {
    for (ProcessId p = 1; p <= kN; ++p) {
      cluster.node(p).abroadcast("cut-" + std::to_string(p) + "-" +
                                 std::to_string(i));
    }
    cluster.run_for(milliseconds(20));
  }

  const std::size_t expected = kN * kPerProcess;
  for (int i = 0; i < 4000; ++i) {
    bool all = true;
    for (ProcessId p = 1; p <= kN; ++p)
      all &= cluster.log(p).size() >= expected;
    if (all) break;
    cluster.run_for(milliseconds(5));
  }
  cluster.shutdown();

  for (ProcessId p = 1; p <= kN; ++p)
    ASSERT_EQ(cluster.log(p).size(), expected)
        << "p" << p << " never recovered the full ladder after the heal";
  EXPECT_TRUE(cluster.prefix_consistent());
  const ibc::ClusterStats stats = cluster.stats();
  // Exactly-once across the board...
  EXPECT_EQ(stats.total_deliveries, expected * kN);
  // ...and the adversary really intervened: held frames are accounted
  // as delayed at the fault stage.
  EXPECT_GT(stats.delayed_fault, 0u);
}

}  // namespace
}  // namespace ibc::net::tcp
