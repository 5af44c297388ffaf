// Property suite for sender-side payload batching (docs/PROTOCOL.md D5)
// and the zero-copy payload plumbing underneath it.
//
// The invariants, checked across seeds × batch sizes × windows:
//   * every abroadcast message is A-delivered exactly once per process,
//     with its payload intact (the zero-copy slices must carry the same
//     bytes the owning copies did);
//   * all processes deliver the identical sequence (prefix-consistent
//     and, since every run drains, equal);
//   * on the deterministic zero-jitter network with a single-sender
//     workload, the delivered sequence is the *same for every batch
//     size and window* — the determinism property of the fig8 window
//     sweep, extended to batching. (With several senders, batch and
//     window sizes may regroup ids into different consensus instances
//     and so interleave origins differently — like the window, batching
//     guarantees agreement across processes, not stability of the
//     interleaving across configurations; docs/PROTOCOL.md D5.)
//   * a crash while batches are in flight leaves the survivors
//     prefix-consistent, delivering survivors' messages exactly once.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "abcast/abcast_msgs.hpp"
#include "abcast/batcher.hpp"
#include "harness.hpp"
#include "runtime/cluster.hpp"

namespace ibc {
namespace {

constexpr int kMsgsPerProcess = 8;
constexpr std::uint32_t kN = 3;

std::string payload_text(ProcessId p, int i) {
  return "b-" + std::to_string(p) + "-" + std::to_string(i);
}

/// Burst scenario: every process abroadcasts its whole load up front
/// (so underfull batches must flush on the delay timer), then the
/// cluster drains. Returns p1's delivered id sequence after asserting
/// the per-run invariants.
std::vector<MessageId> run_burst(std::uint64_t seed, std::size_t batch,
                                 std::uint32_t window,
                                 abcast::StackConfig stack = {}) {
  stack.pipeline_depth = window;
  stack.batch.max_msgs = batch;
  stack.batch.max_delay = milliseconds(1);
  Cluster cluster(ClusterOptions{}
                      .with_n(kN)
                      .with_seed(seed)
                      .with_stack(stack)
                      .with_model(net::NetModel::fast_test()));
  std::map<MessageId, std::string> sent;
  for (ProcessId p = 1; p <= kN; ++p) {
    for (int i = 0; i < kMsgsPerProcess; ++i) {
      const MessageId id = cluster.node(p).abroadcast(payload_text(p, i));
      EXPECT_TRUE(sent.emplace(id, payload_text(p, i)).second);
    }
  }
  cluster.run_until_quiesced(/*idle=*/milliseconds(400),
                             /*limit=*/seconds(30));

  const std::string label = "seed=" + std::to_string(seed) +
                            " B=" + std::to_string(batch) +
                            " W=" + std::to_string(window);
  EXPECT_TRUE(cluster.prefix_consistent()) << label;
  const std::vector<Cluster::Delivery> log1 = cluster.log(1);
  for (ProcessId p = 1; p <= kN; ++p) {
    const std::vector<Cluster::Delivery> log = cluster.log(p);
    EXPECT_EQ(log.size(), sent.size()) << label << " p" << p;
    std::map<MessageId, std::string> seen;
    for (std::size_t i = 0; i < log.size(); ++i) {
      // Exactly-once, payload intact, same order as p1.
      const auto& d = log[i];
      EXPECT_TRUE(
          seen.emplace(d.id,
                       std::string(reinterpret_cast<const char*>(
                                       d.payload.data()),
                                   d.payload.size()))
              .second)
          << label << " duplicate delivery at p" << p;
      if (i < log1.size()) {
        EXPECT_EQ(d.id, log1[i].id) << label << " order diverges at p" << p;
      }
    }
    for (const auto& [id, text] : sent) {
      const auto it = seen.find(id);
      if (it == seen.end()) {
        ADD_FAILURE() << label << " p" << p << " missing " << id.origin
                      << ":" << id.seq;
        continue;
      }
      EXPECT_EQ(it->second, text) << label << " payload corrupted";
    }
  }

  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.msgs_batched, sent.size()) << label;
  if (batch == 1) {
    // No batching: one frame per message, bit-for-bit Algorithm 1.
    EXPECT_EQ(stats.batches_sent, sent.size()) << label;
  } else {
    // The burst must actually coalesce.
    EXPECT_LT(stats.batches_sent, sent.size()) << label;
    EXPECT_GT(stats.msgs_per_batch_avg, 1.0) << label;
  }
  EXPECT_GT(stats.payload_bytes_copied, 0u) << label;

  std::vector<MessageId> order;
  order.reserve(log1.size());
  for (const Cluster::Delivery& d : log1) order.push_back(d.id);
  return order;
}

class BatchingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchingSweep, EveryBatchAndWindowDeliversExactlyOnceInAgreement) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE(test::repro_hint(seed));
  std::vector<MessageId> baseline;
  for (const std::uint32_t w : {1u, 4u}) {
    for (const std::size_t b : {std::size_t{1}, std::size_t{4},
                                std::size_t{16}}) {
      const std::vector<MessageId> order = run_burst(seed, b, w);
      // The delivered *set* is configuration-independent even when the
      // interleaving of origins is not.
      std::vector<MessageId> sorted = order;
      std::sort(sorted.begin(), sorted.end());
      if (baseline.empty()) {
        baseline = sorted;
      } else {
        EXPECT_EQ(sorted, baseline)
            << "batching changed the delivered set (seed=" << seed
            << " B=" << b << " W=" << w << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchingSweep,
                         ::testing::Values(1, 7, 13, 2024));

TEST_P(BatchingSweep, SingleSenderSameTotalOrderForEveryBatchAndWindow) {
  // The fig8 determinism property extended to batching: with one sender
  // bursting on the zero-jitter network, every process receives every id
  // before any instance closes, so regrouping cannot reorder anything —
  // every (B, W) must deliver the identical (sequence-ordered) total
  // order for the same seed.
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE(test::repro_hint(seed));
  std::vector<MessageId> baseline;
  for (const std::uint32_t w : {1u, 4u}) {
    for (const std::size_t b : {std::size_t{1}, std::size_t{4},
                                std::size_t{16}}) {
      abcast::StackConfig stack;
      stack.pipeline_depth = w;
      stack.batch.max_msgs = b;
      stack.batch.max_delay = milliseconds(1);
      Cluster cluster(ClusterOptions{}
                          .with_n(kN)
                          .with_seed(seed)
                          .with_stack(stack)
                          .with_model(net::NetModel::fast_test()));
      for (int i = 0; i < 3 * kMsgsPerProcess; ++i)
        cluster.node(1).abroadcast(payload_text(1, i));
      cluster.run_until_quiesced(/*idle=*/milliseconds(400),
                                 /*limit=*/seconds(30));
      ASSERT_TRUE(cluster.prefix_consistent())
          << "seed=" << seed << " B=" << b << " W=" << w;
      std::vector<MessageId> order;
      for (const Cluster::Delivery& d : cluster.log(1))
        order.push_back(d.id);
      ASSERT_EQ(order.size(), static_cast<std::size_t>(3 * kMsgsPerProcess))
          << "seed=" << seed << " B=" << b << " W=" << w;
      if (baseline.empty()) {
        baseline = order;
      } else {
        EXPECT_EQ(order, baseline)
            << "batching changed the single-sender total order (seed="
            << seed << " B=" << b << " W=" << w << ")";
      }
    }
  }
}

TEST(Batching, ConsensusOnMessagesVariantBatchesToo) {
  // The kMsgs stack shares the batch frame format: dissemination
  // coalesces, consensus still carries full messages.
  abcast::StackConfig stack;
  stack.variant = abcast::Variant::kMsgs;
  run_burst(/*seed=*/5, /*batch=*/4, /*window=*/1, stack);
}

TEST(Batching, UniformBroadcastVariantBatchesToo) {
  // Plain consensus on ids over URB (the §4.4 correct alternative).
  abcast::StackConfig stack;
  stack.variant = abcast::Variant::kIdsPlain;
  stack.rb = abcast::RbKind::kUniform;
  run_burst(/*seed=*/5, /*batch=*/4, /*window=*/1, stack);
}

TEST(Batching, CrashMidBatchKeepsSurvivorsPrefixConsistent) {
  // p2 dies while its batch frames (and everyone's open instances) are
  // in flight. The survivors must finish ordering, deliver their own
  // messages exactly once each, and stay prefix-consistent; p2's
  // messages are delivered either everywhere-or-nowhere per batch
  // (atomic frames), never twice.
  abcast::StackConfig stack;
  stack.heartbeat.interval = milliseconds(10);
  stack.heartbeat.initial_timeout = milliseconds(100);
  stack.pipeline_depth = 4;
  stack.batch.max_msgs = 4;
  stack.batch.max_delay = milliseconds(1);
  Cluster cluster(ClusterOptions{}
                      .with_n(kN)
                      .with_seed(23)
                      .with_stack(stack)
                      .with_model(net::NetModel::fast_test())
                      .with_crash(milliseconds(2), 2));
  std::vector<MessageId> survivor_msgs;
  for (int i = 0; i < 6; ++i) {
    survivor_msgs.push_back(
        cluster.node(1).abroadcast("p1-" + std::to_string(i)));
    cluster.node(2).abroadcast("doomed-" + std::to_string(i));
    survivor_msgs.push_back(
        cluster.node(3).abroadcast("p3-" + std::to_string(i)));
  }
  cluster.run_until_quiesced(/*idle=*/milliseconds(800),
                             /*limit=*/seconds(30));

  EXPECT_TRUE(cluster.prefix_consistent());
  const auto log1 = cluster.log(1);
  const auto log3 = cluster.log(3);
  ASSERT_EQ(log1.size(), log3.size());
  for (std::size_t i = 0; i < log1.size(); ++i)
    EXPECT_EQ(log1[i].id, log3[i].id) << "diverges at " << i;
  for (const MessageId& id : survivor_msgs) {
    EXPECT_TRUE(cluster.delivered(1, id)) << id.origin << ":" << id.seq;
    EXPECT_TRUE(cluster.delivered(3, id)) << id.origin << ":" << id.seq;
  }
  std::map<MessageId, int> times;
  for (const auto& d : log1) ++times[d.id];
  for (const auto& [id, count] : times) {
    EXPECT_EQ(count, 1) << "duplicate delivery of " << id.origin << ":"
                        << id.seq;
  }
}

// --------------------------------------------------------- Batcher unit

struct RecordingRb final : bcast::BroadcastService {
  void broadcast(Bytes payload) override {
    frames.push_back(Payload::wrap(std::move(payload)));
  }
  std::vector<Payload> frames;
};

TEST(Batcher, FillsToMaxMsgsAndParsesBackZeroCopy) {
  Cluster cluster(ClusterOptions{}.with_n(1));  // donor Env for timers
  RecordingRb rb;
  abcast::BatchConfig cfg;
  cfg.max_msgs = 3;
  cfg.max_delay = 0;  // size-triggered only
  abcast::Batcher batcher(cluster.env(1), rb, cfg);

  batcher.add({1, 1}, bytes_of("aa"));
  batcher.add({1, 2}, bytes_of("bbb"));
  EXPECT_TRUE(rb.frames.empty());
  EXPECT_EQ(batcher.pending_msgs(), 2u);
  batcher.add({1, 3}, bytes_of("c"));
  ASSERT_EQ(rb.frames.size(), 1u);
  EXPECT_EQ(batcher.pending_msgs(), 0u);
  EXPECT_EQ(batcher.batches_sent(), 1u);
  EXPECT_EQ(batcher.msgs_sent(), 3u);

  const abcast::BatchView view = abcast::parse_batch(rb.frames[0]);
  EXPECT_EQ(view.first, (MessageId{1, 1}));
  ASSERT_EQ(view.payloads.size(), 3u);
  EXPECT_TRUE(bytes_equal(view.payloads[0], bytes_of("aa")));
  EXPECT_TRUE(bytes_equal(view.payloads[1], bytes_of("bbb")));
  EXPECT_TRUE(bytes_equal(view.payloads[2], bytes_of("c")));
  // Zero-copy: the slices share the frame's storage.
  EXPECT_EQ(view.payloads[0].use_count(), rb.frames[0].use_count());
}

TEST(Batcher, MaxBytesTriggersEarlyFlush) {
  Cluster cluster(ClusterOptions{}.with_n(1));
  RecordingRb rb;
  abcast::BatchConfig cfg;
  cfg.max_msgs = 100;
  cfg.max_bytes = 8;
  cfg.max_delay = 0;
  abcast::Batcher batcher(cluster.env(1), rb, cfg);
  batcher.add({2, 1}, Bytes(5, 0xAB));
  EXPECT_TRUE(rb.frames.empty());
  batcher.add({2, 2}, Bytes(5, 0xCD));  // 10 bytes pending >= 8
  EXPECT_EQ(rb.frames.size(), 1u);
  EXPECT_EQ(abcast::parse_batch(rb.frames[0]).payloads.size(), 2u);
}

TEST(Batcher, SizeOneNeverDelaysNorArms) {
  Cluster cluster(ClusterOptions{}.with_n(1));
  RecordingRb rb;
  abcast::Batcher batcher(cluster.env(1), rb, abcast::BatchConfig{});
  batcher.add({3, 1}, bytes_of("x"));
  EXPECT_EQ(rb.frames.size(), 1u);  // flushed inside add, no timer
  const abcast::BatchView view = abcast::parse_batch(rb.frames[0]);
  EXPECT_EQ(view.first, (MessageId{3, 1}));
  ASSERT_EQ(view.payloads.size(), 1u);
}

// --------------------------------------------------- MsgSetEncoder unit

/// Reference implementation: full re-serialization of a sorted map —
/// what AbcastMsgs::serialize_unordered used to do on every proposal.
Bytes reference_encoding(const std::map<MessageId, Bytes>& msgs) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(msgs.size()));
  for (const auto& [id, payload] : msgs) {
    w.message_id(id);
    w.blob(payload);
  }
  return w.take();
}

TEST(MsgSetEncoder, MatchesReferenceUnderRandomChurn) {
  Rng rng(99);
  abcast::MsgSetEncoder encoder;
  std::map<MessageId, Bytes> reference;
  for (int step = 0; step < 500; ++step) {
    const MessageId id{static_cast<ProcessId>(1 + rng.next_below(4)),
                       rng.next_below(60)};
    if (rng.next_bool(0.6)) {
      const Bytes payload(rng.next_below(20), static_cast<std::uint8_t>(id.seq));
      const bool inserted = encoder.insert(id, payload);
      EXPECT_EQ(inserted, reference.emplace(id, payload).second);
    } else {
      encoder.erase(id);
      reference.erase(id);
    }
    EXPECT_EQ(encoder.size(), reference.size());
    EXPECT_EQ(encoder.contains(id), reference.contains(id));
    ASSERT_TRUE(bytes_equal(encoder.value(), reference_encoding(reference)))
        << "diverged at step " << step;
  }
}

TEST(MsgSetEncoder, EmptyEncodesAsZeroCount) {
  abcast::MsgSetEncoder encoder;
  EXPECT_TRUE(encoder.empty());
  EXPECT_TRUE(bytes_equal(encoder.value(), reference_encoding({})));
  encoder.insert({1, 1}, bytes_of("x"));
  encoder.erase({1, 1});
  EXPECT_TRUE(bytes_equal(encoder.value(), reference_encoding({})));
}

}  // namespace
}  // namespace ibc
