// Micro-benchmarks (google-benchmark): costs of the hot building blocks —
// serialization, id-set operations, dedup tables, the rcv check, raw
// simulator event throughput, the per-event cost of Payload-carrying
// events and of the simulated network alone, and the wall-clock cost of
// simulating a full atomic broadcast. These measure the *implementation*,
// complementing the figure benches which measure the *modeled system*.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "abcast/abcast_msgs.hpp"
#include "core/id_set.hpp"
#include "core/ordering.hpp"
#include "net/simnet.hpp"
#include "net/tcp/framing.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/id_runs.hpp"
#include "util/payload.hpp"
#include "util/rng.hpp"
#include "workload/experiment.hpp"

namespace {

using namespace ibc;

void BM_WriterReaderRoundtrip(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const Bytes payload(payload_size, 0x5A);
  for (auto _ : state) {
    Writer w(payload.size() + 32);
    w.u8(7);
    w.u64(123456789);
    w.message_id(MessageId{3, 42});
    w.blob(payload);
    Bytes wire = w.take();
    Reader r(wire);
    benchmark::DoNotOptimize(r.u8());
    benchmark::DoNotOptimize(r.u64());
    benchmark::DoNotOptimize(r.message_id());
    benchmark::DoNotOptimize(r.blob_view());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size));
}
BENCHMARK(BM_WriterReaderRoundtrip)->Arg(16)->Arg(256)->Arg(4096);

void BM_IdSetInsertSerialize(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    core::IdSet s;
    for (std::uint64_t i = 0; i < count; ++i)
      s.insert(MessageId{static_cast<ProcessId>(1 + i % 5), i});
    benchmark::DoNotOptimize(s.to_value());
  }
}
BENCHMARK(BM_IdSetInsertSerialize)->Arg(4)->Arg(64)->Arg(1024);

void BM_RcvCheck(benchmark::State& state) {
  // The real (C++) cost of Algorithm 1's rcv over a populated received
  // set — nanoseconds per id, which is why the simulated runs charge the
  // modeled Java-era cost instead.
  const auto count = static_cast<std::uint64_t>(state.range(0));
  core::OrderingCore ordering({
      .start_instance = [](consensus::InstanceId, const core::IdSet&) {},
      .adeliver = [](const MessageId&, BytesView) {},
  });
  core::IdSet query;
  const Bytes payload(16, 1);
  for (std::uint64_t i = 0; i < count; ++i) {
    const MessageId id{static_cast<ProcessId>(1 + i % 5), i};
    ordering.on_rdeliver(id, payload);
    query.insert(id);
  }
  for (auto _ : state) benchmark::DoNotOptimize(ordering.rcv(query));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_RcvCheck)->Arg(4)->Arg(64)->Arg(1024);

// The consensus-on-messages proposal cycle: insert a few fresh messages,
// emit the canonical serialized backlog, then erase the decided ones.
// BM_MsgSetEncodeRebuild is what AbcastMsgs::serialize_unordered used to
// do — re-serialize the whole sorted map on every proposal, O(backlog
// bytes). BM_MsgSetEncodeIncremental is the MsgSetEncoder path that
// replaced it: the canonical bytes are maintained across mutations, so
// a proposal is O(1) and only the mutations pay. The gap grows with the
// standing backlog (state.range(0)) — exactly when the kMsgs stack is
// under pressure.
constexpr std::size_t kEncoderPayload = 64;
constexpr int kEncoderChurn = 4;  // msgs inserted + erased per proposal

void BM_MsgSetEncodeRebuild(benchmark::State& state) {
  const auto backlog = static_cast<std::uint64_t>(state.range(0));
  const Bytes payload(kEncoderPayload, 0x3C);
  std::map<MessageId, Bytes> msgs;
  for (std::uint64_t i = 0; i < backlog; ++i)
    msgs.emplace(MessageId{static_cast<ProcessId>(1 + i % 5), i}, payload);
  std::uint64_t next = backlog;
  for (auto _ : state) {
    for (int i = 0; i < kEncoderChurn; ++i)
      msgs.emplace(MessageId{static_cast<ProcessId>(1 + next % 5), next},
                   payload),
          ++next;
    Writer w;
    w.u32(static_cast<std::uint32_t>(msgs.size()));
    for (const auto& [id, p] : msgs) {
      w.message_id(id);
      w.blob(p);
    }
    benchmark::DoNotOptimize(w.take());
    for (int i = 0; i < kEncoderChurn; ++i)
      msgs.erase(MessageId{
          static_cast<ProcessId>(1 + (next - 1 - i) % 5), next - 1 - i});
  }
}
BENCHMARK(BM_MsgSetEncodeRebuild)->Arg(16)->Arg(256)->Arg(4096);

void BM_MsgSetEncodeIncremental(benchmark::State& state) {
  const auto backlog = static_cast<std::uint64_t>(state.range(0));
  const Bytes payload(kEncoderPayload, 0x3C);
  abcast::MsgSetEncoder encoder;
  for (std::uint64_t i = 0; i < backlog; ++i)
    encoder.insert(MessageId{static_cast<ProcessId>(1 + i % 5), i},
                   payload);
  std::uint64_t next = backlog;
  for (auto _ : state) {
    for (int i = 0; i < kEncoderChurn; ++i)
      encoder.insert(
          MessageId{static_cast<ProcessId>(1 + next % 5), next}, payload),
          ++next;
    benchmark::DoNotOptimize(to_bytes(encoder.value()));
    for (int i = 0; i < kEncoderChurn; ++i)
      encoder.erase(MessageId{
          static_cast<ProcessId>(1 + (next - 1 - i) % 5), next - 1 - i});
  }
}
BENCHMARK(BM_MsgSetEncodeIncremental)->Arg(16)->Arg(256)->Arg(4096);

// TCP framing round-trip: encode_frame + FrameDecoder::feed — the
// per-frame boundary cost of the wire path at both ends.
void BM_FrameCodecRoundtrip(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const Bytes payload(payload_size, 0x5A);
  net::tcp::FrameDecoder dec;
  Bytes wire;
  for (auto _ : state) {
    wire.clear();
    net::tcp::encode_frame(payload, wire);
    std::size_t frames = 0;
    dec.feed(wire, [&frames](BytesView) { ++frames; });
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size));
}
BENCHMARK(BM_FrameCodecRoundtrip)->Arg(16)->Arg(256)->Arg(4096);

// Decode in isolation: a read() typically hands the decoder a chunk
// holding many frames, so the receive-side cost per frame is boundary
// scanning + one callback, amortized over the chunk. Encoding happens
// once outside the loop; the iteration replays the same wire chunk, the
// shape reactor_loop sees on a busy connection.
constexpr std::size_t kDecodeFramesPerChunk = 32;

void BM_FrameCodecDecode(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const Bytes payload(payload_size, 0x5A);
  Bytes wire;
  for (std::size_t i = 0; i < kDecodeFramesPerChunk; ++i)
    net::tcp::encode_frame(payload, wire);
  net::tcp::FrameDecoder dec;
  for (auto _ : state) {
    std::size_t frames = 0;
    dec.feed(wire, [&frames](BytesView) { ++frames; });
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(payload_size * kDecodeFramesPerChunk));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kDecodeFramesPerChunk));
}
BENCHMARK(BM_FrameCodecDecode)->Arg(16)->Arg(256)->Arg(4096);

// Same decode work arriving fragmented: the chunk is fed in fixed-size
// slices that straddle frame boundaries, forcing the decoder's partial-
// frame reassembly path. The delta vs BM_FrameCodecDecode is the price
// of short reads (small payloads under load rarely hit this; large
// frames always do).
void BM_FrameCodecDecodeFragmented(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const Bytes payload(payload_size, 0x5A);
  Bytes wire;
  for (std::size_t i = 0; i < kDecodeFramesPerChunk; ++i)
    net::tcp::encode_frame(payload, wire);
  const std::size_t slice = payload_size / 2 + 3;  // straddles boundaries
  net::tcp::FrameDecoder dec;
  for (auto _ : state) {
    std::size_t frames = 0;
    for (std::size_t off = 0; off < wire.size(); off += slice) {
      const std::size_t len = std::min(slice, wire.size() - off);
      dec.feed(BytesView(wire.data() + off, len),
               [&frames](BytesView) { ++frames; });
    }
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(payload_size * kDecodeFramesPerChunk));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kDecodeFramesPerChunk));
}
BENCHMARK(BM_FrameCodecDecodeFragmented)->Arg(16)->Arg(256)->Arg(4096);

// Multicast fan-out: the sender-side cost of disseminating one frame to
// n-1 peers. CopyPerPeer is the old send path — re-encode the layer
// envelope per destination and memcpy the framed bytes into that peer's
// flat output buffer. SharedPayload is the writev path that replaced
// it: encode the envelope once into a ref-counted Payload, then queue a
// (4-byte header, payload reference) pair per peer — the payload bytes
// are never touched again. The gap grows with payload size and fan-out.
constexpr std::size_t kFanoutPeers = 4;  // n = 5

void BM_MulticastFanoutCopyPerPeer(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const Bytes payload(payload_size, 0x3C);
  std::array<Bytes, kFanoutPeers> outbufs;
  for (auto _ : state) {
    for (Bytes& outbuf : outbufs) {
      Writer w(payload.size() + 2);
      w.u16(5);  // layer envelope, re-encoded per destination
      w.raw(payload);
      const Bytes wire = w.take();
      outbuf.clear();
      net::tcp::encode_frame(wire, outbuf);
      benchmark::DoNotOptimize(outbuf.data());
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(payload_size * kFanoutPeers));
}
BENCHMARK(BM_MulticastFanoutCopyPerPeer)->Arg(32)->Arg(1024)->Arg(16384);

void BM_MulticastFanoutSharedPayload(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const Bytes payload(payload_size, 0x3C);
  struct OutFrame {
    std::array<std::uint8_t, 4> header;
    Payload payload;
  };
  std::array<std::deque<OutFrame>, kFanoutPeers> outqs;
  for (auto _ : state) {
    Writer w(payload.size() + 2);
    w.u16(5);  // layer envelope, encoded exactly once
    w.raw(payload);
    const Payload frame = Payload::wrap(w.take());
    for (auto& outq : outqs) {
      outq.clear();
      outq.push_back(OutFrame{
          net::tcp::frame_header(static_cast<std::uint32_t>(frame.size())),
          frame});
      benchmark::DoNotOptimize(outq.back().payload.data());
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(payload_size * kFanoutPeers));
}
BENCHMARK(BM_MulticastFanoutSharedPayload)->Arg(32)->Arg(1024)->Arg(16384);

// Dedup tables: 1M ids from 3 origins, each inserted and then looked up
// (2 ops per id). Arg 0 feeds every origin's ids in sequence order; arg 1
// swaps 1% of them with their successor, the out-of-order arrivals a
// flood or a pipelined window produces. BM_DedupUnorderedSet is the
// one-node-per-id hash set the ordering core and RB flooding used to
// keep; BM_DedupIdRuns is the per-origin run map that replaced it (its
// memory is O(runs), which the heap figure of perfbench measures).
std::vector<MessageId> dedup_ids(bool out_of_order) {
  constexpr std::size_t kIds = 1'000'000;
  constexpr ProcessId kOrigins = 3;
  std::vector<MessageId> ids;
  ids.reserve(kIds);
  for (std::size_t i = 0; i < kIds; ++i) {
    ids.push_back(MessageId{static_cast<ProcessId>(1 + i % kOrigins),
                            1 + i / kOrigins});
  }
  if (out_of_order) {
    Rng rng(7);
    for (std::size_t i = 0; i + kOrigins < kIds; ++i) {
      if (rng.next_below(100) == 0) std::swap(ids[i], ids[i + kOrigins]);
    }
  }
  return ids;
}

/// Reports time per operation (`ops` per iteration) as `ns_per_op`.
void report_ns_per_op(benchmark::State& state, std::size_t ops) {
  state.counters["ns_per_op"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsIterationInvariantRate |
                                    benchmark::Counter::kInvert);
}

void BM_DedupUnorderedSet(benchmark::State& state) {
  const std::vector<MessageId> ids = dedup_ids(state.range(0) != 0);
  for (auto _ : state) {
    std::unordered_set<MessageId> seen;
    for (const MessageId& id : ids) {
      benchmark::DoNotOptimize(seen.insert(id).second);
      benchmark::DoNotOptimize(seen.contains(id));
    }
  }
  report_ns_per_op(state, 2 * ids.size());
}
BENCHMARK(BM_DedupUnorderedSet)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_DedupIdRuns(benchmark::State& state) {
  const std::vector<MessageId> ids = dedup_ids(state.range(0) != 0);
  for (auto _ : state) {
    IdRuns seen;
    for (const MessageId& id : ids) {
      benchmark::DoNotOptimize(seen.insert(id));
      benchmark::DoNotOptimize(seen.contains(id));
    }
    state.counters["runs"] = static_cast<double>(seen.size());
  }
  report_ns_per_op(state, 2 * ids.size());
}
BENCHMARK(BM_DedupIdRuns)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i)
      sched.schedule_after(i, [] {});
    benchmark::DoNotOptimize(sched.run_all());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerThroughput);

// BM_SchedulerThroughput's capture-free lambdas fit std::function's
// small buffer, so it never saw what a callback's storage costs. Here
// each event captures what a SimNetwork task does: a Payload and three
// ids. Per iteration three events are scheduled, one of them cancelled,
// and two fire, so about 64 stay pending throughout.
void BM_SchedulerPayloadEvents(benchmark::State& state) {
  sim::Scheduler sched;
  const Payload payload = Payload::wrap(Bytes(40, 7));
  std::uint64_t sink = 0;
  std::uint64_t next = 0;
  const auto schedule_one = [&] {
    const auto src = static_cast<ProcessId>(1 + next % 3);
    const auto dst = static_cast<ProcessId>(1 + (next + 1) % 3);
    const std::uint64_t incarnation = next;
    const Duration delay = 1 + static_cast<Duration>((next * 7) % 64);
    ++next;
    return sched.schedule_after(
        delay, [&sink, src, dst, incarnation, msg = payload] {
          sink += src + dst + incarnation + msg.size();
        });
  };
  for (int i = 0; i < 64; ++i) schedule_one();
  for (auto _ : state) {
    schedule_one();
    sched.cancel(schedule_one());
    schedule_one();
    sched.step();
    sched.step();
  }
  benchmark::DoNotOptimize(sink);
  report_ns_per_op(state, 3);  // per scheduled event
}
BENCHMARK(BM_SchedulerPayloadEvents);

// The simulated network alone: 3 Setup-1 nodes, each sending 40 B to the
// next in turn, one message per 200 µs of simulated time (each CPU is a
// fifth busy). Every message runs the full pipeline: sender CPU, NIC,
// wire, receiver CPU.
void BM_SimNetworkPipeline(benchmark::State& state) {
  sim::Scheduler sched;
  net::SimNetwork net(sched, 3, net::NetModel::setup1(), Rng(1));
  std::uint64_t delivered = 0;
  net.set_deliver([&delivered](ProcessId, ProcessId, BytesView msg) {
    delivered += msg.size();
  });
  const Payload msg = Payload::wrap(Bytes(40, 7));
  std::uint64_t sent = 0;
  const std::uint64_t events_before = sched.events_executed();
  for (auto _ : state) {
    const auto src = static_cast<ProcessId>(1 + sent % 3);
    net.send(src, static_cast<ProcessId>(1 + src % 3), msg);
    ++sent;
    sched.run_until(sched.now() + microseconds(200));
  }
  benchmark::DoNotOptimize(delivered);
  const auto events =
      static_cast<double>(sched.events_executed() - events_before);
  report_ns_per_op(state, 1);  // per message
  state.counters["ns_per_event"] = benchmark::Counter(
      events, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["events_per_msg"] =
      events / static_cast<double>(std::max<std::uint64_t>(sent, 1));
}
BENCHMARK(BM_SimNetworkPipeline);

void BM_SimulatedAbcast(benchmark::State& state) {
  // Wall-clock cost of simulating one second of a 3-process Setup-1
  // cluster at 100 abcasts/s — the unit of work behind every figure
  // point.
  for (auto _ : state) {
    workload::ExperimentConfig cfg;
    cfg.cluster.stack.rcv_check_cost_per_id =
        cfg.cluster.model.rcv_check_cost_per_id;
    cfg.payload_bytes = 64;
    cfg.throughput_msgs_per_sec = 100;
    cfg.warmup = 0;
    cfg.measure = seconds(1);
    cfg.drain = milliseconds(500);
    benchmark::DoNotOptimize(workload::run_experiment(cfg));
  }
}
BENCHMARK(BM_SimulatedAbcast)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
