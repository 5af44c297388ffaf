// ibcd — one rank of an atomic-broadcast group as a real OS process.
//
// Each instance hosts exactly one `ProcessStack` on a `TcpProcess` and
// meshes with its n-1 peers over real TCP, coordinating through plain
// files in a shared scratch directory (--dir):
//
//   port.<rank>        kernel-assigned listen port (never hard-coded)
//   ready.<rank>       boot barrier entry
//   deliveries.<r>.<i> this rank's delivery log, one line per delivery,
//                      `<origin>:<seq> <payload>`; i counts incarnations
//   stop               created by the driver: quiesce and exit 0
//
// Crash model: kill -9 is the real thing. On relaunch with the same
// --store directory the daemon finds a non-empty store, replays the
// journal, dials every live peer, and runs peer catch-up — the PR 7
// recovery path across a genuinely dead-and-restarted process. The
// daemon deliberately does NOT call Dir::drop_unsynced(): that watermark
// is a test double modeling powerloss; after a SIGKILL the kernel page
// cache still holds written-but-unsynced bytes, and the replay layer's
// CRCs handle any genuinely torn tail record.
//
// Usage (the multiprocess fixture is the canonical driver):
//   ibcd --rank 2 --n 3 --dir /tmp/mp.x --store /tmp/mp.x/store.2
//        --send 30 --interval-ms 2 [--seed 1] [--payload-bytes 16]
//        [--fault-plan /tmp/mp.x/faults.txt]
//
// --fault-plan points at a `net::FaultPlan` text file (one event per
// line, `#` comments allowed — see docs/TESTING.md for the format). The
// plan is armed on this rank's outbound links as it passes the ready
// barrier; window times are relative to that moment, per rank.
//
// Exit codes: 0 clean stop, 2 usage error, 3 timed out waiting (peers,
// barrier, or stop file).

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "abcast/stack_builder.hpp"
#include "net/faults.hpp"
#include "net/tcp/tcp_process.hpp"
#include "recovery/recovery.hpp"
#include "store/storage.hpp"
#include "util/types.hpp"

namespace {

using namespace ibc;
using namespace ibc::net::tcp;

struct Options {
  ProcessId rank = 0;
  std::uint32_t n = 0;
  std::string dir;
  std::string store;
  std::uint64_t seed = 1;
  int send = 0;
  int interval_ms = 2;
  int payload_bytes = 16;
  int hb_interval_ms = 25;
  int hb_timeout_ms = 500;
  int quiesce_ms = 400;
  int timeout_s = 120;
  std::uint32_t pipeline = 8;
  std::string tag;  // embedded in payloads; lets tests tell incarnations apart
  std::string fault_plan;  // path to a FaultPlan text file; empty = clean wire
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --rank R --n N --dir SCRATCH --store STOREDIR\n"
               "          [--seed S] [--send K] [--interval-ms MS]\n"
               "          [--payload-bytes B] [--hb-interval-ms MS]\n"
               "          [--hb-timeout-ms MS] [--quiesce-ms MS]\n"
               "          [--timeout-s S] [--pipeline W] [--tag T]\n"
               "          [--fault-plan FILE]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--rank") opt.rank = static_cast<ProcessId>(std::stoul(val));
    else if (key == "--n") opt.n = static_cast<std::uint32_t>(std::stoul(val));
    else if (key == "--dir") opt.dir = val;
    else if (key == "--store") opt.store = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--send") opt.send = std::stoi(val);
    else if (key == "--interval-ms") opt.interval_ms = std::stoi(val);
    else if (key == "--payload-bytes") opt.payload_bytes = std::stoi(val);
    else if (key == "--hb-interval-ms") opt.hb_interval_ms = std::stoi(val);
    else if (key == "--hb-timeout-ms") opt.hb_timeout_ms = std::stoi(val);
    else if (key == "--quiesce-ms") opt.quiesce_ms = std::stoi(val);
    else if (key == "--timeout-s") opt.timeout_s = std::stoi(val);
    else if (key == "--pipeline")
      opt.pipeline = static_cast<std::uint32_t>(std::stoul(val));
    else if (key == "--tag") opt.tag = val;
    else if (key == "--fault-plan") opt.fault_plan = val;
    else return false;
  }
  return opt.rank >= 1 && opt.n >= 1 && opt.rank <= opt.n &&
         !opt.dir.empty() && !opt.store.empty();
}

/// Opens this incarnation's delivery log: the first free
/// `deliveries.<rank>.<i>` (O_EXCL keeps a relaunch from appending to the
/// dead incarnation's log — the test oracle reads them separately).
int open_delivery_log(const Options& opt) {
  for (int incarnation = 0;; ++incarnation) {
    const std::string path = opt.dir + "/deliveries." +
                             std::to_string(opt.rank) + "." +
                             std::to_string(incarnation);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND,
                          0644);
    if (fd >= 0) return fd;
    if (errno != EEXIST) return -1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage(argv[0]);
  // Echo the exact invocation so a kept scratch dir tells you how to
  // relaunch this rank by hand (under gdb, say).
  std::string cmdline;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) cmdline.push_back(' ');
    cmdline += argv[i];
  }
  std::fprintf(stderr, "ibcd: %s\n", cmdline.c_str());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(opt.timeout_s);

  // Load the adversary program up front: a malformed plan is a usage
  // error, caught before any peer starts waiting on this rank.
  net::FaultPlan fault_plan;
  if (!opt.fault_plan.empty()) {
    std::ifstream in(opt.fault_plan);
    std::stringstream text;
    text << in.rdbuf();
    if (!in.good() && !in.eof()) {
      std::fprintf(stderr, "ibcd: cannot read fault plan %s\n",
                   opt.fault_plan.c_str());
      return 2;
    }
    const auto parsed = net::parse_fault_plan(text.str());
    if (!parsed) {
      std::fprintf(stderr, "ibcd: malformed fault plan %s\n",
                   opt.fault_plan.c_str());
      return 2;
    }
    fault_plan = *parsed;
  }

  TcpProcess host(opt.rank, opt.n, opt.seed);
  const std::uint16_t port = host.bind_listener();
  publish_port(opt.dir, opt.rank, port);

  // A non-empty store means this rank died and was relaunched: recover
  // from the journal, then catch up from peers. No drop_unsynced — see
  // the header comment.
  store::FsDir store(opt.store);
  const bool restarted = !store.list().empty();

  abcast::StackConfig config;
  config.variant = abcast::Variant::kIndirect;
  config.algo = abcast::ConsensusAlgo::kCt;
  config.rb = abcast::RbKind::kFloodN2;
  config.fd = abcast::FdKind::kHeartbeat;
  config.heartbeat.interval = milliseconds(opt.hb_interval_ms);
  config.heartbeat.initial_timeout = milliseconds(opt.hb_timeout_ms);
  config.heartbeat.timeout_increment = milliseconds(opt.hb_timeout_ms / 2);
  config.pipeline_depth = opt.pipeline;

  recovery::Config rec;
  rec.snapshot_every = 64;
  rec.strict_sync = true;
  rec.medium = recovery::Config::Medium::kFs;
  rec.fs_path = opt.store;

  abcast::ProcessStack stack(host, opt.rank, config, &store, rec);

  const int log_fd = open_delivery_log(opt);
  if (log_fd < 0) {
    std::perror("ibcd: delivery log");
    return 2;
  }
  std::atomic<std::uint64_t> delivered{0};
  stack.abcast().subscribe([&](const MessageId& id, const Payload& payload) {
    // One ::write per delivery. The journal has already synced the
    // kDeliver record when this runs, so a SIGKILL can only lose the
    // tail of *observed* lines, never duplicate or reorder them — the
    // fixture's oracle allows exactly that bounded gap.
    std::string line = to_string(id);
    line.push_back(' ');
    line.append(reinterpret_cast<const char*>(payload.data()),
                payload.size());
    line.push_back('\n');
    [[maybe_unused]] const ssize_t wrote =
        ::write(log_fd, line.data(), line.size());
    delivered.fetch_add(1, std::memory_order_relaxed);
  });

  const auto ports = wait_for_ports(opt.dir, opt.n, seconds(30));
  if (ports.empty()) {
    std::fprintf(stderr, "ibcd: rank %u timed out in port discovery\n",
                 opt.rank);
    return 3;
  }

  // Mesh wiring (TcpProcess's rule): first boot dials every lower rank
  // and fails if one stays unreachable. A restarted rank dials ALL peers
  // — its old connections died with the old incarnation — and skips any
  // that stay unreachable (they are dead; catch-up needs only a
  // majority). Port files are re-read on every attempt: after a storm of
  // concurrent relaunches the first reads may name dead listeners.
  for (ProcessId q = 1; q <= (restarted ? opt.n : opt.rank - 1); ++q) {
    if (q == opt.rank) continue;
    const auto dial_deadline =
        restarted ? std::min(deadline, std::chrono::steady_clock::now() +
                                           std::chrono::milliseconds(3000))
                  : deadline;
    const std::optional<int> attempts =
        host.dial(q, [&] { return read_port(opt.dir, q); }, dial_deadline);
    if (attempts) {
      std::fprintf(stderr,
                   "ibcd: rank %u connected to rank %u after %d attempt(s)\n",
                   opt.rank, q, *attempts);
    } else if (restarted) {
      std::fprintf(stderr, "ibcd: rank %u skipping dead rank %u\n",
                   opt.rank, q);
    } else {
      std::fprintf(stderr,
                   "ibcd: rank %u failed to reach rank %u within the "
                   "deadline\n",
                   opt.rank, q);
      return 3;
    }
  }

  host.start();
  host.run_on(opt.rank, [&] {
    stack.start();
    if (restarted) stack.begin_catchup();
  });
  std::fprintf(stderr, "ibcd: rank %u up on port %u%s\n", opt.rank, port,
               restarted ? " (restarted)" : "");

  // Boot barrier: nobody sends until every rank is up, so early frames
  // never race the accept loop. Entries persist, so a relaunched rank
  // passes instantly (its peers are long past the barrier).
  barrier_enter(opt.dir, "ready", opt.rank);
  if (!barrier_await(opt.dir, "ready", opt.n, seconds(30))) {
    std::fprintf(stderr, "ibcd: rank %u timed out at the ready barrier\n",
                 opt.rank);
    return 3;
  }

  // Armed at the barrier, not at boot: every rank's fault windows open
  // at (roughly) the same moment, and the mesh wiring itself is never
  // faulted — the adversary attacks a standing group, as in the paper's
  // model, not the bootstrap.
  if (!fault_plan.empty()) {
    host.arm_fault_plan(fault_plan, host.now());
    std::fprintf(stderr, "ibcd: rank %u armed fault plan (%zu events)\n",
                 opt.rank, fault_plan.events.size());
  }

  for (int i = 1; i <= opt.send; ++i) {
    std::string text = "r" + std::to_string(opt.rank) + "." +
                       (opt.tag.empty() ? "" : opt.tag + ".") + "m" +
                       std::to_string(i);
    if (static_cast<int>(text.size()) < opt.payload_bytes)
      text.resize(static_cast<std::size_t>(opt.payload_bytes), 'x');
    Bytes payload(text.begin(), text.end());
    host.run_on(opt.rank, [&] { stack.abcast().abroadcast(payload); });
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
  }

  while (!file_exists(opt.dir, "stop")) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "ibcd: rank %u timed out waiting for stop\n",
                   opt.rank);
      return 3;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Quiesce: exit only once the delivery log has been stable for
  // quiesce_ms — in-flight ordering drains before the reactor stops.
  std::uint64_t last = delivered.load(std::memory_order_relaxed);
  auto last_change = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() <
         last_change + std::chrono::milliseconds(opt.quiesce_ms)) {
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const std::uint64_t now_count = delivered.load(std::memory_order_relaxed);
    if (now_count != last) {
      last = now_count;
      last_change = std::chrono::steady_clock::now();
    }
  }

  host.shutdown();
  ::close(log_fd);
  std::fprintf(stderr, "ibcd: rank %u clean exit, %llu deliveries\n",
               opt.rank, static_cast<unsigned long long>(last));
  return 0;
}
