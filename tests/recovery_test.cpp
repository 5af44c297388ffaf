// End-to-end crash-recovery tests: a process crashes under sustained
// load, restarts against its durable store, replays snapshot + log,
// catches the gap up from its peers, and rejoins — with its delivery log
// a prefix-consistent, exactly-once continuation. Runs the same
// scenarios on the simulator and on loopback TCP (the Neko property
// extends to recovery), plus journal-level edge cases: torn final
// record, empty log, snapshot + tail, double restart.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "consensus/ct.hpp"
#include "harness.hpp"
#include "recovery/recovery.hpp"
#include "runtime/cluster.hpp"
#include "store/storage.hpp"
#include "store/wal.hpp"

namespace ibc {
namespace {

/// A mkdtemp scratch directory for filesystem-backed (kFs) stores,
/// removed on scope exit so repeated runs cannot see stale journals.
struct TmpStoreDir {
  TmpStoreDir() {
    std::string tmpl = "/tmp/ibc-recovery.XXXXXX";
    const char* got = ::mkdtemp(tmpl.data());
    if (got != nullptr) path = got;
  }
  ~TmpStoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

abcast::StackConfig recovery_stack() {
  abcast::StackConfig config;  // indirect CT + RB-flood over heartbeat FD
  config.heartbeat.interval = milliseconds(20);
  config.heartbeat.initial_timeout = milliseconds(200);
  return config;
}

std::vector<MessageId> ids_of(const std::vector<Cluster::Delivery>& log) {
  std::vector<MessageId> ids;
  ids.reserve(log.size());
  for (const Cluster::Delivery& d : log) ids.push_back(d.id);
  return ids;
}

/// Broadcasts `rounds` rounds from every live process with small pauses,
/// so load spans the crash and the restart.
void drive_load(Cluster& cluster, int rounds, Duration pause) {
  for (int i = 0; i < rounds; ++i) {
    for (ProcessId p = 1; p <= cluster.n(); ++p) {
      if (!cluster.host().crashed(p)) {
        cluster.node(p).abroadcast("m-" + std::to_string(p) + "-" +
                                   std::to_string(i));
      }
    }
    cluster.run_for(pause);
  }
}

/// The recovered process must end with exactly the same delivery
/// sequence as an always-up peer: every pre-crash delivery exactly once,
/// the downtime gap filled by catch-up, post-restart deliveries in
/// order.
void expect_full_recovery(Cluster& cluster, ProcessId restarted) {
  EXPECT_TRUE(cluster.prefix_consistent());
  const std::vector<MessageId> recovered = ids_of(cluster.log(restarted));
  const std::vector<MessageId> reference = ids_of(cluster.log(1));
  EXPECT_GT(reference.size(), 0u);
  EXPECT_EQ(recovered, reference);
  const std::set<MessageId> unique(recovered.begin(), recovered.end());
  EXPECT_EQ(unique.size(), recovered.size()) << "duplicate delivery";
}

TEST(Recovery, SimRestartRejoinsExactlyOnce) {
  SCOPED_TRACE(test::repro_hint(11));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(11)
                      .with_stack(recovery_stack())
                      .with_recovery()
                      .with_crash(milliseconds(120), 3)
                      .with_restart(milliseconds(320), 3));
  drive_load(cluster, /*rounds=*/60, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(400), seconds(30));

  expect_full_recovery(cluster, 3);
  const ClusterStats stats = cluster.stats();
  EXPECT_GT(stats.log_appends, 0u);
  EXPECT_GT(stats.log_bytes, 0u);
  EXPECT_GT(stats.fsyncs, 0u);
  EXPECT_GT(stats.catchup_ids_fetched, 0u) << "gap not fetched from peers";
}

TEST(Recovery, SimRestartWithSnapshotAndLogTail) {
  recovery::Config rec;
  rec.snapshot_every = 8;  // several snapshots during the run
  SCOPED_TRACE(test::repro_hint(12));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(12)
                      .with_stack(recovery_stack())
                      .with_recovery(rec)
                      .with_crash(milliseconds(200), 2)
                      .with_restart(milliseconds(400), 2));
  drive_load(cluster, /*rounds=*/60, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(400), seconds(30));

  expect_full_recovery(cluster, 2);
  EXPECT_GT(cluster.stats().snapshot_count, 0u);
}

TEST(Recovery, SimRestartMidBatchExpandsExactlyOnce) {
  // Batching on: a crash lands between batched deliveries, and the
  // restart must not re-expand any batch (same sequence as a peer ⇒
  // every constituent message exactly once).
  SCOPED_TRACE(test::repro_hint(13));
  abcast::StackConfig stack = recovery_stack();
  stack.batch.max_msgs = 4;
  stack.batch.max_delay = milliseconds(5);
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(13)
                      .with_stack(stack)
                      .with_recovery()
                      .with_crash(milliseconds(150), 3)
                      .with_restart(milliseconds(350), 3));
  // Three messages per live process every 5 ms: one message per 5 ms
  // against a 5 ms max_delay would make every batch a batch of one.
  std::uint64_t p3_batches = 0;
  std::uint64_t p3_msgs = 0;
  for (int i = 0; i < 80; ++i) {
    drive_load(cluster, /*rounds=*/3, /*pause=*/0);
    cluster.run_for(milliseconds(5));
    if (!cluster.host().crashed(3) && cluster.now() < milliseconds(150)) {
      const core::OrderingCore* ordering = cluster.node(3).stack().ordering();
      p3_batches = ordering->delivered_count();
      p3_msgs = ordering->msgs_delivered();
    }
  }
  cluster.run_until_quiesced(milliseconds(400), seconds(30));
  expect_full_recovery(cluster, 3);
  const core::OrderingCore* reference = cluster.node(1).stack().ordering();
  EXPECT_LT(reference->delivered_count(), reference->msgs_delivered())
      << "no batch formed";
  EXPECT_LT(p3_batches, p3_msgs)
      << "p3 delivered no multi-message batch before its crash";
}

TEST(Recovery, SimRestartFromBatchedSnapshotAndLogTailDeliversOnce) {
  // Batching on and a snapshot every 8 entries: the restarted process
  // rebuilds its delivered runs from the newest snapshot plus the log
  // tail, and must deliver no message twice. The restart of p2 adds at
  // most one run (its seq-base jump) to any process's delivered set.
  recovery::Config rec;
  rec.snapshot_every = 8;
  SCOPED_TRACE(test::repro_hint(14));
  abcast::StackConfig stack = recovery_stack();
  stack.batch.max_msgs = 4;
  stack.batch.max_delay = milliseconds(5);
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(14)
                      .with_stack(stack)
                      .with_recovery(rec)
                      .with_crash(milliseconds(200), 2)
                      .with_restart(milliseconds(400), 2));
  // Three messages per live process every 5 ms, so batches form.
  for (int i = 0; i < 120; ++i) {
    drive_load(cluster, /*rounds=*/3, /*pause=*/0);
    cluster.run_for(milliseconds(5));
  }
  cluster.run_until_quiesced(milliseconds(400), seconds(30));

  expect_full_recovery(cluster, 2);
  EXPECT_GT(cluster.stats().snapshot_count, 0u);
  const core::OrderingCore* reference = cluster.node(1).stack().ordering();
  for (ProcessId p = 1; p <= 3; ++p) {
    const core::OrderingCore* ordering = cluster.node(p).stack().ordering();
    EXPECT_EQ(ordering->delivered_count(), reference->delivered_count())
        << "p" << p;
    EXPECT_EQ(ordering->msgs_delivered(), reference->msgs_delivered())
        << "p" << p;
    EXPECT_LE(ordering->delivered_set().size(), 3u + 1u) << "p" << p;
  }
  EXPECT_LT(reference->delivered_count(), reference->msgs_delivered())
      << "no batch formed";
  // The restored dedup state covers every message p2 delivered, before
  // the crash (snapshot + log tail) and after it.
  const IdRuns& restored = cluster.node(2).stack().ordering()->delivered_set();
  std::size_t missing = 0;
  for (const Cluster::Delivery& d : cluster.log(2)) {
    if (!restored.contains(d.id)) ++missing;
  }
  EXPECT_EQ(missing, 0u);
}

TEST(Recovery, SimRestartRejoinsRingDissemination) {
  // Ring dissemination (docs/PROTOCOL.md D7): the restarted process must
  // re-enter the forwarding chain — holders retry unconfirmed frames
  // until the fresh incarnation accepts and relays them, and new
  // post-restart broadcasts route through it again. Same exactly-once
  // oracle as the flooding variants.
  SCOPED_TRACE(test::repro_hint(16));
  abcast::StackConfig stack = recovery_stack();
  stack.rb = abcast::RbKind::kRing;
  Cluster cluster(ClusterOptions{}
                      .with_n(4)
                      .with_seed(16)
                      .with_stack(stack)
                      .with_recovery()
                      .with_crash(milliseconds(150), 3)
                      .with_restart(milliseconds(350), 3));
  drive_load(cluster, /*rounds=*/60, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(400), seconds(30));
  expect_full_recovery(cluster, 3);
  // Frames flowed through the ring (not flood): cluster-wide payload
  // sends stay well under flooding's ~n(n-1) per frame even with the
  // crash-window retries (the 25ms sweep re-sends undone frames until
  // the restarted incarnation picks them up).
  const ClusterStats stats = cluster.stats();
  ASSERT_GT(stats.rb_frames, 0u);
  const double frames = static_cast<double>(stats.rb_frames) / 4.0;
  const double sends_per_frame =
      static_cast<double>(stats.rb_wire_sends) / frames;
  EXPECT_LT(sends_per_frame, 8.0)
      << "ring dissemination should stay far below flooding's n(n-1)=12 "
         "payload sends per frame";
}

TEST(Recovery, SimRestartWithEmptyLogIsFirstBootPlusCatchup) {
  // Crash before the victim journals anything: recovery finds an empty
  // store and the whole history arrives via catch-up.
  SCOPED_TRACE(test::repro_hint(14));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(14)
                      .with_stack(recovery_stack())
                      .with_recovery()
                      .with_crash(milliseconds(1), 3)
                      .with_restart(milliseconds(300), 3));
  drive_load(cluster, /*rounds=*/40, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(400), seconds(30));
  expect_full_recovery(cluster, 3);
}

TEST(Recovery, PoolReFloodRevivesIdsFloodedDuringDowntime) {
  // The silent-round-1-coordinator wedge (docs/TESTING.md "known
  // liveness trap"): coord_of is round-based, so one process (p2 for
  // n=3) is every instance's round-1 coordinator. Ids flooded while p2
  // is down die at its dead socket and are never re-relayed; if p2
  // restarts before the failure detector suspects it, the survivors
  // propose those ids in instances whose round-1 coordinator — p2,
  // alive, pool empty — never proposes, never acts, and is never
  // suspected: zero traffic forever. The catch-up pool re-flood
  // (ReqPool/RespPool) must hand the restarted incarnation the
  // survivors' undecided pool so it proposes and coordinates.
  SCOPED_TRACE(test::repro_hint(21));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(21)
                      .with_stack(recovery_stack())
                      .with_recovery()
                      .with_crash(milliseconds(100), 2)
                      .with_restart(milliseconds(140), 2));
  // Pre-crash load, then two broadcasts inside the 40ms downtime window
  // — far shorter than the 200ms suspicion timeout, so p2 is never
  // suspected and round 1 never times out.
  drive_load(cluster, /*rounds=*/5, milliseconds(10));
  cluster.run_for(milliseconds(60));  // ~110ms: p2 is down
  cluster.node(1).abroadcast("flooded-while-down");
  cluster.node(3).abroadcast("also-flooded-while-down");
  cluster.run_until_quiesced(milliseconds(400), seconds(30));

  expect_full_recovery(cluster, 2);
  // Identical logs are not enough — a cluster-wide wedge loses the
  // downtime broadcasts from *every* log. Assert they were delivered.
  std::set<std::string> texts;
  for (const Cluster::Delivery& d : cluster.log(2)) {
    texts.insert(std::string(
        reinterpret_cast<const char*>(d.payload.data()), d.payload.size()));
  }
  EXPECT_TRUE(texts.contains("flooded-while-down"));
  EXPECT_TRUE(texts.contains("also-flooded-while-down"));
}

TEST(Recovery, SimDoubleRestart) {
  SCOPED_TRACE(test::repro_hint(15));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(15)
                      .with_stack(recovery_stack())
                      .with_recovery()
                      .with_crash(milliseconds(120), 3)
                      .with_restart(milliseconds(280), 3)
                      .with_crash(milliseconds(450), 3)
                      .with_restart(milliseconds(600), 3));
  drive_load(cluster, /*rounds=*/80, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(400), seconds(30));
  expect_full_recovery(cluster, 3);
}

TEST(Recovery, RestartedProcessReportsItsPrefixSoEveryTableShrinksBack) {
  // The restarted round-1 coordinator p2 applies most instances from its
  // log and from catch-up, never through its consensus engine. Those
  // count towards the decided prefix it reports (PROTOCOL.md D9): without
  // that, its prefix stays below the gap, the stable point freezes, and
  // every process keeps every later instance.
  constexpr std::uint32_t kWindow = 4;
  abcast::StackConfig stack = recovery_stack();
  stack.pipeline_depth = kWindow;
  SCOPED_TRACE(test::repro_hint(19));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(19)
                      .with_stack(stack)
                      .with_recovery()
                      .with_crash(milliseconds(120), 2)
                      .with_restart(milliseconds(320), 2));
  drive_load(cluster, /*rounds=*/80, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(400), seconds(30));

  expect_full_recovery(cluster, 2);
  EXPECT_GT(cluster.stats().catchup_ids_fetched, 0u);
  EXPECT_GT(cluster.stats().instances_completed, 40u);
  for (ProcessId p = 1; p <= 3; ++p) {
    const auto& engine = dynamic_cast<const consensus::CtConsensus&>(
        cluster.node(p).stack().consensus());
    EXPECT_LE(engine.instances_held(), kWindow + 2) << "p" << p;
  }
}

TEST(Recovery, RestartOfLiveProcessIsNoOp) {
  // Schedule minimizers drop crashes independently of restarts; a
  // restart without a preceding crash must be harmless.
  SCOPED_TRACE(test::repro_hint(16));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(16)
                      .with_stack(recovery_stack())
                      .with_recovery()
                      .with_restart(milliseconds(50), 2));
  drive_load(cluster, /*rounds=*/20, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(300), seconds(30));
  EXPECT_TRUE(cluster.prefix_consistent());
  EXPECT_EQ(ids_of(cluster.log(2)), ids_of(cluster.log(1)));
}

TEST(Recovery, SimReplayIsDeterministic) {
  const auto run_once = [] {
    SCOPED_TRACE(test::repro_hint(17));
    Cluster cluster(ClusterOptions{}
                        .with_n(3)
                        .with_seed(17)
                        .with_stack(recovery_stack())
                        .with_recovery()
                        .with_crash(milliseconds(120), 3)
                        .with_restart(milliseconds(300), 3));
    drive_load(cluster, /*rounds=*/40, milliseconds(10));
    cluster.run_until_quiesced(milliseconds(400), seconds(30));
    std::vector<std::vector<MessageId>> logs;
    for (ProcessId p = 1; p <= 3; ++p) logs.push_back(ids_of(cluster.log(p)));
    return logs;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Recovery, TornFinalRecordReplaysToLastGoodRecordAndRotates) {
  // Journal a little history through a RecoveryManager, tear the final
  // log record, and recover: replay must stop cleanly at the last good
  // record and the new incarnation must rotate before appending (bytes
  // after a tear are unreachable garbage).
  store::MemDir dir;
  recovery::Config config;
  const MessageId id1{1, 1};
  const MessageId id2{2, 1};
  {
    recovery::RecoveryManager journal(dir, config);
    journal.on_open_instance(1);
    journal.on_decision_applied(1, {id1});
    journal.on_deliver_batch(id1, {Payload::copy_of(BytesView{})});
    journal.commit_deliveries();
    journal.on_open_instance(2);
    journal.on_decision_applied(2, {id2});  // logged, never synced
  }
  // Tear: chop the un-synced tail mid-record (what a crash between
  // append and fsync leaves on a weaker medium is modeled by truncating
  // to the watermark, which this store keeps at record granularity — so
  // instead plant a short garbage frame after the good prefix).
  dir.drop_unsynced();
  dir.append(store::SegmentLog::segment_name(1),
             BytesView(Bytes{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}));
  dir.sync(store::SegmentLog::segment_name(1));

  recovery::RecoveryManager recovered(dir, config);
  const core::OrderingCore::Restored& core = recovered.recovered().core;
  EXPECT_EQ(core.applied_k, 1u);
  // kOpen is synced before a propose leaves, so instance 2's open
  // survived the crash even though the decision record after it did not.
  EXPECT_EQ(core.opened_k, 2u);
  ASSERT_EQ(core.delivered.size(), 1u);
  EXPECT_EQ(core.delivered.begin()->first, id1);
  EXPECT_EQ(core.delivered.begin()->second, id1.seq + 1);
  EXPECT_TRUE(core.ordered.empty());

  // Appends after the tear go to a fresh segment and replay cleanly.
  recovered.on_open_instance(3);
  recovery::RecoveryManager third(dir, config);
  EXPECT_EQ(third.recovered().core.opened_k, 3u);
}

TEST(Recovery, FsBackedRestartRejoinsExactlyOnce) {
  // Same scenario as SimRestartRejoinsExactlyOnce, but the journal lives
  // in a real directory (FsDir): the restart replays bytes that went
  // through open/write/fsync, not a MemDir's vectors.
  SCOPED_TRACE(test::repro_hint(31));
  TmpStoreDir tmp;
  ASSERT_FALSE(tmp.path.empty()) << "mkdtemp failed";
  recovery::Config rec;
  rec.medium = recovery::Config::Medium::kFs;
  rec.fs_path = tmp.path;
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(31)
                      .with_stack(recovery_stack())
                      .with_recovery(rec)
                      .with_crash(milliseconds(120), 3)
                      .with_restart(milliseconds(320), 3));
  drive_load(cluster, /*rounds=*/60, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(400), seconds(30));

  expect_full_recovery(cluster, 3);
  EXPECT_GT(cluster.stats().fsyncs, 0u);
  // The journal really hit the filesystem.
  EXPECT_FALSE(std::filesystem::is_empty(tmp.path + "/p3"));
}

TEST(Recovery, FsBackedDoubleRestartWithSnapshots) {
  SCOPED_TRACE(test::repro_hint(32));
  TmpStoreDir tmp;
  ASSERT_FALSE(tmp.path.empty()) << "mkdtemp failed";
  recovery::Config rec;
  rec.medium = recovery::Config::Medium::kFs;
  rec.fs_path = tmp.path;
  rec.snapshot_every = 8;
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(32)
                      .with_stack(recovery_stack())
                      .with_recovery(rec)
                      .with_crash(milliseconds(120), 3)
                      .with_restart(milliseconds(280), 3)
                      .with_crash(milliseconds(450), 3)
                      .with_restart(milliseconds(600), 3));
  drive_load(cluster, /*rounds=*/80, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(400), seconds(30));
  expect_full_recovery(cluster, 3);
  EXPECT_GT(cluster.stats().snapshot_count, 0u);
}

TEST(Recovery, ConcurrentRestartsCatchUpTogether) {
  // Two of n=5 crash back-to-back and restart with overlapping catch-up
  // windows. The three never-crashed processes keep a live majority, so
  // consensus continues throughout; both returners must fill their gaps
  // even though each one's catch-up requests race the other's (a peer
  // may be asked for history while itself still catching up — it serves
  // only what it has decided, so progress relies on the stable
  // majority). This directed case pins down behavior the randomized
  // fuzzer rarely hits: restart windows that overlap almost exactly.
  SCOPED_TRACE(test::repro_hint(33));
  Cluster cluster(ClusterOptions{}
                      .with_n(5)
                      .with_seed(33)
                      .with_stack(recovery_stack())
                      .with_recovery()
                      .with_crash(milliseconds(120), 4)
                      .with_crash(milliseconds(130), 5)
                      .with_restart(milliseconds(300), 4)
                      .with_restart(milliseconds(310), 5));
  drive_load(cluster, /*rounds=*/60, milliseconds(10));
  cluster.run_until_quiesced(milliseconds(400), seconds(30));

  expect_full_recovery(cluster, 4);
  expect_full_recovery(cluster, 5);
  EXPECT_GT(cluster.stats().catchup_ids_fetched, 0u);
}

TEST(Recovery, RestartedCoordinatorReleasesItsAckersOnBothHosts) {
  // Every ack reaches the round-1 coordinator p2 30 ms late, so p1 and
  // p3 spend most of each instance acked and waiting for p2's decision
  // (CT's kDecision wait, docs/PROTOCOL.md D8). p2 crashes amid that
  // and restarts 50 ms later, well inside the 200 ms FD timeout: no
  // suspicion ever releases the waiters. The new incarnation's abstain
  // announcement must, or ordering stops at the instance p2 held.
  for (const runtime::HostKind host :
       {runtime::HostKind::kSim, runtime::HostKind::kTcp}) {
    SCOPED_TRACE(host == runtime::HostKind::kSim ? "sim" : "tcp");
    SCOPED_TRACE(test::repro_hint(17));
    ClusterOptions options = ClusterOptions{}
                                 .with_n(3)
                                 .with_seed(17)
                                 .with_host(host)
                                 .with_stack(recovery_stack())
                                 .with_recovery();
    for (const ProcessId acker : {1u, 3u}) {
      net::FaultEvent slow_ack;
      slow_ack.kind = net::FaultKind::kDelay;
      slow_ack.until = seconds(60);
      slow_ack.src = acker;
      slow_ack.dst = 2;
      slow_ack.extra = milliseconds(30);
      options.with_fault(slow_ack);
    }
    Cluster cluster(options);
    drive_load(cluster, /*rounds=*/10, milliseconds(10));
    cluster.crash(2);
    cluster.run_for(milliseconds(50));
    cluster.restart(2);
    drive_load(cluster, /*rounds=*/10, milliseconds(10));
    cluster.run_until_quiesced(milliseconds(500), seconds(30));

    expect_full_recovery(cluster, 2);
    const std::vector<MessageId> reference = ids_of(cluster.log(1));
    EXPECT_EQ(ids_of(cluster.log(3)), reference);
    // 60 broadcasts in all; a wedge at the restart stops near 30.
    EXPECT_GE(reference.size(), 50u) << "ordering stopped at the restart";
  }
}

TEST(Recovery, RestartedMrCoordinatorReleasesItsWaitersOnBothHosts) {
  // The same restart on the indirect MR stack (n=4: Algorithm 3 needs
  // f < n/3). Every send of p2, the round-1 coordinator, takes 30 ms
  // longer, so its phase-1 values of the instances it opened last are
  // still in transit when it crashes. The TCP host loses them with the
  // dead incarnation's sockets; the simulator would still deliver what
  // had left the NIC, so there a drop window over p2's last 30 ms of
  // sends loses them the same way. p1, p3 and p4 then wait on p2 in
  // phase 1; p2 restarts 50 ms later, inside the 200 ms FD timeout, so
  // no suspicion releases them. Only the new incarnation's abstain
  // announcement (p2's floor covers every instance it opened) does.
  constexpr TimePoint kCrash = milliseconds(100);
  for (const runtime::HostKind host :
       {runtime::HostKind::kSim, runtime::HostKind::kTcp}) {
    SCOPED_TRACE(host == runtime::HostKind::kSim ? "sim" : "tcp");
    SCOPED_TRACE(test::repro_hint(17));
    abcast::StackConfig stack = recovery_stack();
    stack.algo = abcast::ConsensusAlgo::kMr;
    ClusterOptions options = ClusterOptions{}
                                 .with_n(4)
                                 .with_seed(17)
                                 .with_host(host)
                                 .with_stack(stack)
                                 .with_recovery();
    net::FaultEvent slow_sends;
    slow_sends.kind = net::FaultKind::kDelay;
    slow_sends.until = seconds(60);
    slow_sends.src = 2;
    slow_sends.extra = milliseconds(30);
    options.with_fault(slow_sends);
    if (host == runtime::HostKind::kSim) {
      net::FaultEvent lost_with_p2;
      lost_with_p2.kind = net::FaultKind::kDrop;
      lost_with_p2.from = kCrash - milliseconds(30);
      lost_with_p2.until = kCrash;
      lost_with_p2.src = 2;
      options.with_fault(lost_with_p2);
    }
    Cluster cluster(options);
    drive_load(cluster, /*rounds=*/10, milliseconds(10));
    if (host == runtime::HostKind::kSim) {
      ASSERT_EQ(cluster.now(), kCrash);
    }
    cluster.crash(2);
    cluster.run_for(milliseconds(50));
    cluster.restart(2);
    drive_load(cluster, /*rounds=*/10, milliseconds(10));
    cluster.run_until_quiesced(milliseconds(500), seconds(30));

    expect_full_recovery(cluster, 2);
    const std::vector<MessageId> reference = ids_of(cluster.log(1));
    for (const ProcessId p : {3u, 4u})
      EXPECT_EQ(ids_of(cluster.log(p)), reference) << "p" << p;
    // 80 broadcasts in all; a wedge at the restart stops near 40.
    EXPECT_GE(reference.size(), 70u) << "ordering stopped at the restart";
  }
}

TEST(Recovery, TcpRestartRejoinsExactlyOnce) {
  SCOPED_TRACE(test::repro_hint(21));
  Cluster cluster(ClusterOptions{}
                      .with_n(3)
                      .with_seed(21)
                      .on_tcp()
                      .with_stack(recovery_stack())
                      .with_recovery());
  drive_load(cluster, /*rounds=*/20, milliseconds(2));
  cluster.crash(3);
  drive_load(cluster, /*rounds=*/20, milliseconds(2));
  cluster.restart(3);
  drive_load(cluster, /*rounds=*/20, milliseconds(2));
  cluster.run_until_quiesced(milliseconds(500), seconds(30));

  expect_full_recovery(cluster, 3);
  const ClusterStats stats = cluster.stats();
  EXPECT_GT(stats.log_appends, 0u);
  EXPECT_GT(stats.catchup_ids_fetched, 0u);
}

TEST(Recovery, TcpConcurrentRestartsReconnectToEachOther) {
  // p2 and p3 crash together and restart at the same host time. Each
  // restart used to redial only the ranks that were alive at that
  // instant, so two ranks restarting at once skipped each other and
  // never reconnected: each one's failure detector suspected the other
  // for good. Both now publish a fresh port and dial every published
  // peer, so at least one of the two reaches the other.
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(test::repro_hint(seed));
    // Declared before the cluster: p2's probe handler reads them until
    // the cluster's reactors are joined.
    const Bytes probe = bytes_of("p3-to-p2 probe");
    std::atomic<bool> arrived{false};
    Cluster cluster(ClusterOptions{}
                        .with_n(5)
                        .with_seed(seed)
                        .on_tcp()
                        .with_stack(recovery_stack())
                        .with_recovery()
                        .with_crash(milliseconds(100), 2)
                        .with_crash(milliseconds(100), 3)
                        .with_restart(milliseconds(400), 2)
                        .with_restart(milliseconds(400), 3));
    runtime::Host& host = cluster.host();
    while (host.now() < milliseconds(1900)) cluster.run_for(milliseconds(20));
    ASSERT_FALSE(host.crashed(2));
    ASSERT_FALSE(host.crashed(3));

    bool suspects_3 = true;
    bool suspects_2 = true;
    host.run_on(2, [&] {
      suspects_3 = cluster.node(2).stack().failure_detector().is_suspected(3);
    });
    host.run_on(3, [&] {
      suspects_2 = cluster.node(3).stack().failure_detector().is_suspected(2);
    });
    EXPECT_FALSE(suspects_3) << "restarted p2 still suspects restarted p3";
    EXPECT_FALSE(suspects_2) << "restarted p3 still suspects restarted p2";

    // A raw point-to-point frame p3 -> p2 must cross the link. p2's
    // stack stops hearing anything from here on; the test ends with it.
    host.run_on(2, [&] {
      cluster.node(2).env().set_receive([&](ProcessId from, BytesView msg) {
        if (from == 3 && bytes_equal(msg, probe))
          arrived = true;
      });
    });
    cluster.node(3).env().send(2, probe);
    for (int i = 0; i < 100 && !arrived; ++i) cluster.run_for(milliseconds(20));
    EXPECT_TRUE(arrived) << "p3's frame never reached p2";
  }
}

}  // namespace
}  // namespace ibc
