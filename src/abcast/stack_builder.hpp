// Assembly of complete per-process protocol stacks.
//
// A `ProcessStack` owns one process's full protocol suite — failure
// detector, broadcast layer, (indirect) consensus, atomic broadcast —
// wired onto a runtime::Env. `StackConfig` selects the exact stack the
// paper's experiments compare:
//
//   variant   kIndirect   Algorithm 1 + indirect consensus  (the paper)
//             kMsgs       consensus on full messages        (Fig. 1)
//             kIdsPlain   plain consensus on ids:
//                           with rb = kUniform  -> correct   (Figs. 5-7)
//                           with rb = flood/fd  -> FAULTY    (Figs. 3-4, §2.2)
//   algo      kCt / kMr   which ♦S engine drives the ordering
//   rb        kFloodN2 / kFdBasedN / kUniform / kRing (successor-only
//             dissemination, O(n) wire messages, 1 send per node per
//             frame — docs/PROTOCOL.md D7)
//   fd        kHeartbeat (runs anywhere) / kPerfect (simulation oracle)
//
// kIndirect and kIdsPlain build the same Algorithm 1 (core::AbcastIds)
// over the same CT or MR engine; they differ only in the engine's
// configuration: the indirect decision points of core/indirect.hpp, or
// the original algorithm's defaults. kMsgs is abcast::AbcastMsgs.
#pragma once

#include <memory>
#include <string>

#include "abcast/abcast_msgs.hpp"
#include "abcast/batcher.hpp"
#include "bcast/rb_fd.hpp"
#include "bcast/rb_flood.hpp"
#include "bcast/rb_ring.hpp"
#include "bcast/urb.hpp"
#include "consensus/ct.hpp"
#include "consensus/mr.hpp"
#include "core/abcast_ids.hpp"
#include "core/indirect.hpp"
#include "fd/heartbeat_fd.hpp"
#include "fd/perfect_fd.hpp"
#include "net/simnet.hpp"
#include "recovery/catchup.hpp"
#include "recovery/recovery.hpp"
#include "runtime/host.hpp"
#include "runtime/stack.hpp"
#include "store/storage.hpp"

namespace ibc::abcast {

enum class Variant { kIndirect, kMsgs, kIdsPlain };
enum class ConsensusAlgo { kCt, kMr };
enum class RbKind { kFloodN2, kFdBasedN, kUniform, kRing };
enum class FdKind { kHeartbeat, kPerfect };

struct StackConfig {
  Variant variant = Variant::kIndirect;
  ConsensusAlgo algo = ConsensusAlgo::kCt;
  RbKind rb = RbKind::kFloodN2;
  FdKind fd = FdKind::kHeartbeat;
  fd::HeartbeatConfig heartbeat = {};
  /// Suspicion delay of the oracle detector (kPerfect only).
  Duration perfect_fd_delay = milliseconds(5);
  /// Simulated CPU charged per id on every rcv evaluation of indirect
  /// consensus (kIndirect only; 0 = free). Sweeps copy it from
  /// `NetModel::rcv_check_cost_per_id`.
  Duration rcv_check_cost_per_id = 0;
  /// How many consensus instances the id-ordering core keeps in flight
  /// (W). 1 = the paper's sequential Algorithm 1; larger windows
  /// pipeline ordering for throughput (kIndirect and kIdsPlain; kMsgs
  /// has no id-ordering queue and ignores it). See docs/PROTOCOL.md for
  /// the safety argument.
  std::uint32_t pipeline_depth = 1;
  /// Sender-side payload batching (`max_msgs` / `max_bytes` /
  /// `max_delay`). The default `max_msgs = 1` disables batching — every
  /// abroadcast is one R-broadcast frame, the paper's Algorithm 1. See
  /// docs/PROTOCOL.md D5.
  BatchConfig batch = {};
  /// Deliberate protocol defects, used only by the scenario fuzzer's
  /// self-test to prove its invariant oracle and shrinker catch real
  /// bugs. Never set these in production configurations.
  struct InjectedBugs {
    /// Disable OrderingCore's apply-time dedup (see
    /// `OrderingCore::set_skip_dedup_for_test`): at W > 1, overlapping
    /// decisions double-order an id and permanently block the head.
    bool skip_ordering_dedup = false;
  };
  InjectedBugs bugs = {};
};

/// One-line human description, e.g. "indirect-CT + RB(n^2)" or
/// "plain-CT-on-ids + RB(n) [FAULTY]". Used in bench table headers.
std::string describe(const StackConfig& config);

/// True iff the configuration implements atomic broadcast correctly
/// (kIdsPlain over non-uniform broadcast is the §2.2 faulty stack).
bool is_correct_stack(const StackConfig& config);

class ProcessStack {
 public:
  /// Builds process `p`'s stack on `host.env(p)`. FdKind::kPerfect
  /// additionally requires the host to expose a simulated network (the
  /// crash oracle lives there); a precondition failure fires otherwise.
  ///
  /// Construction sites live in `src/runtime/` (the `ibc::Cluster`
  /// facade) — scenario code should wire clusters through `ibc::Cluster`
  /// rather than building stacks by hand.
  ///
  /// `durable`, if non-null, enables the crash-recovery subsystem
  /// (kIndirect only): the ordering core journals through a
  /// `RecoveryManager` bound to that store, state found in the store is
  /// restored before the stack goes live, and a catch-up layer
  /// (recovery/catchup.hpp) is registered. The store must outlive the
  /// stack — it is the part of the process that survives a crash.
  ProcessStack(runtime::Host& host, ProcessId p, const StackConfig& config,
               store::Dir* durable = nullptr,
               const recovery::Config& recovery_config = {});

  /// Starts all layers (heartbeats, etc.). Call once, after every
  /// process's stack is constructed.
  void start() { stack_.start(); }

  core::AbcastService& abcast() { return *abcast_; }
  fd::FailureDetector& failure_detector() { return *fd_; }
  bcast::BroadcastService& broadcast() { return *bcast_; }

  /// Algorithm-1 ordering state; nullptr for the kMsgs variant (which
  /// has no id-ordering queue).
  const core::OrderingCore* ordering() const { return ordering_; }

  /// The abcast layer's sender-side batcher (dissemination counters).
  const Batcher* batcher() const { return abcast_->batcher(); }

  /// Engine counters regardless of variant.
  const consensus::Consensus::Stats& consensus_stats() const {
    return consensus_->stats();
  }
  /// The consensus engine (tests downcast it to read its table).
  const consensus::Consensus& consensus() const { return *consensus_; }

  /// Recovery wiring (null unless built with a durable store).
  recovery::RecoveryManager* recovery_manager() { return recovery_.get(); }
  const recovery::RecoveryManager* recovery_manager() const {
    return recovery_.get();
  }
  recovery::CatchupLayer* catchup() { return catchup_.get(); }

  /// Kicks off the peer catch-up poll after a restart. Requires a
  /// durable store; call after start().
  void begin_catchup();

 private:
  runtime::Stack stack_;
  std::unique_ptr<fd::HeartbeatFd> heartbeat_fd_;
  std::unique_ptr<fd::PerfectFd> perfect_fd_;
  fd::FailureDetector* fd_ = nullptr;

  std::unique_ptr<bcast::BroadcastService> bcast_owned_;
  bcast::BroadcastService* bcast_ = nullptr;

  std::unique_ptr<consensus::Consensus> consensus_;

  std::unique_ptr<core::AbcastService> abcast_;
  /// The id-ordering state of core::AbcastIds; null for kMsgs.
  core::OrderingCore* ordering_ = nullptr;

  std::unique_ptr<recovery::RecoveryManager> recovery_;
  std::unique_ptr<recovery::CatchupLayer> catchup_;
};

}  // namespace ibc::abcast
