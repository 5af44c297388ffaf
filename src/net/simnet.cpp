#include "net/simnet.hpp"

#include <algorithm>
#include <cmath>

namespace ibc::net {

namespace {
// A transfer with less than this many bytes left is complete (absorbs
// floating-point residue from processor-sharing accounting).
constexpr double kByteEpsilon = 1e-6;
}  // namespace

SimNetwork::SimNetwork(sim::Scheduler& sched, std::uint32_t n,
                       NetModel model, Rng rng)
    : sched_(sched),
      n_(n),
      model_(model),
      rng_(rng.fork("simnet")),
      adv_rng_(rng.fork("adversary")),
      crashed_(n + 1, false),
      incarnation_(n + 1, 0),
      cpu_busy_until_(n + 1, 0),
      nics_(n + 1),
      sent_by_(n + 1, 0),
      delivered_to_(n + 1, 0) {
  IBC_REQUIRE(n >= 1);
  IBC_REQUIRE(model.bandwidth_bytes_per_sec > 0);
}

Duration SimNetwork::draw_jitter() {
  if (model_.jitter <= 0) return 0;
  return rng_.next_in(0, model_.jitter);
}

bool SimNetwork::task_died(ProcessId p, std::uint64_t incarnation) {
  if (!crashed_[p] && incarnation == incarnation_[p]) return false;
  ++counters_.dropped_crash;
  return true;
}

TimePoint SimNetwork::cpu_enqueue(ProcessId p, Duration cost) {
  IBC_ASSERT(cost >= 0);
  const TimePoint start = std::max(sched_.now(), cpu_busy_until_[p]);
  cpu_busy_until_[p] = start + cost;
  return cpu_busy_until_[p];
}

void SimNetwork::charge_cpu(ProcessId p, Duration cost) {
  check_pid(p);
  if (crashed_[p] || cost <= 0) return;
  cpu_enqueue(p, cost);
}

void SimNetwork::send(ProcessId src, ProcessId dst, Payload msg) {
  check_pid(src);
  check_pid(dst);
  if (crashed_[src]) return;

  ++counters_.messages_sent;
  counters_.payload_bytes_sent += msg.size();
  ++sent_by_[src];
  if (sent_hook_) sent_hook_(src, dst, msg);

  const std::uint64_t incarnation = incarnation_[src];
  if (dst == src) {
    // Loopback: a flat CPU cost, no NIC, no propagation.
    const TimePoint done = cpu_enqueue(src, model_.self_delivery_cost);
    schedule_task(done, [this, src, dst, incarnation,
                         msg = std::move(msg)]() mutable {
      if (!task_died(src, incarnation)) deliver_now(src, dst, std::move(msg));
    });
    return;
  }

  counters_.wire_bytes_sent += msg.size() + model_.header_bytes;
  const Duration cost =
      model_.send_overhead +
      static_cast<Duration>(msg.size()) * model_.cpu_per_byte_send;
  const TimePoint done = cpu_enqueue(src, cost);
  schedule_task(done, [this, src, dst, incarnation,
                       msg = std::move(msg)]() mutable {
    // The CPU task dies with the process: a crash between enqueue and
    // completion drops the message before it reaches the NIC, even if
    // the process has restarted since.
    if (!task_died(src, incarnation)) nic_add(src, dst, std::move(msg));
  });
}

void SimNetwork::nic_add(ProcessId src, ProcessId dst, Payload msg) {
  Nic& nic = nics_[src];
  // Bring PS accounting up to date before changing the active set.
  const TimePoint now = sched_.now();
  if (!nic.active.empty()) {
    const double elapsed = static_cast<double>(now - nic.last_update);
    const double share =
        elapsed * bytes_per_ns() / static_cast<double>(nic.active.size());
    for (Transfer& t : nic.active) t.remaining_bytes -= share;
  }
  nic.last_update = now;

  const double wire_bytes =
      static_cast<double>(msg.size() + model_.header_bytes);
  nic.active.push_back(Transfer{dst, std::move(msg), wire_bytes});
  nic_update(src);
}

void SimNetwork::nic_update(ProcessId src) {
  Nic& nic = nics_[src];
  const TimePoint now = sched_.now();

  if (nic.completion_event != 0) {
    sched_.cancel(nic.completion_event);
    nic.completion_event = 0;
  }

  if (!nic.active.empty() && now > nic.last_update) {
    const double elapsed = static_cast<double>(now - nic.last_update);
    const double share =
        elapsed * bytes_per_ns() / static_cast<double>(nic.active.size());
    for (Transfer& t : nic.active) t.remaining_bytes -= share;
  }
  nic.last_update = now;

  // Complete everything that has (numerically) finished.
  for (std::size_t i = 0; i < nic.active.size();) {
    if (nic.active[i].remaining_bytes <= kByteEpsilon) {
      Transfer done = std::move(nic.active[i]);
      nic.active.erase(nic.active.begin() + static_cast<std::ptrdiff_t>(i));
      leave_nic(src, done.dst, std::move(done.msg));
    } else {
      ++i;
    }
  }

  if (nic.active.empty()) return;

  double min_remaining = nic.active.front().remaining_bytes;
  for (const Transfer& t : nic.active)
    min_remaining = std::min(min_remaining, t.remaining_bytes);

  const double rate =
      bytes_per_ns() / static_cast<double>(nic.active.size());
  const auto dt = static_cast<Duration>(std::ceil(min_remaining / rate));
  nic.completion_event =
      sched_.schedule_after(std::max<Duration>(dt, 1),
                            [this, src] { nic_update(src); });
}

void SimNetwork::leave_nic(ProcessId src, ProcessId dst, Payload msg) {
  if (faults_.empty()) {
    wire_transit(src, dst, std::move(msg));
    return;
  }
  const TimePoint now = sched_.now();
  // Pass 1: a buffering cut parks the message until the earliest heal
  // among the cuts covering this link; the release re-runs the whole
  // checkpoint in case another fault is active then.
  TimePoint release = 0;
  for (const FaultEvent& e : faults_.events) {
    if (e.kind != FaultKind::kPartition) continue;
    if (!e.active_at(now) || !e.matches_link(src, dst)) continue;
    if (release == 0 || e.until < release) release = e.until;
  }
  if (release != 0) {
    ++counters_.delayed_fault;
    schedule_task(release, [this, src, dst, msg = std::move(msg)]() mutable {
      release_held(src, dst, std::move(msg));
    });
    return;
  }
  // Pass 2: lossy faults. One matching cut/drop kills the message.
  for (const FaultEvent& e : faults_.events) {
    if (!e.lossy()) continue;
    if (!e.active_at(now) || !e.matches_link(src, dst)) continue;
    if (e.kind == FaultKind::kPartitionDrop ||
        adv_rng_.next_double() < e.prob) {
      ++counters_.dropped_fault;
      return;
    }
  }
  // Pass 3: extra latency (fixed kDelay + random kReorder), summed over
  // all matching events so stacked faults compose.
  Duration extra = 0;
  for (const FaultEvent& e : faults_.events) {
    if (!e.active_at(now) || !e.matches_link(src, dst)) continue;
    if (e.kind == FaultKind::kDelay) {
      extra += e.extra;
    } else if (e.kind == FaultKind::kReorder && e.extra > 0) {
      extra += adv_rng_.next_in(0, e.extra);
    }
  }
  if (extra > 0) ++counters_.delayed_fault;
  // Pass 4: duplication — the copy takes its own jitter/extra-delay
  // draws downstream, so it may overtake the original.
  for (const FaultEvent& e : faults_.events) {
    if (e.kind != FaultKind::kDuplicate) continue;
    if (!e.active_at(now) || !e.matches_link(src, dst)) continue;
    if (adv_rng_.next_double() < e.prob) {
      ++counters_.duplicated_fault;
      wire_transit(src, dst, msg, extra);
      break;  // at most one extra copy per message
    }
  }
  wire_transit(src, dst, std::move(msg), extra);
}

void SimNetwork::release_held(ProcessId src, ProcessId dst, Payload msg) {
  // A held message rides the sender's (conceptual) retransmission
  // buffer: if the sender died during the cut, it is lost with the host.
  if (crashed_[src]) {
    ++counters_.dropped_crash;
    return;
  }
  leave_nic(src, dst, std::move(msg));
}

void SimNetwork::wire_transit(ProcessId src, ProcessId dst, Payload msg,
                              Duration extra_delay) {
  const Duration transit = model_.propagation + draw_jitter() + extra_delay;
  schedule_task(sched_.now() + transit,
                [this, src, dst, msg = std::move(msg)]() mutable {
                  arrive(src, dst, std::move(msg));
                });
}

void SimNetwork::arrive(ProcessId src, ProcessId dst, Payload msg) {
  if (crashed_[dst]) {
    ++counters_.dropped_crash;
    return;
  }
  const Duration cost =
      model_.recv_overhead +
      static_cast<Duration>(msg.size()) * model_.cpu_per_byte_recv;
  const TimePoint done = cpu_enqueue(dst, cost);
  schedule_task(done, [this, src, dst, incarnation = incarnation_[dst],
                       msg = std::move(msg)]() mutable {
    if (!task_died(dst, incarnation)) deliver_now(src, dst, std::move(msg));
  });
}

void SimNetwork::deliver_now(ProcessId src, ProcessId dst, Payload msg) {
  ++counters_.messages_delivered;
  ++delivered_to_[dst];
  if (delivered_hook_) delivered_hook_(src, dst, msg);
  // The hook may have crashed the destination (scripted scenarios).
  if (crashed_[dst]) {
    ++counters_.dropped_crash;
    return;
  }
  IBC_ASSERT_MSG(deliver_ != nullptr, "SimNetwork: no deliver callback set");
  deliver_(src, dst, msg);
}

void SimNetwork::crash(ProcessId p) {
  check_pid(p);
  if (crashed_[p]) return;
  crashed_[p] = true;

  // Outgoing transfers die with the host; partially-sent data is lost.
  Nic& nic = nics_[p];
  counters_.dropped_crash += nic.active.size();
  nic.active.clear();
  if (nic.completion_event != 0) {
    sched_.cancel(nic.completion_event);
    nic.completion_event = 0;
  }

  // Index loop: a listener may tear down a stack whose destructor
  // unsubscribes (mutating the vector under us).
  for (std::size_t i = 0; i < crash_listeners_.size(); ++i) {
    crash_listeners_[i].second(p);
  }
}

void SimNetwork::crash_at(TimePoint t, ProcessId p) {
  check_pid(p);
  sched_.schedule_at(t, [this, p] { crash(p); });
}

void SimNetwork::restart(ProcessId p) {
  check_pid(p);
  if (!crashed_[p]) return;
  crashed_[p] = false;
  // The new incarnation starts with an idle CPU; whatever was queued
  // died with the old one (crash() already dropped the NIC). Those
  // tasks are still in the scheduler: the new incarnation number makes
  // them drop themselves when they fire.
  ++incarnation_[p];
  cpu_busy_until_[p] = 0;
  for (std::size_t i = 0; i < restart_listeners_.size(); ++i) {
    restart_listeners_[i].second(p);
  }
}

void SimNetwork::unsubscribe(ListenerId id) {
  auto drop = [id](std::vector<std::pair<ListenerId, CrashListener>>& v) {
    for (auto it = v.begin(); it != v.end(); ++it) {
      if (it->first == id) {
        v.erase(it);
        return;
      }
    }
  };
  drop(crash_listeners_);
  drop(restart_listeners_);
}

bool SimNetwork::crashed(ProcessId p) const {
  check_pid(p);
  return crashed_[p];
}

std::uint32_t SimNetwork::alive_count() const {
  std::uint32_t alive = 0;
  for (ProcessId p = 1; p <= n_; ++p)
    if (!crashed_[p]) ++alive;
  return alive;
}

std::uint64_t SimNetwork::messages_sent_by(ProcessId p) const {
  check_pid(p);
  return sent_by_[p];
}

std::uint64_t SimNetwork::messages_delivered_to(ProcessId p) const {
  check_pid(p);
  return delivered_to_[p];
}

}  // namespace ibc::net
