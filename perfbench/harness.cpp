#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include "abcast/batcher.hpp"
#include "runtime/cluster.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ibc::Cluster;
using ibc::ClusterOptions;
using ibc::MessageId;
using ibc::Payload;

namespace {

constexpr TimePoint kNone = -1;
constexpr std::uint32_t kMagic = 0x49424342;  // tags generated payloads

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ns_to_ms(double ns) { return ns / 1e6; }

/// Nearest-rank quantile; sorts `v` in place. Empty -> 0.
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

ibc::Bytes make_payload(std::uint32_t m, std::size_t size) {
  ibc::Bytes b(std::max<std::size_t>(size, 8), 0x5a);
  std::memcpy(b.data(), &kMagic, 4);
  std::memcpy(b.data() + 4, &m, 4);
  return b;
}

bool decode_payload(ibc::BytesView v, std::uint32_t& m) {
  if (v.size() < 8) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, v.data(), 4);
  if (magic != kMagic) return false;
  std::memcpy(&m, v.data() + 4, 4);
  return true;
}

ClusterOptions cluster_options(const Workload& w, std::uint64_t seed) {
  ClusterOptions o = ClusterOptions{}
                         .with_n(w.n)
                         .with_seed(seed)
                         .with_stack(w.stack)
                         .with_model(w.model)
                         .with_host(w.host)
                         .without_delivery_log();
  if (w.recovery) o.with_recovery();
  return o;
}

/// The seeded input: due times (host time) and payload sizes.
struct Schedule {
  std::vector<TimePoint> due;
  std::vector<std::uint32_t> size;
  TimePoint window_begin = 0;
  TimePoint window_end = 0;
  std::size_t first_in_window = 0;  // index of the first message due in it
  std::size_t end_of_window = 0;    // one past the last
};

Schedule make_schedule(const Workload& w, std::uint64_t seed,
                       TimePoint start) {
  Schedule s;
  s.window_begin = start + w.warmup;
  s.window_end = s.window_begin + w.window;
  const ibc::Rng root(seed);
  ibc::Rng arrivals = root.fork("arrivals");
  ibc::Rng sizes = root.fork("sizes");
  const double mean_gap_ns = 1e9 / w.rate;
  const auto expected = static_cast<std::size_t>(
      w.rate * ibc::to_sec(s.window_end - start) * 1.05 + 64);
  s.due.reserve(expected);
  s.size.reserve(expected);
  TimePoint t = start;
  for (;;) {
    t += std::max<Duration>(
        1, static_cast<Duration>(arrivals.next_exponential(mean_gap_ns)));
    if (t >= s.window_end) break;
    if (t < s.window_begin) s.first_in_window = s.due.size() + 1;
    s.due.push_back(t);
    const bool large =
        w.large_one_in > 0 && sizes.next_below(w.large_one_in) == 0;
    s.size.push_back(static_cast<std::uint32_t>(
        large ? w.large_bytes : w.payload_bytes));
  }
  s.end_of_window = s.due.size();
  return s;
}

/// Up-intervals of every process under the workload's fault schedule.
struct Faults {
  std::vector<TimePoint> crash;    // per cycle
  std::vector<TimePoint> restart;  // per cycle

  bool up(const Workload& w, ProcessId p, TimePoint t) const {
    if (p != w.fault_process) return true;
    for (std::size_t c = 0; c < crash.size(); ++c) {
      if (t >= crash[c] && t < restart[c]) return false;
    }
    return true;
  }
  /// Index of the incarnation alive at `t` (0 before the first crash).
  int incarnation(const Workload& w, ProcessId p, TimePoint t) const {
    if (p != w.fault_process) return 0;
    int inc = 0;
    for (std::size_t c = 0; c < crash.size(); ++c) {
      if (t >= restart[c]) inc = static_cast<int>(c) + 1;
    }
    return inc;
  }
  bool routable(const Workload& w, ProcessId p, TimePoint t) const {
    if (p != w.fault_process) return true;
    for (std::size_t c = 0; c < crash.size(); ++c) {
      if (t >= crash[c] - w.quiesce && t < restart[c]) return false;
    }
    return true;
  }
};

/// Everything the delivery observers write. Slot (m, p) of the per-pair
/// arrays is written only on p's execution context, so the TCP reactors
/// never share an element; the main thread reads after shutdown.
struct Recorder {
  std::uint32_t n = 0;
  std::size_t msgs = 0;
  std::vector<TimePoint> adeliver;  // [m*n + p-1]
  std::vector<std::vector<std::uint32_t>> log;  // [p] message numbers
  std::vector<std::uint64_t> duplicates;        // [p]
  std::vector<std::uint64_t> foreign;           // [p]
  std::atomic<std::uint64_t> pairs{0};

  // Generator side (written by the generator / submitting context).
  std::vector<std::uint8_t> origin;  // process the message was handed to
  std::vector<TimePoint> handoff;    // host time of the hand-off
  std::vector<std::uint8_t> refused;

  // Traced only.
  std::vector<TimePoint> returned;       // abroadcast call returned
  std::vector<std::uint32_t> call_ns;    // wall time of the call
  std::vector<TimePoint> rdeliver;       // [m*n + p-1]
  std::vector<std::uint64_t> false_suspicions;  // [p]
  std::vector<std::vector<double>> backlog;     // [p] unordered() samples

  Recorder(std::uint32_t n_, std::size_t msgs_, bool traced) : n(n_), msgs(msgs_) {
    adeliver.assign(msgs * n, kNone);
    log.resize(n + 1);
    for (auto& l : log) l.reserve(msgs + 16);
    duplicates.assign(n + 1, 0);
    foreign.assign(n + 1, 0);
    origin.assign(msgs, 0);
    handoff.assign(msgs, kNone);
    refused.assign(msgs, 0);
    if (traced) {
      returned.assign(msgs, kNone);
      call_ns.assign(msgs, 0);
      rdeliver.assign(msgs * n, kNone);
      false_suspicions.assign(n + 1, 0);
      backlog.resize(n + 1);
    }
  }
  std::size_t slot(std::uint32_t m, ProcessId p) const {
    return static_cast<std::size_t>(m) * n + (p - 1);
  }
};

/// One process's work counters from the stack's public getters. A
/// restart replaces the stack and its counters start again from zero, so
/// a process's figure is its current incarnation's plus those of the
/// incarnations it has retired, each read just before its restart.
struct StackCounters {
  // Cumulative work.
  double batches = 0.0;
  double msgs_batched = 0.0;
  double rb_frames = 0.0;
  double rb_sends = 0.0;
  double bytes_copied = 0.0;
  double ids_deduplicated = 0.0;
  // Maxima since the cluster started (warm-up included).
  double inflight_high_water = 0.0;
  double hop_latency_max_ns = 0.0;

  void add(const StackCounters& o) {
    batches += o.batches;
    msgs_batched += o.msgs_batched;
    rb_frames += o.rb_frames;
    rb_sends += o.rb_sends;
    bytes_copied += o.bytes_copied;
    ids_deduplicated += o.ids_deduplicated;
    inflight_high_water = std::max(inflight_high_water, o.inflight_high_water);
    hop_latency_max_ns = std::max(hop_latency_max_ns, o.hop_latency_max_ns);
  }
};

StackCounters read_stack(ibc::abcast::ProcessStack& stack) {
  StackCounters c;
  if (const ibc::abcast::Batcher* b = stack.batcher()) {
    c.batches = static_cast<double>(b->batches_sent());
    c.msgs_batched = static_cast<double>(b->msgs_sent());
  }
  const ibc::bcast::BroadcastService& rb = stack.broadcast();
  c.rb_frames = static_cast<double>(rb.frames_handled());
  c.rb_sends = static_cast<double>(rb.wire_sends());
  c.bytes_copied = static_cast<double>(rb.payload_bytes_copied());
  c.hop_latency_max_ns = static_cast<double>(rb.hop_latency_max_ns());
  if (const ibc::core::OrderingCore* ord = stack.ordering()) {
    c.ids_deduplicated = static_cast<double>(ord->ids_deduplicated());
    c.inflight_high_water = static_cast<double>(ord->inflight_high_water());
  }
  return c;
}

/// Reads p's current incarnation: on its execution context while it is
/// up; directly once it has crashed, since a crashed process runs no
/// code.
StackCounters read_process(Cluster& cluster, ProcessId p) {
  StackCounters c;
  bool read = false;
  if (!cluster.host().crashed(p)) {
    cluster.host().run_on(p, [&cluster, &c, &read, p] {
      c = read_stack(cluster.node(p).stack());
      read = true;
    });
  }
  if (!read && cluster.host().crashed(p)) c = read_stack(cluster.node(p).stack());
  return c;
}

/// Counters read at a window edge.
struct Snapshot {
  ibc::ClusterStats stats;  // the recovery counters (they survive restarts)
  StackCounters work;       // summed over every process and incarnation
  ibc::runtime::HostCounters host;
  double user_us = 0.0;
  double sys_us = 0.0;
  double heap = 0.0;
  std::int64_t wall_ns = 0;
  double vm_steal = 0.0;  // /proc/stat jiffies, all CPUs
  double vm_total = 0.0;
  // Summed over live processes.
  double delivered_batches = 0.0;
  double instances = 0.0;
  double rounds = 0.0;
  double refused_proposals = 0.0;
  double delivered_set = 0.0;
  // schedstat fields 1 and 2 of [p] = p's reactor, [0] = the generator.
  std::vector<double> reactor_cpu_ns;
  std::vector<double> reactor_wait_ns;
};

void read_rusage(double& user_us, double& sys_us) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  user_us = static_cast<double>(ru.ru_utime.tv_sec) * 1e6 +
            static_cast<double>(ru.ru_utime.tv_usec);
  sys_us = static_cast<double>(ru.ru_stime.tv_sec) * 1e6 +
           static_cast<double>(ru.ru_stime.tv_usec);
}

double heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks) + static_cast<double>(mi.hblkhd);
}

/// Machine-wide steal and total jiffies from /proc/stat: time the
/// hypervisor ran something else while a vCPU wanted to run.
void read_steal(double& steal, double& total) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    steal = static_cast<double>(v[7]);
    total = 0.0;
    for (const unsigned long long x : v) total += static_cast<double>(x);
  }
  std::fclose(f);
}

bool read_schedstat(long tid, double& cpu_ns, double& wait_ns) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/self/task/%ld/schedstat", tid);
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  unsigned long long cpu = 0, wait = 0;
  const int got = std::fscanf(f, "%llu %llu", &cpu, &wait);
  std::fclose(f);
  if (got != 2) return false;
  cpu_ns = static_cast<double>(cpu);
  wait_ns = static_cast<double>(wait);
  return true;
}

/// The work counters cover every process, each with its retired
/// incarnations (`retired[p]`). The ordering and consensus figures, and
/// the delivered set (a size, not a counter), are summed over the
/// processes that never crash (`skip` is the fault process).
Snapshot snapshot(Cluster& cluster, const std::vector<long>& tids, ProcessId skip,
                  const std::vector<StackCounters>& retired) {
  Snapshot s;
  s.stats = cluster.stats();
  s.host = cluster.host().counters();
  const std::uint32_t n = cluster.n();
  for (ProcessId p = 1; p <= n; ++p) {
    s.work.add(retired[p]);
    s.work.add(read_process(cluster, p));
  }
  for (ProcessId p = 1; p <= n; ++p) {
    if (p == skip) continue;
    cluster.host().run_on(p, [&cluster, &s, p] {
      ibc::abcast::ProcessStack& stack = cluster.node(p).stack();
      if (const ibc::core::OrderingCore* ord = stack.ordering()) {
        s.delivered_batches += static_cast<double>(ord->delivered_count());
        s.instances += static_cast<double>(ord->instances_completed());
        s.delivered_set += static_cast<double>(ord->delivered_set().size());
      }
      s.rounds += static_cast<double>(stack.consensus_stats().rounds_started);
      s.refused_proposals +=
          static_cast<double>(stack.consensus_stats().proposals_refused);
    });
  }
  s.reactor_cpu_ns.assign(n + 1, 0.0);
  s.reactor_wait_ns.assign(n + 1, 0.0);
  for (ProcessId p = 0; p < tids.size(); ++p) {
    if (tids[p] != 0) read_schedstat(tids[p], s.reactor_cpu_ns[p], s.reactor_wait_ns[p]);
  }
  read_rusage(s.user_us, s.sys_us);
  read_steal(s.vm_steal, s.vm_total);
  s.heap = heap_in_use();
  s.wall_ns = steady_ns();
  return s;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort
}

/// Per-cycle fault observations (traced sampler).
struct CycleTrace {
  TimePoint detected = kNone;  // every survivor suspects the fault process
  TimePoint rejoined = kNone;  // caught up and level with the reference
  double replay_ms = 0.0;
};

/// What a finished run leaves behind for the analysis below.
struct Measured {
  const Workload& w;
  const Schedule& sched;
  const Faults& faults;
  const Recorder& rec;
  const std::vector<CycleTrace>& cycles;
  std::vector<char> alive_at_end;  // [p]
  Snapshot before, after;          // at the window's edges
  std::size_t events_window = 0;   // simulator events in the window
  std::int64_t run_wall_ns = 0;    // wall time of the window
  std::string spans_path;
  std::vector<char> flagged;       // TCP 1 s sub-windows left out

  double window_msgs() const {
    return static_cast<double>(sched.end_of_window - sched.first_in_window);
  }
  /// A pair (m, p) counts when p's incarnation alive at m's due time
  /// also delivered m: deliveries a restarted process catches up on are
  /// not service latency.
  bool same_life(ProcessId p, TimePoint due, TimePoint at) const {
    return faults.up(w, p, due) &&
           faults.incarnation(w, p, due) == faults.incarnation(w, p, at);
  }
  bool excluded(std::size_t i) const {
    return !flagged.empty() &&
           flagged[(sched.due[i] - sched.window_begin) / ibc::kSecond] != 0;
  }
};

/// Growth of a counter from `a` to `b`.
double delta(double a, double b) { return b - a; }

/// Integrity, uniform total order and agreement by the drain cap.
void check_logs(const Measured& m, RunResult& res) {
  const Workload& w = m.w;
  const Schedule& sched = m.sched;
  const Recorder* rec = &m.rec;
  const std::uint32_t n = w.n;
  const std::size_t msgs = sched.due.size();
  res.attempted = msgs;
  for (ProcessId p = 1; p <= n; ++p) {
    if (rec->duplicates[p] > 0) {
      res.violations.push_back("integrity: p" + std::to_string(p) + " delivered " +
                               std::to_string(rec->duplicates[p]) + " message(s) twice");
    }
    if (rec->foreign[p] > 0) {
      res.violations.push_back("integrity: p" + std::to_string(p) + " delivered " +
                               std::to_string(rec->foreign[p]) +
                               " message(s) nobody generated");
    }
  }
  // Uniform total order: every log is a prefix of the longest one (for a
  // restarted process, its log spans all incarnations).
  ProcessId longest = 1;
  for (ProcessId p = 2; p <= n; ++p) {
    if (rec->log[p].size() > rec->log[longest].size()) longest = p;
  }
  for (ProcessId p = 1; p <= n; ++p) {
    const auto& ref = rec->log[longest];
    const auto& l = rec->log[p];
    if (!std::equal(l.begin(), l.end(), ref.begin())) {
      res.violations.push_back("total order: p" + std::to_string(p) +
                               "'s log is not a prefix of p" +
                               std::to_string(longest) + "'s");
    }
  }
  for (std::size_t i = 0; i < msgs; ++i) {
    bool ok = rec->refused[i] == 0;
    for (ProcessId p = 1; ok && p <= n; ++p) {
      const TimePoint at = rec->adeliver[rec->slot(static_cast<std::uint32_t>(i), p)];
      if (m.alive_at_end[p] && at == kNone) ok = false;
    }
    if (!ok) ++res.failed;
  }
}

/// TCP: 1 s sub-windows whose generator lag p99 exceeds 2 ms.
std::vector<char> flag_lagging(const Measured& m, RunResult& res) {
  const Workload& w = m.w;
  const Schedule& sched = m.sched;
  const Recorder* rec = &m.rec;
  std::vector<char> flagged;
  if (!w.sim()) {
    const std::size_t subs =
        static_cast<std::size_t>((sched.window_end - sched.window_begin) / ibc::kSecond) + 1;
    std::vector<std::vector<double>> lag(subs);
    for (std::size_t i = sched.first_in_window; i < sched.end_of_window; ++i) {
      lag[(sched.due[i] - sched.window_begin) / ibc::kSecond].push_back(
          static_cast<double>(rec->handoff[i] - sched.due[i]));
    }
    flagged.assign(subs, 0);
    std::size_t count = 0;
    for (std::size_t j = 0; j < subs; ++j) {
      if (!lag[j].empty() && quantile(lag[j], 0.99) > 2e6) {
        flagged[j] = 1;
        ++count;
      }
    }
    res.generator_behind = count > 0;
    res.layer["workload.flagged_subwindows"] = static_cast<double>(count);
  }
  return flagged;
}

/// Latency over the counted pairs; CPU and heap across the window.
void end_to_end(const Measured& m, RunResult& res) {
  const Workload& w = m.w;
  const Schedule& sched = m.sched;
  const Recorder* rec = &m.rec;
  const std::uint32_t n = w.n;
  std::vector<double> lat;
  lat.reserve((sched.end_of_window - sched.first_in_window) * n);
  double lat_sum = 0.0;
  for (std::size_t i = sched.first_in_window; i < sched.end_of_window; ++i) {
    if (m.excluded(i)) continue;
    for (ProcessId p = 1; p <= n; ++p) {
      const TimePoint at = rec->adeliver[rec->slot(static_cast<std::uint32_t>(i), p)];
      if (at == kNone || !m.same_life(p, sched.due[i], at)) continue;
      const double ms = ns_to_ms(static_cast<double>(at - sched.due[i]));
      lat.push_back(ms);
      lat_sum += ms;
    }
  }
  res.latency_pairs = lat.size();
  res.latency_mean_ms = lat.empty() ? 0.0 : lat_sum / static_cast<double>(lat.size());
  res.latency_p50_ms = quantile(lat, 0.50);
  res.latency_p99_ms = quantile(lat, 0.99);
  // The benchmark process's CPU minus the TCP generator thread's (zero on
  // the simulator, where the generator runs inside the scheduler).
  const Snapshot& before = m.before;
  const Snapshot& after = m.after;
  const double window_msgs = m.window_msgs();
  const double generator_us =
      w.sim() ? 0.0 : (after.reactor_cpu_ns[0] - before.reactor_cpu_ns[0]) / 1e3;
  const double cpu_us =
      (after.user_us + after.sys_us) - (before.user_us + before.sys_us) - generator_us;
  res.cpu_us_per_msg = ratio(cpu_us, window_msgs);
  res.layer["workload.generator_cpu_us_per_msg"] = ratio(generator_us, window_msgs);
  res.layer["workload.vm_steal_share"] =
      ratio(after.vm_steal - before.vm_steal, after.vm_total - before.vm_total);
  res.heap_bytes_per_msg = ratio(after.heap - before.heap, window_msgs);

}

/// Outage per cycle: the longest gap between consecutive A-deliveries at
/// an always-up process that ends after the crash; the median over cycles.
void outage(const Measured& m, RunResult& res) {
  const Workload& w = m.w;
  const Recorder* rec = &m.rec;
  const std::uint32_t n = w.n;
  std::vector<double> per_cycle(w.cycles, 0.0);
  for (ProcessId q = 1; q <= n; ++q) {
    if (q == w.fault_process) continue;
    const auto& l = rec->log[q];
    for (std::size_t k = 1; k < l.size(); ++k) {
      const TimePoint a = rec->adeliver[rec->slot(l[k - 1], q)];
      const TimePoint b = rec->adeliver[rec->slot(l[k], q)];
      for (std::uint32_t c = 0; c < w.cycles; ++c) {
        const TimePoint hi = c + 1 < w.cycles ? m.faults.crash[c + 1] : kNone;
        if (b > m.faults.crash[c] && (hi == kNone || a < hi)) {
          per_cycle[c] = std::max(per_cycle[c], ns_to_ms(static_cast<double>(b - a)));
        }
      }
    }
  }
  res.outage_ms = median(per_cycle);
  for (std::uint32_t c = 0; c < w.cycles; ++c) {
    res.layer["workload.outage_ms.cycle" + std::to_string(c + 1)] = per_cycle[c];
  }
}

/// Per-layer figures from counter deltas across the window (both modes).
void counter_figures(const Measured& m, RunResult& res) {
  const Workload& w = m.w;
  const Schedule& sched = m.sched;
  const Recorder* rec = &m.rec;
  const std::uint32_t n = w.n;
  const bool sim = w.sim();
  const Snapshot& before = m.before;
  const Snapshot& after = m.after;
  const double window_msgs = m.window_msgs();
  auto& L = res.layer;
  const ibc::ClusterStats& s0 = before.stats;
  const ibc::ClusterStats& s1 = after.stats;
  const StackCounters& w0 = before.work;
  const StackCounters& w1 = after.work;
  const double batches = delta(w0.batches, w1.batches);
  L["abcast.msgs_per_batch"] = ratio(delta(w0.msgs_batched, w1.msgs_batched), batches);
  const double frames = delta(w0.rb_frames, w1.rb_frames);
  const double rb_sends = delta(w0.rb_sends, w1.rb_sends);
  L["bcast.sends_per_frame"] = ratio(rb_sends, frames);
  L["bcast.wire_sends_per_msg"] = ratio(rb_sends, window_msgs);
  L["bcast.payload_bytes_copied_per_msg"] =
      ratio(delta(w0.bytes_copied, w1.bytes_copied), window_msgs);
  // The stack keeps only lifetime maxima: these two cover the cluster's
  // whole life up to the window's end, warm-up included.
  L["bcast.hop_latency_max_ms"] = ns_to_ms(w1.hop_latency_max_ns);
  const double instances = after.instances - before.instances;
  L["core.ids_per_instance"] = ratio(after.delivered_batches - before.delivered_batches, instances);
  L["core.inflight_high_water"] = w1.inflight_high_water;
  const double steady_procs = w.fault_process == 0 ? n : n - 1;
  L["core.delivered_set_per_msg"] =
      ratio((after.delivered_set - before.delivered_set) / steady_procs, window_msgs);
  L["core.ids_deduplicated_per_msg"] =
      ratio(delta(w0.ids_deduplicated, w1.ids_deduplicated), window_msgs);
  L["consensus.rounds_per_instance"] = ratio(after.rounds - before.rounds, instances);
  L["consensus.refused_per_instance"] =
      ratio(after.refused_proposals - before.refused_proposals, instances);
  L["net.msgs_per_msg"] =
      ratio(delta(before.host.messages_sent, after.host.messages_sent), window_msgs);
  L["net.wire_bytes_per_msg"] =
      ratio(delta(before.host.wire_bytes_sent, after.host.wire_bytes_sent), window_msgs);
  const double tcp_frames = delta(before.host.frames_sent, after.host.frames_sent);
  const double writevs = delta(before.host.writev_calls, after.host.writev_calls);
  L["tcp.frames_per_msg"] = ratio(tcp_frames, window_msgs);
  L["tcp.writev_per_msg"] = ratio(writevs, window_msgs);
  L["tcp.frames_per_writev"] = ratio(tcp_frames, writevs);
  L["tcp.wakeups_per_msg"] = ratio(delta(before.host.wakeups, after.host.wakeups), window_msgs);
  L["tcp.wire_bytes_per_msg"] = sim ? 0.0 : L["net.wire_bytes_per_msg"];
  double reactor_cpu = 0.0, reactor_wait = 0.0, busy_max = 0.0;
  for (ProcessId p = 1; !sim && p <= n; ++p) {
    const double cpu = after.reactor_cpu_ns[p] - before.reactor_cpu_ns[p];
    reactor_cpu += cpu;
    reactor_wait += after.reactor_wait_ns[p] - before.reactor_wait_ns[p];
    busy_max = std::max(busy_max, ratio(cpu, static_cast<double>(m.run_wall_ns)));
  }
  L["tcp.reactor_cpu_us_per_msg"] = ratio(reactor_cpu / 1e3, window_msgs);
  L["tcp.reactor_runq_wait_us_per_msg"] = ratio(reactor_wait / 1e3, window_msgs);
  L["tcp.reactor_busy_max"] = busy_max;
  L["tcp.cpu_sys_share"] =
      sim ? 0.0 : ratio(after.sys_us - before.sys_us, res.cpu_us_per_msg * window_msgs);
  L["sim.events_per_msg"] = ratio(static_cast<double>(m.events_window), window_msgs);
  L["sim.ns_per_event"] =
      sim ? ratio(static_cast<double>(m.run_wall_ns), static_cast<double>(m.events_window)) : 0.0;
  L["store.appends_per_msg"] = ratio(delta(s0.log_appends, s1.log_appends), window_msgs);
  L["store.bytes_per_msg"] = ratio(delta(s0.log_bytes, s1.log_bytes), window_msgs);
  L["store.fsyncs_per_msg"] = ratio(delta(s0.fsyncs, s1.fsyncs), window_msgs);
  L["recovery.catchup_ids_per_restart"] =
      w.cycles == 0 ? 0.0
                    : delta(s0.catchup_ids_fetched, s1.catchup_ids_fetched) / w.cycles;
  L["workload.latency_p99_ms"] = res.latency_p99_ms;
  L["workload.outage_ms"] = res.outage_ms;
  L["workload.failed_ratio"] =
      ratio(static_cast<double>(res.failed), static_cast<double>(sched.due.size()));
  {
    std::vector<double> lag;
    lag.reserve(sched.end_of_window - sched.first_in_window);
    for (std::size_t i = sched.first_in_window; i < sched.end_of_window; ++i) {
      lag.push_back(static_cast<double>(rec->handoff[i] - sched.due[i]) / 1e3);
    }
    L["workload.generator_lag_us_p99"] = quantile(lag, 0.99);
  }

}

/// Traced runs: stage spans, timed calls and the samplers' figures.
void span_figures(const Measured& m, RunResult& res) {
  const Workload& w = m.w;
  const Schedule& sched = m.sched;
  const Recorder* rec = &m.rec;
  const std::uint32_t n = w.n;
  auto& L = res.layer;
  std::vector<double> call, batch_wait, dissem, order;
  call.reserve(sched.end_of_window - sched.first_in_window);
  batch_wait.reserve(sched.end_of_window - sched.first_in_window);
  // Stage sums over pairs with every boundary observed. The four stages
  // tile due -> A-deliver exactly, so their means add up to this set's
  // mean end-to-end latency.
  std::int64_t sum_submit = 0, sum_wait = 0, sum_dissem = 0, sum_order = 0, sum_e2e = 0;
  std::uint64_t span_pairs = 0;
  std::unique_ptr<std::ofstream> out;
  if (!m.spans_path.empty()) {
    out = std::make_unique<std::ofstream>(m.spans_path, std::ios::trunc);
    *out << "# one row per (message, process); the stages tile due -> "
            "A-deliver:\n# abcast.submit=[due,returned) "
            "abcast.batch_wait=[returned,rdeliver_origin) "
            "bcast.disseminate=[rdeliver_origin,rdeliver) "
            "core.order=[rdeliver,adeliver)\n"
            "message,process,origin,due_ns,returned_ns,rdeliver_origin_ns,"
            "rdeliver_ns,adeliver_ns\n";
  }
  for (std::size_t i = sched.first_in_window; i < sched.end_of_window; ++i) {
    const ProcessId o = rec->origin[i];
    if (o == 0 || rec->returned[i] == kNone || m.excluded(i)) continue;
    call.push_back(static_cast<double>(rec->call_ns[i]));
    const auto msg = static_cast<std::uint32_t>(i);
    const TimePoint due = sched.due[i];
    const TimePoint ret = rec->returned[i];
    const TimePoint rd_o = rec->rdeliver[rec->slot(msg, o)];
    if (rd_o == kNone) continue;
    batch_wait.push_back(ns_to_ms(static_cast<double>(rd_o - ret)));
    for (ProcessId p = 1; p <= n; ++p) {
      const TimePoint rd = rec->rdeliver[rec->slot(msg, p)];
      const TimePoint ad = rec->adeliver[rec->slot(msg, p)];
      if (rd == kNone || ad == kNone || !m.same_life(p, due, ad) ||
          !m.same_life(p, due, rd)) {
        continue;
      }
      if (p != o) dissem.push_back(ns_to_ms(static_cast<double>(rd - rd_o)));
      order.push_back(ns_to_ms(static_cast<double>(ad - rd)));
      sum_submit += ret - due;
      sum_wait += rd_o - ret;
      sum_dissem += rd - rd_o;
      sum_order += ad - rd;
      sum_e2e += ad - due;
      ++span_pairs;
      if (out) {
        *out << i << ',' << p << ',' << o << ',' << due << ',' << ret << ','
             << rd_o << ',' << rd << ',' << ad << '\n';
      }
    }
  }
  const double pairs = static_cast<double>(span_pairs);
  L["abcast.abroadcast_ns_p50"] = quantile(call, 0.5);
  L["abcast.batch_wait_ms_p50"] = quantile(batch_wait, 0.5);
  L["bcast.disseminate_ms_p50"] = quantile(dissem, 0.5);
  L["bcast.disseminate_ms_p99"] = quantile(dissem, 0.99);
  L["core.order_ms_p50"] = quantile(order, 0.5);
  L["core.order_ms_p99"] = quantile(order, 0.99);
  L["span.abcast.submit_ms_mean"] = ratio(ns_to_ms(static_cast<double>(sum_submit)), pairs);
  L["span.abcast.batch_wait_ms_mean"] = ratio(ns_to_ms(static_cast<double>(sum_wait)), pairs);
  L["span.bcast.disseminate_ms_mean"] = ratio(ns_to_ms(static_cast<double>(sum_dissem)), pairs);
  L["span.core.order_ms_mean"] = ratio(ns_to_ms(static_cast<double>(sum_order)), pairs);
  L["span.e2e_ms_mean"] = ratio(ns_to_ms(static_cast<double>(sum_e2e)), pairs);
  L["span.coverage"] = ratio(pairs, static_cast<double>(res.latency_pairs));
  // Self-check: the stage means add up to the traced run's mean
  // end-to-end latency (over all latency pairs, not only the spanned).
  const double stage_sum = L["span.abcast.submit_ms_mean"] + L["span.abcast.batch_wait_ms_mean"] +
                           L["span.bcast.disseminate_ms_mean"] + L["span.core.order_ms_mean"];
  L["span.tiling_error_ms"] = stage_sum - res.latency_mean_ms;
  if (sum_submit + sum_wait + sum_dissem + sum_order != sum_e2e ||
      std::abs(stage_sum - res.latency_mean_ms) > 0.01 * res.latency_mean_ms + 1e-6) {
    res.violations.push_back("span self-check: stage means sum to " +
                             std::to_string(stage_sum) + " ms, mean latency is " +
                             std::to_string(res.latency_mean_ms) + " ms");
  }
  std::vector<double> backlog;
  for (const auto& b : rec->backlog) backlog.insert(backlog.end(), b.begin(), b.end());
  L["core.unordered_backlog_p50"] = quantile(backlog, 0.5);
  double false_susp = 0.0;
  for (const auto v : rec->false_suspicions) false_susp += static_cast<double>(v);
  L["fd.false_suspicions"] = false_susp;
  const std::vector<CycleTrace>& cycles = m.cycles;
  const Faults& faults = m.faults;
  std::vector<double> detect, rejoin, replay;
  for (std::uint32_t c = 0; c < w.cycles; ++c) {
    if (cycles[c].detected != kNone) {
      detect.push_back(ns_to_ms(static_cast<double>(cycles[c].detected - faults.crash[c])));
    }
    if (cycles[c].rejoined != kNone) {
      rejoin.push_back(ns_to_ms(static_cast<double>(cycles[c].rejoined - faults.restart[c])));
    }
    replay.push_back(cycles[c].replay_ms);
  }
  if (w.cycles > 0 && (detect.size() < w.cycles || rejoin.size() < w.cycles)) {
    res.violations.push_back("fault cycle without detection or rejoin");
  }
  L["fd.detect_ms"] = median(detect);
  L["recovery.rejoin_ms"] = median(rejoin);
  L["recovery.replay_ms"] = median(replay);
}

/// The figures a simulator run must reproduce bit for bit.
void deterministic_figures(const Measured& m, RunResult& res) {
  auto& D = res.deterministic;
  D["attempted"] = static_cast<double>(res.attempted);
  D["failed"] = static_cast<double>(res.failed);
  D["latency_pairs"] = static_cast<double>(res.latency_pairs);
  D["latency_p50_ms"] = res.latency_p50_ms;
  D["latency_p99_ms"] = res.latency_p99_ms;
  D["latency_mean_ms"] = res.latency_mean_ms;
  D["outage_ms"] = res.outage_ms;
  D["events"] = static_cast<double>(m.events_window);
  D["messages_sent"] = delta(m.before.host.messages_sent, m.after.host.messages_sent);
  D["wire_bytes_sent"] = delta(m.before.host.wire_bytes_sent, m.after.host.wire_bytes_sent);
  D["instances"] = m.after.instances - m.before.instances;
  D["rounds"] = m.after.rounds - m.before.rounds;
}

}  // namespace

bool make_workload(const std::string& name, Workload& w) {
  w = Workload{};
  w.name = name;
  if (name == "sim_paper_n3") {
    // Setup 1, the paper's stack at its defaults: indirect CT over
    // RB-flood, W=1, B=1, heartbeat detector.
    w.n = 3;
    w.rate = 4000.0;
    w.payload_bytes = 32;
    w.warmup = ibc::seconds(1);
    w.window = ibc::seconds(10);
    w.drain_cap = ibc::seconds(10);
    return true;
  }
  if (name == "tcp_batched_n3") {
    w.n = 3;
    w.host = ibc::runtime::HostKind::kTcp;
    w.stack.pipeline_depth = 4;
    w.stack.batch.max_msgs = 8;
    w.stack.batch.max_delay = ibc::milliseconds(2);
    w.rate = 8000.0;
    w.payload_bytes = 32;
    w.large_bytes = 4096;
    w.large_one_in = 8;
    // Each repetition is a fresh cluster: reactor placement on the cores
    // varies per cluster, so several short windows give a steadier median
    // than one long one.
    w.warmup = ibc::milliseconds(500);
    w.window = ibc::seconds(2);
    w.drain_cap = ibc::seconds(5);
    return true;
  }
  if (name == "sim_ring_n5_restart") {
    w.n = 5;
    w.stack.rb = ibc::abcast::RbKind::kRing;
    w.stack.pipeline_depth = 4;
    w.stack.batch.max_msgs = 8;
    w.stack.batch.max_delay = ibc::milliseconds(2);
    w.recovery = true;
    // 1000 msg/s, not the 4000 the workload was sized for: from 1500 msg/s
    // up the program aborts or stops ordering within three cycles (see
    // README.md, "Baseline defects"); `--rate` reproduces it.
    w.rate = 1000.0;
    w.payload_bytes = 32;
    w.warmup = ibc::seconds(2);
    // p2 is the round-1 coordinator of every CT instance.
    w.fault_process = 2;
    w.cycles = 4;
    w.cycle = ibc::seconds(15);
    w.crash_offset = ibc::seconds(3);
    w.restart_after = ibc::seconds(2);
    w.quiesce = ibc::milliseconds(50);
    w.window = w.cycle * w.cycles;
    w.drain_cap = ibc::seconds(30);
    return true;
  }
  return false;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

RunResult run_workload(const Workload& w, const RunOptions& opt) {
  const bool traced = opt.traced;
  const bool sim = w.sim();
  const std::uint32_t n = w.n;
  RunResult res;

  Cluster cluster(cluster_options(w, opt.seed));
  ibc::runtime::Host& host = cluster.host();

  const TimePoint start = cluster.now() + ibc::milliseconds(20);
  const Schedule sched = make_schedule(w, opt.seed, start);
  const std::size_t msgs = sched.due.size();
  Faults faults;
  for (std::uint32_t c = 0; c < w.cycles; ++c) {
    const TimePoint crash = sched.window_begin + c * w.cycle + w.crash_offset;
    faults.crash.push_back(crash);
    faults.restart.push_back(crash + w.restart_after);
    cluster.crash_at(crash, w.fault_process);
    cluster.restart_at(crash + w.restart_after, w.fault_process);
  }

  // A restart replaces the fault process's stack. Its dying incarnation,
  // dead since the crash, is read just before each restart.
  std::vector<StackCounters> retired(n + 1);
  for (const TimePoint restart : faults.restart) {
    host.run_at(restart - ibc::kMicrosecond, [&cluster, &host, &retired, f = w.fault_process] {
      if (host.crashed(f)) retired[f].add(read_process(cluster, f));
    });
  }

  // The observers below write into these. The cluster is shut down before
  // they are read, and no callback runs after that, so they may be
  // destroyed before the cluster.
  auto rec = std::make_unique<Recorder>(n, msgs, traced);
  std::vector<CycleTrace> cycles(w.cycles);

  const auto on_adeliver = [&rec, &cluster](ProcessId p) {
    return [&rec, &cluster, p](const MessageId&, const Payload& payload) {
      const TimePoint now = cluster.now();
      std::uint32_t m = 0;
      if (!decode_payload(payload, m) || m >= rec->msgs) {
        ++rec->foreign[p];
        return;
      }
      TimePoint& slot = rec->adeliver[rec->slot(m, p)];
      if (slot != kNone) {
        ++rec->duplicates[p];
        return;
      }
      slot = now;
      rec->log[p].push_back(m);
      rec->pairs.fetch_add(1, std::memory_order_relaxed);
    };
  };
  const auto on_rdeliver = [&rec, &cluster](ProcessId p) {
    return [&rec, &cluster, p](ProcessId, const Payload& frame) {
      const TimePoint now = cluster.now();
      const ibc::abcast::BatchView batch = ibc::abcast::parse_batch(frame);
      for (const Payload& payload : batch.payloads) {
        std::uint32_t m = 0;
        if (!decode_payload(payload, m) || m >= rec->msgs) continue;
        TimePoint& slot = rec->rdeliver[rec->slot(m, p)];
        if (slot == kNone) slot = now;
      }
    };
  };
  const auto on_suspect = [&rec, &host, &sched](ProcessId p) {
    return [&rec, &host, &sched, p](ProcessId q, bool suspected) {
      const TimePoint now = host.now();
      if (suspected && !host.crashed(q) && now >= sched.window_begin &&
          now < sched.window_end) {
        ++rec->false_suspicions[p];
      }
    };
  };
  const auto observe = [&](ProcessId p) {
    ibc::abcast::ProcessStack& stack = cluster.node(p).stack();
    stack.abcast().subscribe(on_adeliver(p));
    if (traced) {
      stack.broadcast().subscribe(on_rdeliver(p));
      stack.failure_detector().subscribe(on_suspect(p));
    }
  };
  for (ProcessId p = 1; p <= n; ++p) host.run_on(p, [&observe, p] { observe(p); });
  if (w.cycles > 0) {
    cluster.set_restart_listener([&](ProcessId p) {
      observe(p);
      if (const auto* rm = cluster.node(p).stack().recovery_manager()) {
        const TimePoint now = host.now();
        for (std::uint32_t c = 0; c < w.cycles; ++c) {
          if (now >= faults.restart[c] &&
              (c + 1 == w.cycles || now < faults.crash[c + 1])) {
            cycles[c].replay_ms = rm->counters().replay_ms;
          }
        }
      }
    });
  }

  // Reactor thread ids (TCP), for schedstat. When the process may use
  // more CPUs than there are reactors, each reactor gets a CPU of its own
  // and the generator the next one, so the generator never queues behind
  // a reactor and reactor placement does not change between clusters.
  std::vector<long> tids;
  std::vector<int> cpus = allowed_cpus();
  const bool pin = !sim && cpus.size() > n;
  if (!sim) {
    tids.assign(n + 1, 0);
    for (ProcessId p = 1; p <= n; ++p) {
      host.run_on(p, [&tids, &cpus, pin, p] {
        tids[p] = static_cast<long>(syscall(SYS_gettid));
        if (pin) pin_current_thread(cpus[p - 1]);
      });
    }
  }

  ibc::Rng route = ibc::Rng(opt.seed).fork("route");
  std::vector<ProcessId> candidates;
  candidates.reserve(n);
  // Hands message m to a uniformly random live process. On the simulator
  // it runs in the scheduler at m's due time; on TCP on the generator
  // thread, which hands the call to the process's reactor.
  const auto handoff = [&](std::size_t m) {
    const TimePoint now = host.now();
    candidates.clear();
    for (ProcessId p = 1; p <= n; ++p) {
      if (!host.crashed(p) && faults.routable(w, p, now)) candidates.push_back(p);
    }
    rec->handoff[m] = now;
    if (candidates.empty()) {
      rec->refused[m] = 1;
      return;
    }
    const ProcessId p = candidates[route.next_below(candidates.size())];
    rec->origin[m] = static_cast<std::uint8_t>(p);
    ibc::Bytes payload = make_payload(static_cast<std::uint32_t>(m), sched.size[m]);
    auto submit = [&rec, &cluster, traced, p, m, payload = std::move(payload)]() mutable {
      const std::int64_t t0 = traced ? steady_ns() : 0;
      const MessageId id = cluster.node(p).abcast().abroadcast(std::move(payload));
      if (traced) {
        rec->call_ns[m] = static_cast<std::uint32_t>(std::min<std::int64_t>(
            steady_ns() - t0, std::numeric_limits<std::uint32_t>::max()));
        rec->returned[m] = cluster.now();
      }
      if (id.origin == ibc::kInvalidProcess) rec->refused[m] = 1;
    };
    if (sim) {
      host.run_on(p, std::move(submit));
    } else {
      cluster.env(p).defer(std::move(submit));
    }
  };

  std::atomic<bool> stop_sampling{false};
  std::deque<std::size_t> ref_len_history;  // reference log length per tick
  // One sampler tick (traced): ordering backlog at every live process,
  // and, on fault workloads, detection and rejoin of the fault process.
  const auto sample_tick = [&](TimePoint now) {
    for (ProcessId p = 1; p <= n; ++p) {
      host.run_on(p, [&cluster, &rec, p] {
        if (const auto* ord = cluster.node(p).stack().ordering()) {
          rec->backlog[p].push_back(static_cast<double>(ord->unordered().size()));
        }
      });
    }
    if (w.cycles == 0) return;
    const ProcessId f = w.fault_process;
    const ProcessId ref = f == 1 ? 2 : 1;
    ref_len_history.push_back(rec->log[ref].size());
    if (ref_len_history.size() > 10) ref_len_history.pop_front();
    for (std::uint32_t c = 0; c < w.cycles; ++c) {
      if (now >= faults.crash[c] && cycles[c].detected == kNone &&
          (c + 1 == w.cycles || now < faults.crash[c + 1])) {
        bool all = true;
        for (ProcessId q = 1; q <= n; ++q) {
          if (q == f) continue;
          host.run_on(q, [&cluster, &all, q, f] {
            if (!cluster.node(q).stack().failure_detector().is_suspected(f)) all = false;
          });
        }
        if (all) cycles[c].detected = now;
      }
      if (now >= faults.restart[c] && cycles[c].rejoined == kNone &&
          !host.crashed(f) && (c + 1 == w.cycles || now < faults.crash[c + 1])) {
        auto* catchup = cluster.node(f).stack().catchup();
        // "Level with the reference": at least as long as the reference
        // log was 10 ms ago (both logs grow continuously under load).
        if (catchup != nullptr && catchup->caught_up() &&
            rec->log[f].size() >= ref_len_history.front()) {
          cycles[c].rejoined = now;
        }
      }
    }
  };
  if (traced) {
    const auto ticks = static_cast<std::size_t>(
        ibc::to_ms(sched.window_end - start + w.drain_cap)) + 16;
    for (auto& b : rec->backlog) b.reserve(ticks);
  }

  std::size_t events_window = 0;
  std::size_t sampler_events = 0;
  std::int64_t run_wall_ns = 0;
  Snapshot before, after;
  std::jthread generator, sampler;
  std::function<void(std::size_t)> step;
  std::function<void(TimePoint)> tick;
  std::vector<char> alive_at_end(n + 1, 1);

  if (sim) {
    // Generator chain: one pending event at a time, each scheduling the
    // next, so the scheduler's queue does not hold the whole input.
    step = [&](std::size_t m) {
      handoff(m);
      if (m + 1 < msgs) host.run_at(sched.due[m + 1], [&step, m] { step(m + 1); });
    };
    if (msgs > 0) host.run_at(sched.due[0], [&step] { step(0); });
    tick = [&](TimePoint t) {
      ++sampler_events;
      if (stop_sampling.load()) return;
      sample_tick(t);
      host.run_at(t + ibc::kMillisecond, [&tick, t] { tick(t + ibc::kMillisecond); });
    };
    if (traced) host.run_at(start, [&tick, start] { tick(start); });

    cluster.run_for(sched.window_begin - cluster.now());
    before = snapshot(cluster, tids, w.fault_process, retired);
    const std::int64_t w0 = steady_ns();
    const std::size_t sampler_before = sampler_events;
    // The sampler's own ticks are the benchmark's events, not the program's.
    events_window = cluster.run_for(sched.window_end - cluster.now()) -
                    (sampler_events - sampler_before);
    run_wall_ns = steady_ns() - w0;
    after = snapshot(cluster, tids, w.fault_process, retired);
    const std::uint64_t want = static_cast<std::uint64_t>(msgs) * n;
    const TimePoint cap = cluster.now() + w.drain_cap;
    while (rec->pairs.load() < want && cluster.now() < cap) {
      cluster.run_for(ibc::milliseconds(10));
    }
    stop_sampling = true;
  } else {
    const std::int64_t offset = steady_ns() - cluster.now();  // host -> steady
    // With a CPU of its own the generator spins to each due time: a
    // sleeping vCPU is halted, and the hypervisor can take milliseconds to
    // run it again. Its CPU time is the client's, not the program's, and is
    // subtracted below.
    std::atomic<long> generator_tid{0};
    std::atomic<bool> generator_release{false};
    generator = std::jthread([&] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      if (pin) pin_current_thread(cpus[n]);
      generator_tid = static_cast<long>(syscall(SYS_gettid));
      for (std::size_t m = 0; m < msgs; ++m) {
        const std::int64_t due = sched.due[m] + offset;
        if (pin) {
          while (steady_ns() < due) {
          }
        } else {
          std::this_thread::sleep_until(
              std::chrono::steady_clock::time_point{std::chrono::nanoseconds(due)});
        }
        handoff(m);
      }
      // Stay alive until the window's closing snapshot has read this
      // thread's schedstat.
      while (!generator_release.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    while (generator_tid.load() == 0) std::this_thread::yield();
    tids[0] = generator_tid.load();
    if (traced) {
      sampler = std::jthread([&] {
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        TimePoint t = start;
        while (!stop_sampling.load()) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point{
              std::chrono::nanoseconds(t + offset)});
          for (ProcessId p = 1; p <= n; ++p) {
            cluster.env(p).defer([&cluster, &rec, p] {
              if (const auto* ord = cluster.node(p).stack().ordering()) {
                auto& b = rec->backlog[p];
                if (b.size() < b.capacity()) {
                  b.push_back(static_cast<double>(ord->unordered().size()));
                }
              }
            });
          }
          t += ibc::kMillisecond;
        }
      });
    }
    const auto wait_until = [&](TimePoint t) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point{
          std::chrono::nanoseconds(t + offset)});
    };
    wait_until(sched.window_begin);
    before = snapshot(cluster, tids, w.fault_process, retired);
    wait_until(sched.window_end);
    after = snapshot(cluster, tids, w.fault_process, retired);
    run_wall_ns = after.wall_ns - before.wall_ns;
    generator_release = true;
    generator.join();
    const std::uint64_t want = static_cast<std::uint64_t>(msgs) * n;
    const std::int64_t cap = steady_ns() + w.drain_cap;
    while (rec->pairs.load() < want && steady_ns() < cap) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop_sampling = true;
    if (sampler.joinable()) sampler.join();
  }
  for (ProcessId p = 1; p <= n; ++p) alive_at_end[p] = !host.crashed(p);
  cluster.shutdown();  // joins the reactors; all records are now stable

  Measured m{w,      sched,       faults, *rec,          cycles,
             std::move(alive_at_end), before, after,  events_window,
             run_wall_ns, opt.spans_path, {}};
  check_logs(m, res);
  m.flagged = flag_lagging(m, res);
  end_to_end(m, res);
  if (w.cycles > 0) outage(m, res);
  counter_figures(m, res);
  if (traced) span_figures(m, res);
  if (sim) deterministic_figures(m, res);
  return res;
}

SetupTiming measure_setup(const Workload& w, std::uint64_t seed, int min_reps,
                          Duration min_wall) {
  SetupTiming t;
  const std::int64_t begin = steady_ns();
  for (int r = 0; r < min_reps || steady_ns() - begin < min_wall; ++r) {
    const std::int64_t t0 = steady_ns();
    Cluster cluster(cluster_options(w, seed + static_cast<std::uint64_t>(r)));
    const std::int64_t t1 = steady_ns();
    std::atomic<std::uint32_t> delivered{0};
    for (ProcessId p = 1; p <= w.n; ++p) {
      cluster.node(p).on_deliver(
          [&delivered](const MessageId&, const Payload&) { delivered.fetch_add(1); });
    }
    cluster.node(1).abroadcast(make_payload(0, w.payload_bytes));
    const std::int64_t limit = t1 + 10'000'000'000LL;
    while (delivered.load() < w.n && steady_ns() < limit) {
      if (w.sim()) {
        cluster.run_for(ibc::microseconds(100));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    const std::int64_t t2 = steady_ns();
    if (delivered.load() < w.n) {
      ++t.undelivered;
      break;
    }
    t.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    t.construct_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    t.first_delivery_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  }
  return t;
}

double sustained_rate(const Workload& w, std::uint64_t seed) {
  constexpr double kP99LimitMs = 25.0;
  Workload probe = w;
  probe.warmup = ibc::milliseconds(500);
  probe.window = ibc::seconds(3);
  probe.drain_cap = ibc::seconds(2);
  const auto ok = [&](double rate) {
    probe.rate = rate;
    const RunResult r = run_workload(probe, RunOptions{seed, false, {}});
    return r.violations.empty() && r.failed == 0 && r.latency_p99_ms <= kP99LimitMs;
  };
  double lo = 1000.0, hi = 16000.0;
  if (!ok(lo)) return 0.0;
  for (int i = 0; i < 7; ++i) {
    const double mid = (lo + hi) / 2.0;
    (ok(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace perfbench
