#include "runtime/sim_cluster.hpp"

#include <utility>

#include "util/assert.hpp"

namespace ibc::runtime {

SimEnv::SimEnv(sim::Scheduler& sched, net::SimNetwork& net, ProcessId self,
               Rng rng)
    : sched_(sched),
      net_(net),
      self_(self),
      rng_(rng),
      log_("p" + std::to_string(self), [&sched] { return sched.now(); }) {}

void SimEnv::send(ProcessId dst, Payload msg) {
  net_.send(self_, dst, std::move(msg));
}

void SimEnv::multicast(Payload msg) {
  // One shared buffer, one accepted send per destination — the
  // per-destination accounting (counters, cost model) is identical to a
  // loop of point-to-point sends, which is what the simulated wire
  // actually carries.
  const std::uint32_t count = n();
  for (ProcessId dst = 1; dst <= count; ++dst) {
    if (dst != self_) net_.send(self_, dst, msg);
  }
}

sim::EventFn SimEnv::guarded(TimerFn fn) {
  auto task = [this, epoch = epoch_, fn = std::move(fn)] {
    if (!net_.crashed(self_) && epoch == epoch_) fn();
  };
  static_assert(sim::EventFn::stored_inline<decltype(task)>(),
                "the timer wrapper outgrew EventFn's inline buffer");
  return task;
}

TimerId SimEnv::set_timer(Duration delay, TimerFn fn) {
  IBC_REQUIRE(delay >= 0);
  return sched_.schedule_after(delay, guarded(std::move(fn)));
}

void SimEnv::cancel_timer(TimerId id) { sched_.cancel(id); }

void SimEnv::defer(TimerFn fn) {
  sched_.schedule_after(0, guarded(std::move(fn)));
}

void SimEnv::charge_cpu(Duration cost) { net_.charge_cpu(self_, cost); }

void SimEnv::handle_delivery(ProcessId from, BytesView msg) {
  IBC_ASSERT_MSG(receive_ != nullptr, "SimEnv: no receive handler");
  receive_(from, msg);
}

SimCluster::SimCluster(std::uint32_t n, const net::NetModel& model,
                       std::uint64_t seed)
    : net_(sched_, n, model, Rng(seed)) {
  const Rng root(seed);
  envs_.reserve(n + 1);
  envs_.push_back(nullptr);  // index 0 unused; processes are 1-based
  for (ProcessId p = 1; p <= n; ++p) {
    envs_.push_back(std::make_unique<SimEnv>(sched_, net_, p,
                                             root.fork("process", p)));
  }
  net_.set_deliver([this](ProcessId from, ProcessId to, BytesView msg) {
    envs_[to]->handle_delivery(from, msg);
  });
}

Env& SimCluster::env(ProcessId p) {
  IBC_REQUIRE(p >= 1 && p < envs_.size());
  return *envs_[p];
}

void SimCluster::restart(ProcessId p) {
  IBC_REQUIRE_MSG(net_.crashed(p), "restart of a process that is alive");
  envs_[p]->bump_epoch();
  net_.restart(p);
}

}  // namespace ibc::runtime
