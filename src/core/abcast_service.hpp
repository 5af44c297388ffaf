// Atomic-broadcast service abstraction.
//
// Uniform atomic broadcast (§2.1): Validity (a correct broadcaster
// eventually delivers its own message), Uniform integrity (at most once,
// only if broadcast), Uniform agreement (if *any* process delivers m, all
// correct processes do) and Uniform total order. Two implementations:
//
//   * core::AbcastIds — Algorithm 1, ordering ids. Over indirect
//     consensus it is the paper's contribution, correct with plain
//     reliable broadcast. Over plain consensus it is correct when
//     combined with *uniform* reliable broadcast (§4.4); with plain
//     reliable broadcast it is the folklore FAULTY stack whose Validity
//     breaks under a crash (§2.2) — kept for the paper's overhead
//     comparison and the violation demonstration;
//   * abcast::AbcastMsgs — the [2] reduction, consensus on full messages
//     (correct; the Figure-1 baseline).
//
// Delivery subscriptions can be revoked: `subscribe` returns a token for
// `unsubscribe`, and `subscribe_scoped` returns an RAII `Subscription`
// handle, so a subscriber whose captures die before the service (the
// `ibc::Cluster` facade's `on_deliver`, test recorders) can detach
// instead of dangling. All subscription operations must run on the
// process's execution context (or while its host is stopped) — the same
// single-threaded discipline as every other protocol call.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/payload.hpp"
#include "util/types.hpp"

namespace ibc::abcast {
class Batcher;
}  // namespace ibc::abcast

namespace ibc::core {

namespace detail {

/// Subscriber list shared between a service and its RAII handles. The
/// service owns it; handles hold weak references, so a handle outliving
/// the service unsubscribes into nothing instead of dangling.
struct SubscriberRegistry {
  using Fn = std::function<void(const MessageId&, const Payload&)>;
  struct Entry {
    std::uint64_t token = 0;
    Fn fn;
  };

  std::vector<Entry> entries;
  std::uint64_t next_token = 1;
  int firing_depth = 0;      // >0 while fire() iterates
  bool pending_erase = false;

  std::uint64_t add(Fn fn) {
    entries.push_back(Entry{next_token, std::move(fn)});
    return next_token++;
  }

  void remove(std::uint64_t token) {
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->token != token) continue;
      if (firing_depth > 0) {
        // Unsubscribed from inside a delivery callback: tombstone now,
        // compact once the iteration unwinds.
        it->fn = nullptr;
        pending_erase = true;
      } else {
        entries.erase(it);
      }
      return;
    }
  }

  void fire(const MessageId& id, const Payload& payload) {
    ++firing_depth;
    // Indexed loop: callbacks may subscribe (append) reentrantly. Each
    // callback is invoked through a COPY: a reentrant subscribe can
    // reallocate `entries`, and a reentrant unsubscribe tombstones the
    // stored function — either would otherwise destroy the closure
    // mid-execution.
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (!entries[i].fn) continue;
      const Fn fn = entries[i].fn;
      fn(id, payload);
    }
    if (--firing_depth == 0 && pending_erase) {
      std::erase_if(entries, [](const Entry& e) { return e.fn == nullptr; });
      pending_erase = false;
    }
  }
};

}  // namespace detail

/// RAII delivery subscription: detaches the callback when destroyed (or
/// `reset()`). Safe to destroy after the service itself is gone.
class [[nodiscard]] Subscription {
 public:
  Subscription() = default;
  Subscription(Subscription&& other) noexcept
      : registry_(std::move(other.registry_)),
        token_(std::exchange(other.token_, 0)) {}
  Subscription& operator=(Subscription&& other) noexcept {
    if (this != &other) {
      reset();
      registry_ = std::move(other.registry_);
      token_ = std::exchange(other.token_, 0);
    }
    return *this;
  }
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;
  ~Subscription() { reset(); }

  /// Unsubscribes now; idempotent.
  void reset() {
    if (token_ != 0) {
      if (const auto registry = registry_.lock()) registry->remove(token_);
    }
    token_ = 0;
    registry_.reset();
  }

  /// True while the callback is still registered on a live service.
  bool active() const { return token_ != 0 && !registry_.expired(); }

 private:
  friend class AbcastService;
  Subscription(std::weak_ptr<detail::SubscriberRegistry> registry,
               std::uint64_t token)
      : registry_(std::move(registry)), token_(token) {}

  std::weak_ptr<detail::SubscriberRegistry> registry_;
  std::uint64_t token_ = 0;
};

class AbcastService {
 public:
  /// (id, payload) — delivery order is identical at all processes. The
  /// Payload is a shared view and may be retained past the callback;
  /// subscribers that only read can declare a `BytesView` parameter.
  using DeliverFn = std::function<void(const MessageId&, const Payload&)>;

  /// Identifies one subscription for `unsubscribe`. 0 is never issued.
  using SubscriberToken = std::uint64_t;

  virtual ~AbcastService() = default;

  /// Atomically broadcasts `payload`; returns the identifier assigned to
  /// the message (unique: this process id + a local sequence number).
  virtual MessageId abroadcast(Bytes payload) = 0;

  /// The sender-side payload batcher, when this implementation
  /// disseminates through one (all three stacks do); null otherwise.
  /// Exposes the dissemination counters (`batches_sent`, …).
  virtual const abcast::Batcher* batcher() const { return nullptr; }

  /// Registers a delivery callback for the lifetime of the service (or
  /// until `unsubscribe(token)`).
  SubscriberToken subscribe(DeliverFn fn) {
    return registry_->add(std::move(fn));
  }

  /// Removes a subscription; no-op on an already-removed token. Legal
  /// from inside a delivery callback.
  void unsubscribe(SubscriberToken token) { registry_->remove(token); }

  /// Registers a delivery callback owned by the returned RAII handle.
  Subscription subscribe_scoped(DeliverFn fn) {
    return Subscription(registry_, registry_->add(std::move(fn)));
  }

  /// Live subscriptions (diagnostics/tests).
  std::size_t subscriber_count() const {
    std::size_t live = 0;
    for (const auto& e : registry_->entries)
      if (e.fn) ++live;
    return live;
  }

 protected:
  void fire_deliver(const MessageId& id, const Payload& payload) const {
    registry_->fire(id, payload);
  }

 private:
  std::shared_ptr<detail::SubscriberRegistry> registry_ =
      std::make_shared<detail::SubscriberRegistry>();
};

}  // namespace ibc::core
