// A move-only `void()` callable for simulator events.
//
// `std::function` stores a callable inline only when it is trivially
// copyable and at most 16 B (libstdc++), so every network task — which
// captures a ref-counted `Payload` — paid a heap block per event. EventFn
// keeps captures of up to `kInlineBytes` in place and falls back to the
// heap only for larger, over-aligned or throwing-move callables. Being
// move-only, it also accepts captures such as `std::unique_ptr`.
// (C++20 has no `std::move_only_function`.)
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ibc::sim {

class EventFn {
 public:
  /// Inline capacity: `this`, two process ids, an incarnation and a
  /// `Payload` (56 B) fit, and so does a `std::function` plus two words.
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (stored_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { take(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Calls the stored callable; it must not be empty.
  void operator()() { ops_->invoke(buf_); }

  /// Destroys the stored callable (and its captures) now.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// True iff a callable of type F is stored without a heap block.
  template <class F>
  static constexpr bool stored_inline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= kAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  static constexpr std::size_t kAlign = alignof(void*);

  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable at `dst` and destroys it at `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  /// The object of type T that a constructor placed in `storage`.
  template <class T>
  static T* stored(void* storage) {
    return std::launder(static_cast<T*>(storage));
  }

  template <class F>
  static constexpr Ops kInlineOps{
      [](void* self) { (*stored<F>(self))(); },
      [](void* dst, void* src) noexcept {
        F* from = stored<F>(src);
        ::new (dst) F(std::move(*from));
        from->~F();
      },
      [](void* self) noexcept { stored<F>(self)->~F(); }};

  // The buffer holds only an owning F*; moving copies the pointer.
  template <class F>
  static constexpr Ops kHeapOps{
      [](void* self) { (**stored<F*>(self))(); },
      [](void* dst, void* src) noexcept { ::new (dst) F*(*stored<F*>(src)); },
      [](void* self) noexcept { delete *stored<F*>(self); }};

  void take(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ibc::sim
