// Small-buffer-optimized event closure: the allocation-free EventFn.
//
// The DES hot path schedules millions of short-lived closures per simulated
// second. std::function heap-allocates once its (implementation-defined,
// typically 16-byte) inline buffer overflows, which every capture of
// [this, app_id, unit_index, ...] does. InlineEvent gives event callbacks 64
// bytes of inline storage — enough for every steady-state closure in this
// repository — and falls back to the heap only for oversized captures, so
// the event kernel executes with zero allocations per event (see
// bench/micro_substrate.cpp's allocation-counting hook).
//
// Move-only by design: closures are scheduled once and invoked once, and
// copyability is what forces std::function to heap-allocate move-only
// captures behind shared wrappers. Dispatch is a three-entry static vtable
// (invoke / relocate / destroy) rather than virtual inheritance, keeping the
// object trivially relocatable storage plus one pointer.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace vs::sim {

class InlineEvent {
 public:
  /// Bytes of inline closure storage. The largest steady-state capture in
  /// the runtime, BoardRuntime's execution-end closure (a this pointer,
  /// three ints and a SimTime), takes 32; the rest is headroom. Larger
  /// captures still work via a heap fallback.
  static constexpr std::size_t kInlineSize = 64;

  InlineEvent() noexcept = default;
  InlineEvent(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineEvent> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  InlineEvent(F&& f) {  // NOLINT: implicit, mirrors std::function
    construct(std::forward<F>(f));
  }

  InlineEvent(InlineEvent&& other) noexcept { take(other); }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  /// Replaces the held closure with `f`, built in this event's own storage:
  /// the event queue, sim::Core and the OCM build a caller's lambda where
  /// it will run instead of relocating a temporary InlineEvent into place.
  /// An InlineEvent argument is moved in (one relocation).
  template <typename F>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, InlineEvent>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "InlineEvent is move-only: pass an rvalue");
      *this = std::move(f);
    } else {
      static_assert(std::is_invocable_r_v<void, std::remove_cvref_t<F>&>,
                    "an event callback must be callable as void()");
      reset();
      construct(std::forward<F>(f));
    }
  }

  InlineEvent& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { reset(); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() {
    assert(vt_ != nullptr && "invoking an empty InlineEvent");
    vt_->invoke(buf_);
  }

  /// Destroys the held closure (no-op when empty).
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  /// True when a callable of F's size and alignment lives in the inline
  /// buffer rather than behind a heap pointer (exposed for tests).
  template <typename F>
  static constexpr bool stores_inline() noexcept {
    using D = std::remove_cvref_t<F>;
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct VTable {
    void (*invoke)(void* self);
    /// Move-constructs the closure from `from` into `to`, destroying the
    /// source: the primitive a move of the whole InlineEvent needs.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr VTable kInlineVTable = {
      [](void* self) { (*std::launder(reinterpret_cast<D*>(self)))(); },
      [](void* from, void* to) noexcept {
        D* src = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* self) noexcept {
        std::launder(reinterpret_cast<D*>(self))->~D();
      },
  };

  // Heap fallback: the buffer holds just a D*, so relocation moves the
  // pointer and never re-moves the (possibly expensive) closure itself.
  template <typename D>
  static constexpr VTable kHeapVTable = {
      [](void* self) { (**std::launder(reinterpret_cast<D**>(self)))(); },
      [](void* from, void* to) noexcept {
        D** src = std::launder(reinterpret_cast<D**>(from));
        ::new (to) D*(*src);
      },
      [](void* self) noexcept {
        delete *std::launder(reinterpret_cast<D**>(self));
      },
  };

  /// Moves `other`'s closure into this (empty) event, leaving `other` empty.
  void take(InlineEvent& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(other.buf_, buf_);
      other.vt_ = nullptr;
    }
  }

  /// Builds `f` in this (empty) event's storage.
  template <typename F>
  void construct(F&& f) {
    using D = std::remove_cvref_t<F>;
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &kInlineVTable<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &kHeapVTable<D>;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineSize];
};

}  // namespace vs::sim
