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
// captures behind shared wrappers. Dispatch is a four-entry static vtable
// (invoke / fire / relocate / destroy) rather than virtual inheritance,
// keeping the object trivially relocatable storage plus one pointer. fire
// is invoke and destroy fused: the event queue runs each event in its slab
// slot with that one indirect call, and never moves it out to run it.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace vs::sim {

/// A closure to be built where it runs: `make()` returns it as a prvalue,
/// and InlineEvent::emplace constructs that result directly in the event's
/// storage (C++17 guaranteed elision), so the closure is never moved.
/// sim::Core builds an idle core's op callback, wrapped with the core's
/// completion steps, inside its completion event this way.
template <typename Make>
struct BuildInPlace {
  Make make;
};

template <typename T>
inline constexpr bool is_build_in_place = false;
template <typename Make>
inline constexpr bool is_build_in_place<BuildInPlace<Make>> = true;

class InlineEvent {
 public:
  /// Bytes of inline closure storage. The largest steady-state captures in
  /// the runtime take 32: a launch op's callback wrapped for sim::Core (the
  /// core pointer, then a this pointer and three ints) and BoardRuntime's
  /// execution-end closure (a this pointer, three ints and a SimTime); the
  /// rest is headroom. Larger captures still work via a heap fallback.
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
  /// An InlineEvent argument is moved in (one relocation); a BuildInPlace
  /// argument's result is built here without a move.
  template <typename F>
  void emplace(F&& f) {
    using D = std::remove_cvref_t<F>;
    if constexpr (std::is_same_v<D, InlineEvent>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "InlineEvent is move-only: pass an rvalue");
      *this = std::move(f);
    } else if constexpr (is_build_in_place<D>) {
      using Built = std::invoke_result_t<decltype(f.make)&>;
      static_assert(std::is_invocable_r_v<void, Built&>,
                    "an event callback must be callable as void()");
      reset();
      build<Built>(f.make);
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

  /// Runs the closure once and destroys it where it lives, with one
  /// indirect call where operator() and reset() take two. The event reads
  /// empty from the call on; the closure is destroyed even if it throws.
  void fire() {
    assert(vt_ != nullptr && "firing an empty InlineEvent");
    std::exchange(vt_, nullptr)->fire(buf_);
  }

  /// Destroys the held closure (no-op when empty).
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  /// True when a callable of F's size and alignment lives in the inline
  /// buffer rather than behind a heap pointer.
  template <typename F>
  static constexpr bool stores_inline() noexcept {
    using D = std::remove_cvref_t<F>;
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  /// Destroys a closure when fire() returns or unwinds.
  template <typename D>
  struct DestroyAtExit {
    D* closure;
    ~DestroyAtExit() { closure->~D(); }
  };

  struct VTable {
    void (*invoke)(void* self);
    void (*fire)(void* self);  ///< invoke, then destroy
    /// Move-constructs the closure from `from` into `to`, destroying the
    /// source: the primitive a move of the whole InlineEvent needs.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr VTable kInlineVTable = {
      [](void* self) { (*std::launder(reinterpret_cast<D*>(self)))(); },
      [](void* self) {
        const DestroyAtExit<D> guard{std::launder(reinterpret_cast<D*>(self))};
        (*guard.closure)();
      },
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
      [](void* self) {
        const std::unique_ptr<D> owner(*std::launder(reinterpret_cast<D**>(self)));
        (*owner)();
      },
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
    auto forward = [&]() -> F&& { return std::forward<F>(f); };
    build<std::remove_cvref_t<F>>(forward);
  }

  /// Builds the D that `make()` yields in this (empty) event's storage.
  template <typename D, typename Make>
  void build(Make& make) {
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(make());
      vt_ = &kInlineVTable<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(make()));
      vt_ = &kHeapVTable<D>;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineSize];
};

}  // namespace vs::sim
