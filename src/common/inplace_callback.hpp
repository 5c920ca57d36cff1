#pragma once

// Move-only callable with small-buffer-optimised inline storage, the
// event core's replacement for std::function. Rationale (see DESIGN.md
// "Event core"): the simulator stores one callback per scheduled event
// and the paper's runs schedule millions of them, so callback storage
// must not heap-allocate on the hot path. std::function's inline buffer
// (16 bytes on libstdc++) is too small for even a [this, seq] capture
// wrapped in a liveness guard; BasicInplaceCallback sizes its buffer for
// the largest timer lambda in src/pastry / src/overlay instead.
//
// Callables larger than the inline capacity (or over-aligned ones) fall
// back to the heap. That is allowed but *counted* — a tier-1 test
// (ChaosHarness.TimerCallbacksNeverFallBackToTheHeap) fails if a keyed
// run moves callback_heap_fallbacks(), so a capture that quietly
// outgrows the buffer shows up as a test failure, not a mystery.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mspastry {

namespace detail {
/// Process-wide tally of callbacks that did not fit inline. Each
/// simulation is single-threaded, but the sweep runner (bench/
/// sweep_runner.hpp) runs independent trials on worker threads, so the
/// counter is a relaxed atomic — uncontended increments stay cheap.
inline std::atomic<std::uint64_t> callback_heap_fallbacks_{0};
}  // namespace detail

/// Number of BasicInplaceCallback constructions (since process start)
/// that had to heap-allocate their callable.
inline std::uint64_t callback_heap_fallbacks() {
  return detail::callback_heap_fallbacks_.load(std::memory_order_relaxed);
}

template <std::size_t InlineCapacity>
class BasicInplaceCallback {
 public:
  static constexpr std::size_t inline_capacity = InlineCapacity;

  BasicInplaceCallback() noexcept = default;
  BasicInplaceCallback(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, BasicInplaceCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  BasicInplaceCallback(F&& f) {  // NOLINT(runtime/explicit)
    construct(std::forward<F>(f));
  }

  /// Destroy the current callable (if any) and store a new one in place —
  /// lets the simulator build callbacks directly in their arena slot
  /// instead of constructing a temporary and relocating it.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, BasicInplaceCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  BasicInplaceCallback(BasicInplaceCallback&& o) noexcept { move_from(o); }

  BasicInplaceCallback& operator=(BasicInplaceCallback&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  BasicInplaceCallback(const BasicInplaceCallback&) = delete;
  BasicInplaceCallback& operator=(const BasicInplaceCallback&) = delete;

  ~BasicInplaceCallback() { reset(); }

  /// Invoke the stored callable; must be non-empty.
  void operator()() {
    assert(invoke_ != nullptr && "invoking an empty InplaceCallback");
    invoke_(storage_);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// True when a callable of type D is stored inline (no heap).
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= InlineCapacity &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  enum class Op { kDestroy, kRelocateTo };

  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* self, void* dst);

  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      // Trivially copyable callables (the common case: captures of
      // `this`, ids, times) need no manager — relocation is a memcpy of
      // the buffer and destruction is a no-op. The simulator moves every
      // callback twice at most (into its arena slot and back out to
      // fire), so this fast path is worth the branch.
      if constexpr (!std::is_trivially_copyable_v<D> ||
                    !std::is_trivially_destructible_v<D>) {
        manage_ = &inline_manage<D>;
      }
    } else {
      detail::callback_heap_fallbacks_.fetch_add(1,
                                                 std::memory_order_relaxed);
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      invoke_ = &boxed_invoke<D>;
      manage_ = &boxed_manage<D>;
    }
  }

  template <typename D>
  static void inline_invoke(void* s) {
    (*std::launder(reinterpret_cast<D*>(s)))();
  }
  template <typename D>
  static void inline_manage(Op op, void* s, void* dst) {
    D* self = std::launder(reinterpret_cast<D*>(s));
    if (op == Op::kRelocateTo) {
      ::new (dst) D(std::move(*self));
    }
    self->~D();
  }

  template <typename D>
  static void boxed_invoke(void* s) {
    (**std::launder(reinterpret_cast<D**>(s)))();
  }
  template <typename D>
  static void boxed_manage(Op op, void* s, void* dst) {
    D** box = std::launder(reinterpret_cast<D**>(s));
    if (op == Op::kRelocateTo) {
      ::new (dst) D*(*box);  // steal the heap box; no allocation
    } else {
      delete *box;
    }
  }

  void move_from(BasicInplaceCallback& o) noexcept {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (o.manage_ != nullptr) {
      o.manage_(Op::kRelocateTo, o.storage_, storage_);
    } else if (o.invoke_ != nullptr) {
      std::memcpy(storage_, o.storage_, InlineCapacity);  // trivial callable
    }
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[InlineCapacity];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

/// Inline capacity for protocol-node timer callbacks (PastryNode via
/// Env::schedule): the largest real capture is [this, NodeDescriptor]
/// = 8 + 24 = 32 bytes; 48 leaves headroom.
inline constexpr std::size_t kEnvCallbackCapacity = 48;
using InplaceCallback = BasicInplaceCallback<kEnvCallbackCapacity>;

}  // namespace mspastry
