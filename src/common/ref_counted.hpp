#pragma once

// Intrusive, non-atomic reference counting for simulator payloads. The
// discrete-event core is single-threaded by design (the parallel sweep
// runner gives every trial its own driver and pool, so refcounts are
// never shared across threads), which makes an atomic control block —
// what shared_ptr pays for on every copy of every message — pure waste on
// the hot path. See DESIGN.md "Message memory".
//
// A RefCounted object may carry a *disposer*: a function pointer invoked
// when the count reaches zero, instead of `delete`. The message pool uses
// this to return pooled objects to their slab; plain heap objects (tests,
// one-off app payloads) leave it null and are deleted normally.

#include <cstdint>

namespace mspastry {

class RefCounted {
 public:
  /// Called when the refcount reaches zero. `ctx` is whatever was passed
  /// to set_disposer (the pool passes the slab slot).
  using Disposer = void (*)(void* ctx, const RefCounted* obj);

  RefCounted() = default;
  /// Copies start a fresh life: the count and disposer are object
  /// identity, not payload. Per-hop message clones depend on this.
  RefCounted(const RefCounted&) noexcept {}
  RefCounted& operator=(const RefCounted&) noexcept { return *this; }
  virtual ~RefCounted() = default;

  /// Number of IntrusivePtrs currently referencing this object.
  std::uint32_t use_count() const noexcept { return refs_; }

  /// Install a custom deleter (for allocators/pools). Must be called
  /// before the object is shared; not part of the copyable state.
  void set_disposer(Disposer d, void* ctx) noexcept {
    dispose_ = d;
    dispose_ctx_ = ctx;
  }

  /// The disposer context, if any (the pool's slab slot). Exposed so the
  /// pool can recover per-slot metadata (generation) for its tests.
  void* disposer_context() const noexcept { return dispose_ctx_; }
  bool pooled() const noexcept { return dispose_ != nullptr; }

 private:
  friend inline void intrusive_add_ref(const RefCounted* p) noexcept;
  friend inline void intrusive_release(const RefCounted* p) noexcept;

  mutable std::uint32_t refs_ = 0;
  Disposer dispose_ = nullptr;
  void* dispose_ctx_ = nullptr;
};

inline void intrusive_add_ref(const RefCounted* p) noexcept { ++p->refs_; }

inline void intrusive_release(const RefCounted* p) noexcept {
  if (--p->refs_ != 0) return;
  if (p->dispose_ != nullptr) {
    p->dispose_(p->dispose_ctx_, p);
  } else {
    delete p;
  }
}

}  // namespace mspastry
