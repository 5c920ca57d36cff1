#pragma once

// Slab pool for wire messages, the message-layer sibling of the event
// core's timer arena (sim/simulator.hpp). Every message type gets its own
// free-listed slab of fixed-size slots; allocation is a free-list pop +
// placement-new, and release (driven by the intrusive refcount's disposer
// hook) is a destructor call + free-list push. After warmup the working
// set of in-flight messages stabilises, so steady-state traffic allocates
// zero heap: new slab chunks are *counted* (Stats::chunk_allocs) exactly
// like callback heap fallbacks, and MessagePoolDifferential asserts the
// count stays flat when its script is replayed on a warm pool.
//
// Recycling is generation-checked, mirroring the timer arena's
// (gen << 32 | slot) handles: each slot carries a generation bumped on
// every release, so tests can prove that a recycled slot is a genuinely
// new object and that aliased in-flight references (the fault plan's
// duplication rule delivers one packet several times) pin the slot until
// the last reference drops.
//
// The pool must outlive every message allocated from it — drivers declare
// it before the engine members that hold messages in flight.
// The destructor asserts this (live() == 0) in debug builds.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/intrusive_ptr.hpp"
#include "common/ref_counted.hpp"

namespace mspastry::pastry {

class MessagePool {
 public:
  struct Stats {
    std::uint64_t allocated = 0;    ///< total make<T>() calls
    std::uint64_t reused = 0;       ///< served from a slab free list
    std::uint64_t chunk_allocs = 0; ///< heap fallbacks: fresh slab chunks
    std::uint64_t live = 0;         ///< objects currently outstanding
  };

  MessagePool() = default;
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  ~MessagePool() {
    assert(stats_.live == 0 &&
           "messages outlived their pool; fix destruction order");
  }

  /// Allocate a T from its slab (pooled, recycled on last release).
  template <class T, class... Args>
  IntrusivePtr<T> make(Args&&... args) {
    static_assert(std::is_base_of_v<RefCounted, T>,
                  "pooled types must derive RefCounted");
    return IntrusivePtr<T>(
        slab_for<T>().allocate(std::forward<Args>(args)...));
  }

  const Stats& stats() const noexcept { return stats_; }
  std::uint64_t live() const noexcept { return stats_.live; }

  /// Generation of the slab slot holding `obj`; 0 for unpooled objects.
  /// Bumped on every release, so two allocations that reuse one slot are
  /// distinguishable even though their addresses match.
  static std::uint32_t slot_generation(const RefCounted& obj) noexcept {
    const void* ctx = obj.disposer_context();
    return ctx != nullptr ? static_cast<const SlotHeader*>(ctx)->gen : 0;
  }

 private:
  struct SlotHeader {
    void* owner = nullptr;          ///< the TypedSlab<T> this slot belongs to
    SlotHeader* next_free = nullptr;
    std::uint32_t gen = 0;
  };

  class SlabBase {
   public:
    virtual ~SlabBase() = default;
  };

  template <class T>
  class TypedSlab final : public SlabBase {
   public:
    /// Slots per chunk: big enough to amortise the chunk allocation, small
    /// enough that rare message types do not pin much memory.
    static constexpr std::size_t kChunkSlots = 64;

    struct Slot : SlotHeader {
      alignas(T) unsigned char storage[sizeof(T)];
    };

    explicit TypedSlab(Stats& stats) : stats_(stats) {}

    ~TypedSlab() override {
      for (Slot* chunk : chunks_) {
        ::operator delete(chunk, std::align_val_t{alignof(Slot)});
      }
    }

    template <class... Args>
    T* allocate(Args&&... args) {
      Slot* s = free_;
      if (s != nullptr) {
        free_ = static_cast<Slot*>(s->next_free);
        ++stats_.reused;
      } else {
        s = carve();
      }
      T* obj = ::new (static_cast<void*>(s->storage))
          T(std::forward<Args>(args)...);
      obj->set_disposer(&TypedSlab::recycle, static_cast<SlotHeader*>(s));
      ++stats_.allocated;
      ++stats_.live;
      return obj;
    }

   private:
    Slot* carve() {
      if (next_in_chunk_ == kChunkSlots) {
        chunks_.push_back(static_cast<Slot*>(::operator new(
            kChunkSlots * sizeof(Slot), std::align_val_t{alignof(Slot)})));
        ++stats_.chunk_allocs;
        next_in_chunk_ = 0;
      }
      Slot* s = chunks_.back() + next_in_chunk_++;
      s->owner = this;
      s->next_free = nullptr;
      s->gen = 1;
      return s;
    }

    static void recycle(void* ctx, const RefCounted* obj) {
      auto* slot = static_cast<Slot*>(static_cast<SlotHeader*>(ctx));
      auto* self = static_cast<TypedSlab*>(slot->owner);
      // The disposer is registered per-T, so the downcast is exact.
      static_cast<const T*>(obj)->~T();
      ++slot->gen;  // anything still holding the old address can be caught
      slot->next_free = self->free_;
      self->free_ = slot;
      --self->stats_.live;
    }

    Stats& stats_;
    Slot* free_ = nullptr;
    std::vector<Slot*> chunks_;
    std::size_t next_in_chunk_ = kChunkSlots;
  };

  /// Process-wide dense type index: one increment per distinct T, so the
  /// per-pool lookup is a vector index, not a type_index hash. Atomic
  /// because sweep-runner trials build pools on worker threads.
  static std::size_t next_type_index() noexcept {
    static std::atomic<std::size_t> n{0};
    return n.fetch_add(1, std::memory_order_relaxed);
  }

  template <class T>
  static std::size_t type_index_of() noexcept {
    static const std::size_t idx = next_type_index();
    return idx;
  }

  template <class T>
  TypedSlab<T>& slab_for() {
    const std::size_t idx = type_index_of<T>();
    if (idx >= slabs_.size()) slabs_.resize(idx + 1);
    auto& slab = slabs_[idx];
    if (slab == nullptr) slab = std::make_unique<TypedSlab<T>>(stats_);
    return static_cast<TypedSlab<T>&>(*slab);
  }

  std::vector<std::unique_ptr<SlabBase>> slabs_;
  Stats stats_;
};

/// The factory the protocol code uses: make_msg<LsProbeMsg>(pool, ...).
template <class T, class... Args>
IntrusivePtr<T> make_msg(MessagePool& pool, Args&&... args) {
  return pool.make<T>(std::forward<Args>(args)...);
}

}  // namespace mspastry::pastry
