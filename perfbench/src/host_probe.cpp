#include "host_probe.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace perfbench {
namespace {

/// Anonymous mapping of n objects of T, unmapped on destruction.
template <typename T>
class Mapped {
 public:
  explicit Mapped(std::size_t n) : bytes_(n * sizeof(T)) {
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }
  ~Mapped() { munmap(data_, bytes_); }
  Mapped(const Mapped&) = delete;
  Mapped& operator=(const Mapped&) = delete;
  T& operator[](std::size_t i) { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + bytes_ / sizeof(T); }

 private:
  std::size_t bytes_;
  T* data_;
};

/// xorshift64*: a fixed sequence, so every probe does the same work.
struct Xorshift {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dull;
  }
};

struct Event {
  std::uint64_t at;
  std::uint32_t slot;
};

struct Payload {
  std::uint64_t words[8];  // one cache line
};

constexpr std::size_t kArena = std::size_t{1} << 21;  // 2 Mi x 4 B = 8 MiB
constexpr std::size_t kChase = 1000000;
constexpr std::size_t kEvents = 150000;  // 150 k x 64 B payloads = 9.6 MB
constexpr std::size_t kHeapOps = 400000;

}  // namespace

double host_probe_s() {
  const auto t0 = std::chrono::steady_clock::now();
  Xorshift rng{0x9d2c5680u};
  std::uint64_t sink = 0;
  {
    // One random cycle through the arena (Sattolo), then walk it.
    Mapped<std::uint32_t> next(kArena);
    for (std::size_t i = 0; i < kArena; ++i) {
      next[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = kArena - 1; i > 0; --i) {
      std::swap(next[i], next[rng.next() % i]);
    }
    std::uint32_t p = 0;
    for (std::size_t i = 0; i < kChase; ++i) {
      p = next[p];
      sink += p;
    }
  }
  {
    // A timed-event heap: pop the earliest event, touch its payload,
    // reschedule it later.
    Mapped<Payload> payloads(kEvents);
    Mapped<Event> heap(kEvents);
    auto later = [](const Event& a, const Event& b) { return a.at > b.at; };
    for (std::size_t i = 0; i < kEvents; ++i) {
      heap[i] = Event{rng.next() >> 20, static_cast<std::uint32_t>(i)};
      payloads[i].words[0] = i;
    }
    std::make_heap(heap.begin(), heap.end(), later);
    for (std::size_t i = 0; i < kHeapOps; ++i) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Event& e = heap[kEvents - 1];
      Payload& pl = payloads[e.slot];
      sink += pl.words[0];
      pl.words[i & 7] += e.at;
      e.at += 1 + (rng.next() & 0xffffff);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Keep the work observable so the optimiser cannot drop it.
  asm volatile("" : : "r"(sink) : "memory");
  return s;
}

}  // namespace perfbench
