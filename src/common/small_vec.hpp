#pragma once

// Inline-capacity vector for message payloads. Leaf-set and routing-row
// payloads have small, protocol-fixed cardinalities (|L| = 32 members,
// 2^b = 16 columns per row), so a vector sized for the common case keeps
// the whole message — header and payload — inside one pool slab slot and
// makes per-hop clones a flat copy with no allocator round trips.
//
// Elements beyond the inline capacity spill to the heap. That is allowed
// but *counted* (the inplace_callback heap-fallback idiom):
// MessagePoolDifferential asserts small_vec_spills() stays flat on a warm
// pool, so a payload type that outgrows its capacity there fails a test.
// The counter is a relaxed atomic because sweep-runner trials run on
// worker threads.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace mspastry {

namespace detail {
inline std::atomic<std::uint64_t> small_vec_spills_{0};
}  // namespace detail

/// Number of SmallVec grow operations (since process start) that moved a
/// payload to the heap because it outgrew its inline capacity.
inline std::uint64_t small_vec_spills() {
  return detail::small_vec_spills_.load(std::memory_order_relaxed);
}

template <class T, std::size_t N>
class SmallVec {
 public:
  static_assert(N > 0, "inline capacity must be positive");

  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept : data_(inline_data()) {}

  SmallVec(const SmallVec& o) : SmallVec() { assign(o.begin(), o.end()); }

  SmallVec(SmallVec&& o) noexcept : SmallVec() { steal_from(o); }

  SmallVec(std::initializer_list<T> init) : SmallVec() {
    assign(init.begin(), init.end());
  }

  /// Converting from std::vector is deliberately implicit: message fields
  /// are assigned from routing-state accessors that return vectors.
  SmallVec(const std::vector<T>& v) : SmallVec() {  // NOLINT
    assign(v.begin(), v.end());
  }

  ~SmallVec() { destroy_all(); }

  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }

  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      destroy_all();
      steal_from(o);
    }
    return *this;
  }

  SmallVec& operator=(const std::vector<T>& v) {
    assign(v.begin(), v.end());
    return *this;
  }

  SmallVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  template <class InputIt>
  void assign(InputIt first, InputIt last) {
    clear();
    if constexpr (std::forward_iterator<InputIt>) {
      // Sized sources take the bulk path: one capacity check, then a
      // batch construct (a memcpy for the trivially copyable descriptor
      // payloads this type exists for).
      const auto n = static_cast<size_type>(std::distance(first, last));
      reserve(n);
      std::uninitialized_copy(first, last, data_);
      size_ = n;
    } else {
      for (; first != last; ++first) push_back(*first);
    }
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }
  const_iterator cbegin() const noexcept { return begin(); }
  const_iterator cend() const noexcept { return end(); }

  size_type size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  size_type capacity() const noexcept { return cap_; }
  static constexpr size_type inline_capacity() noexcept { return N; }
  bool spilled() const noexcept { return data_ != inline_data(); }

  T& operator[](size_type i) noexcept {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_type i) const noexcept {
    assert(i < size_);
    return data_[i];
  }
  T& front() noexcept { return data_[0]; }
  const T& front() const noexcept { return data_[0]; }
  T& back() noexcept { return data_[size_ - 1]; }
  const T& back() const noexcept { return data_[size_ - 1]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow(size_ + 1);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() noexcept {
    assert(size_ > 0);
    data_[--size_].~T();
  }

  /// Insert before `pos`, shifting the tail right. Takes the value by
  /// value so inserting an element of *this cannot alias the shift.
  iterator insert(const_iterator pos, T v) {
    const size_type i = static_cast<size_type>(pos - data_);
    assert(i <= size_);
    if (size_ == cap_) grow(size_ + 1);
    if (i == size_) {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(v));
    } else {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(data_[size_ - 1]));
      for (size_type j = size_ - 1; j > i; --j) {
        data_[j] = std::move(data_[j - 1]);
      }
      data_[i] = std::move(v);
    }
    ++size_;
    return data_ + i;
  }

  iterator erase(const_iterator pos) {
    const size_type i = static_cast<size_type>(pos - data_);
    assert(i < size_);
    for (size_type j = i; j + 1 < size_; ++j) {
      data_[j] = std::move(data_[j + 1]);
    }
    data_[--size_].~T();
    return data_ + i;
  }

  void clear() noexcept {
    for (size_type i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void reserve(size_type n) {
    if (n > cap_) grow(n);
  }

  void resize(size_type n) {
    if (n < size_) {
      for (size_type i = n; i < size_; ++i) data_[i].~T();
    } else {
      if (n > cap_) grow(n);
      for (size_type i = size_; i < n; ++i) {
        ::new (static_cast<void*>(data_ + i)) T();
      }
    }
    size_ = n;
  }

 private:
  T* inline_data() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_storage_));
  }
  const T* inline_data() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  void grow(size_type need) {
    size_type cap = cap_ * 2;
    if (cap < need) cap = need;
    T* fresh = std::allocator<T>{}.allocate(cap);
    for (size_type i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (spilled()) {
      std::allocator<T>{}.deallocate(data_, cap_);
    } else {
      detail::small_vec_spills_.fetch_add(1, std::memory_order_relaxed);
    }
    data_ = fresh;
    cap_ = cap;
  }

  void destroy_all() noexcept {
    clear();
    if (spilled()) std::allocator<T>{}.deallocate(data_, cap_);
  }

  /// Take o's contents; *this must be empty-inline. A spilled source hands
  /// over its heap block; an inline source is moved elementwise (still
  /// cheap: ≤ N moves of trivially movable descriptors).
  void steal_from(SmallVec& o) noexcept {
    if (o.spilled()) {
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.data_ = o.inline_data();
      o.size_ = 0;
      o.cap_ = N;
    } else {
      data_ = inline_data();
      size_ = o.size_;
      cap_ = N;
      for (size_type i = 0; i < size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(o.data_[i]));
        o.data_[i].~T();
      }
      o.size_ = 0;
    }
  }

  T* data_;
  size_type size_ = 0;
  size_type cap_ = N;
  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
};

template <class T, std::size_t A, std::size_t B>
bool operator==(const SmallVec<T, A>& a, const SmallVec<T, B>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

template <class T, std::size_t A, std::size_t B>
bool operator!=(const SmallVec<T, A>& a, const SmallVec<T, B>& b) {
  return !(a == b);
}

}  // namespace mspastry
