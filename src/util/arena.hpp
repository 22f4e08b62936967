#pragma once
// 64-byte-aligned bump arena for the scheduling engine's per-call scratch
// state (DESIGN.md §8.2). The engine walks several per-task lanes (radix-sort
// ids and keys, indegree, slot placement, the ready bitmap); carving them out
// of one reusable allocation
//   - starts every lane on its own cache line,
//   - replaces N vector allocations per call with zero once warm (trial
//     fan-outs run thousands of schedules per thread).
//
// Usage: reserve() the call's total footprint once, then alloc() each lane.
// alloc() never grows the block — growth would invalidate previously
// returned lanes — so an alloc beyond the reservation throws. Lanes are
// uninitialized unless alloc_zero() is used; only trivial types are
// supported (nothing is ever destroyed, the cursor just rewinds).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>

namespace sweep::util {

class Arena {
 public:
  static constexpr std::size_t kAlignment = 64;

  Arena() = default;
  ~Arena() {
    if (block_ != nullptr) {
      ::operator delete[](block_, std::align_val_t{kAlignment});
    }
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Rewinds the cursor and guarantees `bytes` of capacity (rounded up per
  /// lane to 64). Invalidates every lane returned since the last reserve.
  void reserve(std::size_t bytes) {
    if (bytes > capacity_) {
      if (block_ != nullptr) {
        ::operator delete[](block_, std::align_val_t{kAlignment});
        block_ = nullptr;
        capacity_ = 0;
      }
      block_ = static_cast<std::byte*>(
          ::operator new[](bytes, std::align_val_t{kAlignment}));
      capacity_ = bytes;
    }
    used_ = 0;
  }

  /// Worst-case footprint of a lane of `n` T's, for sizing reserve().
  template <typename T>
  [[nodiscard]] static constexpr std::size_t lane_bytes(std::size_t n) {
    return round_up(n * sizeof(T)) + kAlignment;
  }

  /// Carves an uninitialized, 64-byte-aligned lane of `n` T's.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Arena lanes hold trivial types only");
    const std::size_t bytes = round_up(n * sizeof(T));
    if (used_ + bytes > capacity_) {
      throw std::logic_error("Arena: allocation beyond reservation");
    }
    std::byte* p = block_ + used_;
    used_ += bytes;
    return reinterpret_cast<T*>(p);
  }

  /// alloc() + zero-fill (the vectorizable memset path).
  template <typename T>
  [[nodiscard]] T* alloc_zero(std::size_t n) {
    T* p = alloc<T>(n);
    std::memset(static_cast<void*>(p), 0, n * sizeof(T));
    return p;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  static constexpr std::size_t round_up(std::size_t bytes) {
    return (bytes + kAlignment - 1) & ~(kAlignment - 1);
  }

  std::byte* block_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace sweep::util
