// Cache-line-aligned storage for the data plane.
//
// Dat arrays and message staging buffers start on 64-byte boundaries so
// kernel row loops and the chunked memcpy pack paths never
// split their first vector across cache lines. std::vector's default
// allocator only guarantees alignof(std::max_align_t) (16 on x86-64);
// AlignedAlloc upgrades that without changing any vector semantics —
// moves still transfer the pointer, so buffers recycled through the
// BufferPool and the zero-copy transport keep their alignment for life.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace op2ca::util {

inline constexpr std::size_t kCacheLine = 64;

template <typename T, std::size_t Align = kCacheLine>
struct AlignedAlloc {
  using value_type = T;
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "Align must be a power of two >= alignof(T)");

  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t{Align});
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };
  friend bool operator==(const AlignedAlloc&, const AlignedAlloc&) {
    return true;
  }
};

/// 64-byte-aligned double storage for dat arrays.
using AlignedDVec = std::vector<double, AlignedAlloc<double>>;

/// True when `p` starts on a cache-line boundary.
inline bool cache_aligned(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & (kCacheLine - 1)) == 0;
}

}  // namespace op2ca::util

namespace op2ca {

/// Message staging / payload buffer: 64-byte-aligned byte storage, moved
/// end-to-end through the transport's mailboxes and the BufferPool.
using ByteBuf = std::vector<std::byte, util::AlignedAlloc<std::byte>>;

}  // namespace op2ca
