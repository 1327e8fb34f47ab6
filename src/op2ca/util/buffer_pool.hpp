// Recycling pool of byte buffers for message staging.
//
// The zero-copy transport moves send payloads into the destination
// mailbox, so a sender cannot keep reusing one staging buffer: every
// isend gives its storage away. The pool closes the loop instead: after a
// rank unpacks a received message it hands the (moved-in) payload back to
// the pool of the rank that SENT it (give_back), and that rank's next
// pack acquires it. Every buffer therefore returns to the pool that sized
// it, whatever the exchange's shape: a rank that sends more, or larger,
// messages than it receives still gets each of its buffers back. With the
// spares cached exchanges reserve for the buffers still in flight
// (reserve_spares), the steady state performs zero heap allocations.
//
// The high-water mark DECAYS: demand is tracked per window of
// kDecayWindow takes, and when a window closes the mark drops to that
// window's maximum and pooled buffers an old spike left behind (capacity
// beyond twice the new mark) are freed. A one-off large chain therefore
// stops pinning peak memory once steady-state traffic shrinks, while a
// steady workload — whose window maximum equals its message size — keeps
// its buffers and its zero-allocation property.
//
// One pool belongs to one rank thread: take / release are not
// thread-safe. Only give_back may be called from other ranks' threads;
// it parks the buffer behind a mutex until the owner's next take().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "op2ca/util/aligned.hpp"

namespace op2ca {

class BufferPool {
public:
  /// Returns a buffer resized to `bytes`. Best fit: the smallest pooled
  /// buffer that already holds `bytes` (keeping larger ones for larger
  /// requests — mixed message sizes would otherwise re-grow a small
  /// buffer every epoch); with no fit, the largest one grows. Counts an
  /// allocation when storage is created or grown. Every reserve is
  /// rounded up to a whole number of cache lines so recycled storage
  /// stays line-granular (ByteBuf's allocator provides the 64-byte
  /// block starts themselves).
  ByteBuf take(std::size_t bytes) {
    reclaim();
    high_water_ = std::max(high_water_, round_line(bytes));
    window_max_ = std::max(window_max_, round_line(bytes));
    if (++window_takes_ >= kDecayWindow) decay();
    if (free_.empty()) {
      ++allocations_;
      ByteBuf buf;
      buf.reserve(high_water_);  // one growth covers all future requests
      buf.resize(bytes);
      return buf;
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < free_.size(); ++i) {
      const std::size_t c = free_[i].capacity();
      const std::size_t b = free_[best].capacity();
      const bool better = b < bytes ? c > b : (c >= bytes && c < b);
      if (better) best = i;
    }
    ByteBuf buf = std::move(free_[best]);
    free_[best] = std::move(free_.back());
    free_.pop_back();
    if (buf.capacity() < bytes) {
      ++allocations_;
      buf.reserve(high_water_);
    }
    buf.resize(bytes);
    return buf;
  }

  /// Returns a buffer to the pool. Empty buffers are dropped, as are
  /// buffers an old demand spike oversized relative to the decayed
  /// high-water mark (letting their memory actually return to the heap).
  void release(ByteBuf buf) {
    if (buf.capacity() == 0) return;
    if (buf.capacity() > retain_cap()) return;  // spike leftover
    if (free_.size() >= kMaxPooled) return;     // let it free
    free_.push_back(std::move(buf));
  }

  /// Makes sure the pool has parked at least `count` spare buffers that
  /// hold `bytes` each; new ones count as allocations. A cached exchange
  /// reserves spares for its sends when it is built: a payload comes back
  /// only once its receiver has unpacked it, which can be after the
  /// sender has packed its next exchange, so the buffers the sender packs
  /// into next must already exist. A rank runs its exchanges one after
  /// another, so one spare set serves them all: it grows to the largest
  /// count asked for, and is replaced by a fresh set only when a larger
  /// size is asked for.
  void reserve_spares(std::size_t count, std::size_t bytes) {
    high_water_ = std::max(high_water_, round_line(bytes));
    if (bytes > spare_bytes_) {
      spare_bytes_ = bytes;
      spares_ = 0;
    }
    for (; spares_ < count && free_.size() < kMaxPooled; ++spares_) {
      ++allocations_;
      ByteBuf buf;
      buf.reserve(high_water_);
      free_.push_back(std::move(buf));
    }
  }

  /// Returns a buffer this pool lent out, from any thread (a peer rank
  /// that has finished unpacking the payload). The owner's next take()
  /// moves it into the free list under the release() rules.
  void give_back(ByteBuf buf) {
    if (buf.capacity() == 0) return;
    std::lock_guard<std::mutex> lock(returned_mu_);
    returned_.push_back(std::move(buf));
  }

  /// Times take() had to allocate or grow storage (steady state: flat).
  std::int64_t allocations() const { return allocations_; }
  std::size_t pooled() const { return free_.size(); }
  /// Total capacity currently parked in the pool.
  std::size_t pooled_bytes() const {
    std::size_t total = 0;
    for (const auto& b : free_) total += b.capacity();
    return total;
  }
  /// Current (decaying) demand estimate new allocations reserve for.
  std::size_t high_water() const { return high_water_; }

private:
  /// Runaway guard on parked buffers. Every buffer returns to the pool
  /// that allocated it, so a pool holds at most its own sends in flight
  /// plus the spare set; the guard sits well above that.
  static constexpr std::size_t kMaxPooled = 256;
  /// take() calls per demand window; one window of smaller requests is
  /// enough for the mark to follow demand down.
  static constexpr std::size_t kDecayWindow = 64;

  /// Reserve granularity: whole cache lines, matching the aligned block
  /// starts the ByteBuf allocator guarantees.
  static std::size_t round_line(std::size_t bytes) {
    return (bytes + util::kCacheLine - 1) & ~(util::kCacheLine - 1);
  }

  /// Retention threshold: 2x the mark tolerates allocator rounding and
  /// mild jitter without churning buffers at the boundary.
  std::size_t retain_cap() const { return 2 * high_water_; }

  /// Window rollover: the mark drops to the closing window's maximum and
  /// pooled capacities beyond the new retention threshold are freed.
  void decay() {
    high_water_ = window_max_;
    window_max_ = 0;
    window_takes_ = 0;
    free_.erase(std::remove_if(free_.begin(), free_.end(),
                               [this](const ByteBuf& b) {
                                 return b.capacity() > retain_cap();
                               }),
                free_.end());
  }

  /// Owner side of give_back: folds the parked buffers into the free
  /// list. clear() keeps the parking vector's capacity, so steady-state
  /// returns allocate nothing either.
  void reclaim() {
    std::lock_guard<std::mutex> lock(returned_mu_);
    for (ByteBuf& b : returned_) release(std::move(b));
    returned_.clear();
  }

  std::vector<ByteBuf> free_;
  std::mutex returned_mu_;
  std::vector<ByteBuf> returned_;  ///< given back, not yet reclaimed.
  std::int64_t allocations_ = 0;
  std::size_t high_water_ = 0;   ///< decaying demand estimate.
  std::size_t window_max_ = 0;   ///< largest request this window.
  std::size_t window_takes_ = 0;
  std::size_t spares_ = 0;       ///< spare set size (reserve_spares).
  std::size_t spare_bytes_ = 0;  ///< size the spare set was reserved at.
};

}  // namespace op2ca
