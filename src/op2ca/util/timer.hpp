// Wall-clock timers.
//
// WallTimer measures real host time (used for kernel-cost calibration and
// small-scale execution benches); ScopedWallTimer accumulates a scope's
// wall time into a caller's counter.
#pragma once

#include <chrono>
#include <cstdint>

namespace op2ca {

/// Monotonic wall-clock stopwatch.
class WallTimer {
public:
  WallTimer() { reset(); }

  void reset() { start_ = Clock::now(); }

  /// Seconds since construction or the last reset().
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Scoped accumulation of wall time into a double.
class ScopedWallTimer {
public:
  explicit ScopedWallTimer(double& sink) : sink_(sink) {}
  ~ScopedWallTimer() { sink_ += timer_.elapsed(); }
  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

private:
  double& sink_;
  WallTimer timer_;
};

}  // namespace op2ca
