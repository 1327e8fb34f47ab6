// Per-rank worker pool for shared-memory parallel region execution.
//
// One pool belongs to one simulated rank: the rank thread is participant
// 0 and `threads - 1` long-lived workers join it inside run(). run() is a
// fork-join barrier — it returns only after every participant finished —
// so the caller may freely read/write rank-local state between calls
// without extra synchronisation (the completion handshake goes through
// the pool mutex, which publishes all worker writes to the caller).
//
// Exceptions thrown by any participant (e.g. the validation raise in
// resolve_arg) are captured and the first one is rethrown from run() on
// the rank thread, preserving the World::run error-collection contract.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace op2ca::util {

class ThreadPool {
public:
  /// Total participant count including the caller; spawns threads - 1
  /// workers. threads must be >= 1 (1 = no workers, run() degenerates to
  /// a plain call of fn(0)).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Invokes fn(t) for every t in [0, threads) — t = 0 on the calling
  /// thread — and blocks until all participants returned. Rethrows the
  /// first captured exception. Not reentrant.
  void run(const std::function<void(int)>& fn);

  /// Total seconds participants spent inside fn across all run() calls
  /// (per-thread busy time, summed). Stable between run() calls.
  double busy_seconds() const { return busy_seconds_; }

private:
  void worker_main(int index);

  int threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped per run(); wakes workers.
  int remaining_ = 0;             ///< participants still inside the job.
  bool stopping_ = false;
  std::exception_ptr first_error_;
  double busy_seconds_ = 0;
};

}  // namespace op2ca::util
