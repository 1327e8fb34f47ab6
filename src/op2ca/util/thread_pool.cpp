#include "op2ca/util/thread_pool.hpp"

#include "op2ca/util/error.hpp"
#include "op2ca/util/timer.hpp"

namespace op2ca::util {

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  OP2CA_REQUIRE(threads >= 1, "ThreadPool needs threads >= 1");
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t)
    workers_.emplace_back(&ThreadPool::worker_main, this, t);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run(const std::function<void(int)>& fn) {
  if (threads_ == 1) {
    WallTimer t;
    fn(0);
    busy_seconds_ += t.elapsed();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    remaining_ = threads_;
    ++generation_;
  }
  start_cv_.notify_all();

  // Participant 0: the rank thread works alongside the workers.
  WallTimer t;
  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  const double elapsed = t.elapsed();

  std::unique_lock<std::mutex> lock(mu_);
  busy_seconds_ += elapsed;
  if (caller_error && !first_error_) first_error_ = caller_error;
  if (--remaining_ > 0)
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_main(int index) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    start_cv_.wait(lock,
                   [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    const std::function<void(int)>* job = job_;
    lock.unlock();

    WallTimer t;
    std::exception_ptr error;
    try {
      (*job)(index);
    } catch (...) {
      error = std::current_exception();
    }
    const double elapsed = t.elapsed();

    lock.lock();
    busy_seconds_ += elapsed;
    if (error && !first_error_) first_error_ = error;
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

}  // namespace op2ca::util
