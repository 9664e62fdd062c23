// Fixed-size worker pool for embarrassingly parallel sweep execution.
//
// Deliberately minimal: submit() enqueues a std::function, workers drain the
// queue FIFO, wait_idle() blocks until every submitted task has finished,
// and the destructor drains whatever is still queued before joining. There
// are no futures or return channels — callers write results into
// pre-allocated slots they own (see sim/sweep.hpp), which keeps the
// parallel runs free of shared mutable state.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace nocsim {

class ThreadPool {
 public:
  explicit ThreadPool(int threads) {
    NOCSIM_CHECK(threads > 0);
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task; never blocks. Tasks start FIFO across the workers.
  void submit(std::function<void()> task) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      NOCSIM_CHECK_MSG(!stopping_, "ThreadPool::submit after shutdown began");
      queue_.push_back(std::move(task));
      ++unfinished_;
    }
    work_cv_.notify_one();
  }

  /// Block until every task submitted so far has completed.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ set and queue drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (--unfinished_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< work available, or shutting down
  std::condition_variable idle_cv_;  ///< unfinished_ reached zero
  std::deque<std::function<void()>> queue_;
  std::size_t unfinished_ = 0;  ///< submitted, not yet completed
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace nocsim
