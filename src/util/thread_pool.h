// Fixed-size worker pool for the parallel Monte Carlo engine.
//
// Tasks are plain std::function<void()>; Submit returns a future that
// rethrows any exception the task raised. ParallelFor splits an index range
// into chunks, runs the chunks on the pool and blocks until every chunk
// finished, rethrowing the first failure. Determinism is the caller's
// responsibility: give every index its own RNG stream and write results into
// disjoint slots, then reduce sequentially — the pool itself imposes no
// ordering.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sm {

class ThreadPool {
 public:
  // `num_threads` < 1 is clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task; the future rethrows the task's exception on get().
  std::future<void> Submit(std::function<void()> task);

  // Runs body(lo, hi) over [begin, end) in chunks of at most `chunk`
  // indices. Blocks until all chunks completed; if any chunk threw, waits
  // for the rest and rethrows the first exception (in chunk order).
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
                   const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

// Scratch state for ParallelFor bodies, one object per worker rather than
// one per chunk: Acquire hands out a free object (building one with `make`
// when none is free) and the lease gives it back when it goes out of scope.
// At most as many objects are built as chunks ever run at once, i.e. one per
// worker thread. The pool must outlive its leases.
template <typename T>
class ScratchPool {
 public:
  class Lease {
   public:
    Lease(ScratchPool* pool, std::unique_ptr<T> object)
        : pool_(pool), object_(std::move(object)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      std::lock_guard<std::mutex> lock(pool_->mutex_);
      pool_->free_.push_back(std::move(object_));
    }
    T& operator*() const { return *object_; }
    T* operator->() const { return object_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<T> object_;
  };

  template <typename Make>
  Lease Acquire(const Make& make) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<T> object = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(object));
      }
    }
    return Lease(this, make());
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace sm
