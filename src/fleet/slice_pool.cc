#include "src/fleet/slice_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace rings {

SlicePool::SlicePool(size_t threads, Step step)
    : step_(std::move(step)),
      queues_(std::max<size_t>(threads, 1)),
      stats_(queues_.size()) {
  for (size_t w = 0; w < queues_.size(); ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

void SlicePool::Push(size_t first, size_t count) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (size_t item = first; item < first + count; ++item) {
      queues_[item % queues_.size()].push_back(item);
    }
    backlog_ += count;
  }
  if (count == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

void SlicePool::Close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closing_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
}

void SlicePool::WorkerLoop(size_t worker) {
  using Clock = std::chrono::steady_clock;
  WorkerStats& stats = stats_[worker];
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return backlog_ > 0 || closing_; });
    if (backlog_ == 0) {
      return;  // closing: every item has retired or is in a sibling's hands
    }
    std::deque<size_t>* queue = &queues_[worker];
    for (size_t k = 1; queue->empty(); ++k) {
      queue = &queues_[(worker + k) % queues_.size()];
    }
    size_t item = 0;
    if (queue == &queues_[worker]) {
      item = queue->back();
      queue->pop_back();
    } else {
      item = queue->front();
      queue->pop_front();
      ++stats.steals;
    }
    --backlog_;
    lock.unlock();
    const Clock::time_point start = Clock::now();
    do {
      ++stats.quanta;
    } while (!step_(item));
    stats.busy_seconds += std::chrono::duration<double>(Clock::now() - start).count();
    lock.lock();
  }
}

}  // namespace rings
