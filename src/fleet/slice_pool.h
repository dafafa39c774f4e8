// The one host scheduler under the fleet and the serving core (DESIGN.md
// §7): worker threads that run items slice by slice until each retires.
//
// Push seeds item `i` to worker `i % threads`. A worker takes from the
// back of its own deque, else steals from the front of a sibling's, and
// runs the step on that item until it retires; a slice that does not
// retire keeps the item in the worker's hands, as requeueing it on the
// back of its own deque and popping it again would.
//
// Parking: one mutex guards the deques, the queued count and the closing
// flag, and idle workers wait on one condition variable for "an item is
// queued, or the pool is closing". Push changes the count under that
// mutex before it notifies, so no push is missed and no worker polls.
#ifndef SRC_FLEET_SLICE_POOL_H_
#define SRC_FLEET_SLICE_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rings {

// Per-worker host utilization over a pool's lifetime.
struct WorkerStats {
  double busy_seconds = 0;  // time spent inside quanta (incl. construction)
  uint64_t quanta = 0;
  uint64_t steals = 0;  // items obtained from another worker's queue
};

class SlicePool {
 public:
  // Runs one slice of `item`; returns true when the item retired.
  using Step = std::function<bool(size_t item)>;

  // Starts `threads` workers (at least one), parked until a Push.
  SlicePool(size_t threads, Step step);
  ~SlicePool() { Close(); }

  SlicePool(const SlicePool&) = delete;
  SlicePool& operator=(const SlicePool&) = delete;

  // Queues items [first, first + count), all under one lock hold so
  // each worker starts from the back of its full deque, and wakes parked
  // workers. Not valid after Close.
  void Push(size_t first, size_t count = 1);

  // Waits until every pushed item has retired, then joins the workers.
  // Idempotent.
  void Close();

  // Valid once Close has returned.
  const std::vector<WorkerStats>& stats() const { return stats_; }

 private:
  void WorkerLoop(size_t worker);

  const Step step_;
  std::mutex mu_;  // queues_, backlog_, closing_
  std::condition_variable cv_;
  std::vector<std::deque<size_t>> queues_;
  size_t backlog_ = 0;
  bool closing_ = false;
  std::vector<WorkerStats> stats_;  // each entry written by its own worker
  std::vector<std::thread> threads_;  // last: joined before the state above goes
};

}  // namespace rings

#endif  // SRC_FLEET_SLICE_POOL_H_
