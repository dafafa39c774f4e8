// The slice pool on its own, with a step callback in place of machines:
// every item runs to retirement exactly once, parked workers wake on a
// push, Close drains what is still queued, and an idle worker steals.
// A lost wakeup shows as a hang, which the ctest TIMEOUT on these tests
// turns into a failure.
#include "src/fleet/slice_pool.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/base/xorshift.h"

namespace rings {
namespace {

uint64_t TotalQuanta(const std::vector<WorkerStats>& stats) {
  uint64_t quanta = 0;
  for (const WorkerStats& worker : stats) {
    quanta += worker.quanta;
  }
  return quanta;
}

TEST(SlicePool, EveryItemRetiresExactlyOnce) {
  constexpr size_t kItems = 300;
  for (const size_t threads : {1u, 2u, 8u}) {
    Xorshift rng(threads);
    std::vector<uint32_t> want(kItems);
    uint64_t want_quanta = 0;
    for (uint32_t& slices : want) {
      slices = static_cast<uint32_t>(rng.Between(1, 20));
      want_quanta += slices;
    }
    // Written only by the worker holding the item, read after Close.
    std::vector<uint32_t> ran(kItems, 0);
    std::vector<uint32_t> retired(kItems, 0);
    SlicePool pool(threads, [&](size_t item) {
      if (++ran[item] < want[item]) {
        return false;
      }
      ++retired[item];
      return true;
    });
    pool.Push(0, kItems);
    pool.Close();
    for (size_t item = 0; item < kItems; ++item) {
      EXPECT_EQ(ran[item], want[item]) << "item " << item << " at " << threads << " threads";
      EXPECT_EQ(retired[item], 1u) << "item " << item << " at " << threads << " threads";
    }
    const std::vector<WorkerStats> stats = pool.stats();
    EXPECT_EQ(stats.size(), threads);
    EXPECT_EQ(TotalQuanta(stats), want_quanta);
  }
}

// Each round pushes one item into a pool whose workers have gone idle
// and waits for it to retire, so every push meets workers somewhere in
// the parking protocol.
TEST(SlicePool, ParkedWorkersWakeOnLaterPush) {
  constexpr size_t kRounds = 2000;
  std::mutex mu;
  std::condition_variable cv;
  size_t retired = 0;
  SlicePool pool(4, [&](size_t) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++retired;
    }
    cv.notify_all();
    return true;
  });
  for (size_t round = 0; round < kRounds; ++round) {
    pool.Push(round);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return retired == round + 1; });
  }
  pool.Close();
  EXPECT_EQ(retired, kRounds);
  EXPECT_EQ(TotalQuanta(pool.stats()), kRounds);
}

// Item 0 holds the only worker until every other item is queued, so
// Close finds them queued and must run them all before it returns.
TEST(SlicePool, CloseDrainsQueuedItems) {
  constexpr size_t kItems = 10;
  std::mutex mu;
  std::condition_variable cv;
  bool all_pushed = false;
  std::vector<uint32_t> retired(kItems, 0);
  SlicePool pool(1, [&](size_t item) {
    if (item == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return all_pushed; });
    }
    ++retired[item];
    return true;
  });
  for (size_t item = 0; item < kItems; ++item) {
    pool.Push(item);
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    all_pushed = true;
  }
  cv.notify_all();
  pool.Close();
  for (size_t item = 0; item < kItems; ++item) {
    EXPECT_EQ(retired[item], 1u) << "item " << item;
  }
}

// Every item is seeded to worker 0 (item % 4 == 0), and no item retires
// until two items have run at once, which only a steal can bring about.
TEST(SlicePool, IdleWorkersStealFromALoadedSibling) {
  constexpr size_t kThreads = 4;
  std::mutex mu;
  std::condition_variable cv;
  size_t running = 0;
  bool overlapped = false;
  SlicePool pool(kThreads, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    if (++running >= 2) {
      overlapped = true;
      cv.notify_all();
    }
    cv.wait(lock, [&] { return overlapped; });
    --running;
    return true;
  });
  for (size_t k = 0; k < 8; ++k) {
    pool.Push(k * kThreads);
  }
  pool.Close();
  const std::vector<WorkerStats> stats = pool.stats();
  uint64_t steals = 0;
  for (const WorkerStats& worker : stats) {
    steals += worker.steals;
  }
  EXPECT_GE(steals, 1u);
  EXPECT_EQ(stats[0].steals, 0u);
  EXPECT_EQ(TotalQuanta(stats), 8u);
}

}  // namespace
}  // namespace rings
