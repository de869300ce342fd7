// Fixed-size worker pool for wall-clock parallelism.
//
// The simulator's timing semantics are single-threaded and deterministic;
// the pool exists only to spend real CPU faster on work that is already
// independent in simulated time. Its one caller is ClusterCoordinator,
// which runs each storage node's epoch between two boundaries as one task
// (DESIGN.md section 12). The one execution shape is RunAll: a
// parallel-for with a join barrier. The call returns only when every task
// has finished, so the caller can merge per-task results in a fixed order
// afterwards; determinism is the merger's job, not the pool's.
//
// A pool of one worker never spawns a thread: tasks run inline on the
// caller in index order, giving the exact sequential reference semantics
// that multi-worker runs are tested against (tests/criticalpath_test.cc).
// The pool size comes from the caller or the VAFS_WORKERS environment
// knob (see README).

#ifndef VAFS_SRC_UTIL_WORKER_POOL_H_
#define VAFS_SRC_UTIL_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vafs {

class WorkerPool {
 public:
  using Task = std::function<void()>;

  // A pool of `workers` threads; values < 1 clamp to 1, and a one-worker
  // pool runs everything inline (no threads are created at all).
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int workers() const { return workers_; }

  // Runs every task and returns when all of them have completed (the
  // barrier). Tasks must be independent: they may not call into this
  // pool, and any shared state they touch must be their own.
  void RunAll(std::vector<Task> tasks);

  // VAFS_WORKERS environment value, clamped to [1, 64]; 1 when unset or
  // unparsable. The deterministic default: parallelism is opt-in.
  static int WorkersFromEnv();

 private:
  void WorkerLoop();

  const int workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::deque<Task> queue_;
  int64_t in_flight_ = 0;  // queued + currently executing tasks
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace vafs

#endif  // VAFS_SRC_UTIL_WORKER_POOL_H_
