// Fixed-size worker pool for wall-clock parallelism.
//
// The simulator's timing semantics are single-threaded and deterministic;
// the pool exists only to spend real CPU faster on work that is already
// independent in simulated time — cluster nodes between two epoch
// barriers, chunked CRC-64 sweeps, exporter serialization. Two execution
// shapes are offered:
//
//  - RunAll: a parallel-for with a join barrier. The call returns only
//    when every task has finished, so the caller can merge per-task
//    results in a fixed order afterwards; determinism is the merger's
//    job, not the scheduler's.
//  - Submit/Drain: fire-and-forget background tasks (off-round-path
//    serialization), joined explicitly before their outputs are read.
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
  // wave barrier). Tasks must be independent: they may not submit to or
  // drain this pool, and any shared state they touch must be their own.
  void RunAll(std::vector<Task> tasks);

  // Enqueues one background task (no join). Pair with Drain before
  // reading anything the task writes.
  void Submit(Task task);

  // Blocks until every task submitted or started so far has finished.
  void Drain();

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
