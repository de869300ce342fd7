#include "src/util/worker_pool.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace vafs {

WorkerPool::WorkerPool(int workers) : workers_(std::max(workers, 1)) {
  if (workers_ == 1) {
    return;  // inline execution; nothing to spawn
  }
  threads_.reserve(static_cast<size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) {
        work_done_.notify_all();
      }
    }
  }
}

void WorkerPool::RunAll(std::vector<Task> tasks) {
  if (workers_ == 1 || tasks.size() <= 1) {
    for (Task& task : tasks) {
      task();
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    in_flight_ += static_cast<int64_t>(tasks.size());
    for (Task& task : tasks) {
      queue_.push_back(std::move(task));
    }
  }
  work_ready_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [this] { return in_flight_ == 0; });
}

int WorkerPool::WorkersFromEnv() {
  const char* env = std::getenv("VAFS_WORKERS");
  if (env == nullptr || *env == '\0') {
    return 1;
  }
  const long value = std::strtol(env, nullptr, 10);
  return static_cast<int>(std::clamp<long>(value, 1, 64));
}

}  // namespace vafs
