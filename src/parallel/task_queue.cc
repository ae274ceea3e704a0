#include "parallel/task_queue.h"

#include "common/check.h"

namespace tgsim::parallel {

TaskQueue::TaskQueue(int num_workers, size_t max_pending)
    : num_workers_(num_workers), max_pending_(max_pending) {
  TGSIM_CHECK_GE(num_workers, 1);
  TGSIM_CHECK_GE(max_pending, size_t{1});
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

TaskQueue::~TaskQueue() { Shutdown(); }

bool TaskQueue::Enqueue(std::function<void()> task) {
  {
    UniqueLock lock(mu_);
    space_cv_.wait(lock, [this] {
      return queue_.size() < max_pending_ ||
             closed_.load(std::memory_order_relaxed);
    });
    if (closed_.load(std::memory_order_relaxed)) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return true;
}

void TaskQueue::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      UniqueLock lock(mu_);
      work_cv_.wait(lock, [this] {
        return !queue_.empty() || closed_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) return;  // Closed and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    space_cv_.notify_one();
    task();
  }
}

void TaskQueue::Shutdown() {
  {
    MutexLock lock(mu_);
    closed_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  MutexLock lock(shutdown_mu_);
  if (joined_) return;
  for (std::thread& w : workers_) w.join();
  joined_ = true;
}

size_t TaskQueue::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

}  // namespace tgsim::parallel
