#ifndef TGSIM_PARALLEL_TASK_QUEUE_H_
#define TGSIM_PARALLEL_TASK_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/sync.h"

namespace tgsim::parallel {

/// The async half of the parallel runtime (the serve daemon's request
/// spine). Where ThreadPool::RunChunks executes one fork/join region on the
/// shared pool, a TaskQueue owns dedicated workers and adds what a
/// long-lived service needs:
///
///  - a *bounded* FIFO queue: Submit blocks while it is full
///    (backpressure);
///  - graceful drain: Shutdown() stops admission, runs every task already
///    accepted (in FIFO order per worker), then joins the workers.
///
/// Exceptions thrown by a task propagate through its future. TaskQueue is
/// the only sanctioned way for other modules to get persistent worker
/// threads (ROADMAP: only src/parallel spawns threads or takes locks).

/// Thrown through the future of a task submitted after Shutdown() began
/// (or rejected while blocked for space when the queue shut down).
class TaskRejectedError : public std::runtime_error {
 public:
  TaskRejectedError() : std::runtime_error("task queue is shut down") {}
};

class TaskQueue {
 public:
  /// `num_workers` >= 1 dedicated threads; at most `max_pending` >= 1
  /// accepted-but-not-started tasks (tasks being executed do not count).
  TaskQueue(int num_workers, size_t max_pending);

  /// Equivalent to Shutdown(): drains accepted tasks, joins workers.
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Schedules `fn` and returns a future for its result. Blocks while the
  /// queue is full. If the queue is (or becomes, while blocked) shut down,
  /// `fn` never runs and the returned future throws TaskRejectedError.
  template <typename Fn>
  auto Submit(Fn fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> future = promise->get_future();
    const bool accepted = Enqueue([promise, fn = std::move(fn)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          promise->set_value();
        } else {
          promise->set_value(fn());
        }
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    if (!accepted)
      promise->set_exception(std::make_exception_ptr(TaskRejectedError()));
    return future;
  }

  /// Stops admission, runs every already-accepted task to completion (in
  /// submission order per worker), joins the workers. Idempotent;
  /// concurrent callers all block until the drain is complete.
  void Shutdown();

  int num_workers() const { return num_workers_; }
  size_t max_pending() const { return max_pending_; }

  /// Accepted-but-not-started tasks (advisory: racy by nature).
  size_t pending() const;

  /// True once Shutdown() has begun (even before the drain completes).
  bool shutting_down() const {
    return closed_.load(std::memory_order_acquire);
  }

 private:
  /// Adds `task` (which never throws: Submit routes everything into its
  /// promise), blocking for space; false if the queue is shut down.
  bool Enqueue(std::function<void()> task);
  void WorkerLoop();

  const int num_workers_;
  const size_t max_pending_;
  std::vector<std::thread> workers_;

  mutable Mutex mu_;
  CondVar work_cv_;   // Signals workers: task available or closed.
  CondVar space_cv_;  // Signals submitters: slot freed or closed.
  std::deque<std::function<void()>> queue_;
  std::atomic<bool> closed_{false};
  Mutex shutdown_mu_;
  bool joined_ = false;  // Guarded by shutdown_mu_.
};

}  // namespace tgsim::parallel

#endif  // TGSIM_PARALLEL_TASK_QUEUE_H_
