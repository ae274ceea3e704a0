#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/check.h"

namespace tgsim::parallel {

namespace {

/// Shared state of one RunChunks region. Chunks are claimed with an atomic
/// ticket counter; each claimed chunk bumps `completed` exactly once
/// (whether it ran or was skipped after a failure), so the caller can wait
/// on completed == num_chunks without depending on helper-task scheduling.
struct RegionState {
  int64_t num_chunks = 0;
  const std::function<void(int64_t)>* fn = nullptr;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> completed{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // First failure; guarded by mu.
};

/// Claims and executes chunks until the region is drained. Runs on the
/// caller and on any pool worker that picks up a helper task.
void DrainRegion(const std::shared_ptr<RegionState>& s) {
  while (true) {
    const int64_t c = s->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= s->num_chunks) return;
    if (!s->failed.load(std::memory_order_acquire)) {
      try {
        (*s->fn)(c);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(s->mu);
          if (!s->error) s->error = std::current_exception();
        }
        s->failed.store(true, std::memory_order_release);
      }
    }
    if (s->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        s->num_chunks) {
      std::lock_guard<std::mutex> lock(s->mu);
      s->done_cv.notify_all();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  TGSIM_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_workers_;
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      --idle_workers_;
      if (queue_.empty()) return;  // stopping_ with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::RunChunks(int64_t num_chunks,
                           const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  if (workers_.empty() || num_chunks == 1) {
    // Serial fallback: same chunks, same per-chunk work, caller's thread.
    for (int64_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }
  auto state = std::make_shared<RegionState>();
  state->num_chunks = num_chunks;
  state->fn = &fn;
  // One helper per *idle* worker, never more than the remaining chunks;
  // the caller is the remaining executor. Busy workers (e.g. pinned inside
  // an outer region's cells) could not service a helper before this region
  // drains anyway, so enqueueing for them would only grow the queue. The
  // snapshot is advisory — a worker turning busy after it merely leaves a
  // helper that wakes late and exits on an empty ticket.
  int64_t helpers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    helpers = std::min<int64_t>(idle_workers_, num_chunks - 1);
    for (int64_t h = 0; h < helpers; ++h)
      queue_.push_back([state] { DrainRegion(state); });
  }
  for (int64_t h = 0; h < helpers; ++h) cv_.notify_one();
  DrainRegion(state);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&state] {
      return state->completed.load(std::memory_order_acquire) ==
             state->num_chunks;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

int ThreadPool::DefaultNumThreads() {
  if (const char* env = std::getenv("TGSIM_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    // Numeric values clamp into [1, 1024] (so 0 forces the serial
    // fallback); non-numeric values fall through to the hardware default.
    if (end != env) return static_cast<int>(std::clamp(v, 1L, 1024L));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

namespace {

std::mutex& GlobalPoolMutex() {
  static std::mutex mu;
  return mu;
}

// Leaked intentionally (like MemoryTracker::Global) so worker threads are
// never joined during static destruction. Lock-free on the read path:
// every multi-chunk ParallelFor dispatch goes through Global(), so a
// mutex here would serialize all concurrent callers.
std::atomic<ThreadPool*> g_pool{nullptr};

}  // namespace

ThreadPool& ThreadPool::Global() {
  ThreadPool* pool = g_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  pool = g_pool.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    pool = new ThreadPool(DefaultNumThreads());
    g_pool.store(pool, std::memory_order_release);
  }
  return *pool;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  TGSIM_CHECK_GE(num_threads, 1);
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  ThreadPool* old = g_pool.load(std::memory_order_relaxed);
  g_pool.store(new ThreadPool(num_threads), std::memory_order_release);
  delete old;  // Caller contract: no regions in flight on the old pool.
}

int ThreadPool::GlobalThreads() { return Global().num_threads(); }

}  // namespace tgsim::parallel
