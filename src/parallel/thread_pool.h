#ifndef TGSIM_PARALLEL_THREAD_POOL_H_
#define TGSIM_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tgsim::parallel {

/// Persistent work-sharing thread pool behind ParallelFor / ParallelReduce.
///
/// Concurrency model: a pool of size `num_threads` runs work on at most
/// `num_threads` threads *including the caller*, so it spawns
/// `num_threads - 1` workers. A pool of size 1 spawns nothing and RunChunks
/// degenerates to a plain serial loop — the deterministic fallback.
///
/// Nested regions are safe: the thread entering RunChunks always claims and
/// executes chunks itself, so completion never depends on a pool worker
/// becoming available. Helper tasks that fire after a region has drained
/// find no chunks and exit immediately.
///
/// Determinism contract (see README "Threading model"): chunk decomposition
/// is decided by the *caller* (ParallelFor's grain), never by the pool, and
/// every chunk is executed exactly once with disjoint side effects — so all
/// results are bit-identical for any thread count, including 1.
class ThreadPool {
 public:
  /// `num_threads` >= 1 is the total usable concurrency (callers + workers).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (worker threads + the calling thread).
  int num_threads() const { return num_threads_; }

  /// Executes fn(c) for every chunk index c in [0, num_chunks), on the
  /// calling thread plus any available pool workers. Blocks until every
  /// chunk has finished. The first exception thrown by any chunk is
  /// rethrown on the calling thread (remaining chunks are skipped).
  void RunChunks(int64_t num_chunks, const std::function<void(int64_t)>& fn);

  /// Process-wide pool. Sized on first use from the TGSIM_NUM_THREADS
  /// environment variable if set (clamped to [1, 1024]), otherwise from
  /// std::thread::hardware_concurrency().
  static ThreadPool& Global();

  /// Replaces the global pool with one of the given size. Intended for
  /// tests and benchmarks; must not race with in-flight parallel regions.
  static void SetGlobalThreads(int num_threads);

  /// Concurrency of the global pool (creates it on first call).
  static int GlobalThreads();

  /// The thread count Global() uses on first creation: TGSIM_NUM_THREADS
  /// if set and valid, hardware_concurrency() otherwise, always >= 1.
  static int DefaultNumThreads();

 private:
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // RunChunks helper tasks.
  bool stopping_ = false;
  /// Workers currently parked on cv_ (guarded by mu_). RunChunks only
  /// enqueues as many helper tasks as there are idle workers, so nested
  /// regions on a saturated pool don't grow the queue with helpers nobody
  /// can service until the outer region ends.
  int idle_workers_ = 0;
};

}  // namespace tgsim::parallel

#endif  // TGSIM_PARALLEL_THREAD_POOL_H_
