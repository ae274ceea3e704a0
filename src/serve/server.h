#ifndef TGSIM_SERVE_SERVER_H_
#define TGSIM_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "parallel/sync.h"
#include "parallel/task_queue.h"
#include "serve/model_cache.h"
#include "serve/protocol.h"

namespace tgsim::serve {

/// Configuration of one serve daemon.
struct ServeOptions {
  std::vector<ModelSpec> models;
  /// Model-cache byte budget (resident-state accounting; see ModelCache).
  int64_t cache_budget_bytes = int64_t{1} << 30;
  /// Concurrent request workers (one long-lived connection each).
  int workers = 4;
  /// Bounded accepted-connection backlog on the worker queue.
  size_t max_pending = 64;
  /// Per-frame byte cap (oversized frames get an error reply + close).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// The `tgsim serve` daemon core (GraphLab-style engine/core separation:
/// this request engine is fully separated from the generator runtime it
/// drives, and tests exercise it in-process without any socket).
///
/// Concurrency model: Handle() is thread-safe and runs on whatever thread
/// calls it. The socket front end accepts connections on a 1-worker
/// listener TaskQueue and serves each connection on a `workers`-sized
/// TaskQueue — all threads are owned by src/parallel primitives, per the
/// ROADMAP layering rule. Generates run concurrently, for different models
/// and for one model alike: a served generator is never mutated (Generate
/// is const), so each reply depends only on the artifact and the seed.
///
/// Lifecycle: Create() preloads the cache (fails fast on bad artifacts).
/// A shutdown request — or Stop() — starts the drain: new requests get an
/// error reply, in-flight requests finish, the listener closes, Wait()
/// returns. The daemon never crashes on malformed input: every protocol
/// error is a Status-typed error reply.
class Server {
 public:
  /// Validates options and preloads every configured model.
  static Result<std::unique_ptr<Server>> Create(ServeOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// In-process request API: never throws, never crashes — errors are
  /// error replies. Thread-safe.
  Json Handle(const Request& request);

  /// Frame in, frame out (no trailing newline): ParseRequest + Handle +
  /// Serialize, with parse failures rendered as error replies and counted
  /// as protocol errors. The socket front end serves every frame through
  /// this; when `close` is given, it is set to whether the frame was a
  /// shutdown request, after whose reply the connection closes.
  std::string HandleFrame(const std::string& frame, bool* close = nullptr);

  /// Binds a Unix-domain stream socket at `path` (replacing a stale file)
  /// and starts accepting connections. One call per server.
  Status Listen(const std::string& socket_path);

  /// Blocks until a shutdown request (or Stop) begins the drain.
  void Wait();

  /// Begins the drain if needed, closes the listener, joins all serving
  /// threads and removes the socket file. Idempotent; called by the
  /// destructor.
  void Stop();

  /// True once a shutdown request or Stop() was observed.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  const ModelCache& cache() const { return *cache_; }
  const ServeOptions& options() const { return options_; }

  int64_t total_requests() const {
    return total_requests_.load(std::memory_order_relaxed);
  }
  int64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

 private:
  explicit Server(ServeOptions options);

  Json HandleGenerate(const Request& request);
  Json HandleUpdate(const Request& request);
  Json HandleStats();
  Json HandleList();
  Json HandleShutdown();

  /// Marks the server draining and unblocks Wait()/the accept loop.
  void BeginDrain();

  /// Listener-task body: accept until draining, handing connections to
  /// conn_queue_.
  void AcceptLoop();
  /// Connection-task body: frame loop on one accepted socket.
  void ServeConnection(int fd);

  ServeOptions options_;
  std::unique_ptr<ModelCache> cache_;
  Stopwatch uptime_;

  std::atomic<bool> draining_{false};
  std::atomic<int64_t> total_requests_{0};
  std::atomic<int64_t> protocol_errors_{0};

  parallel::Mutex drain_mu_;
  parallel::CondVar drain_cv_;

  std::string socket_path_;
  std::atomic<int> listen_fd_{-1};
  std::unique_ptr<parallel::TaskQueue> listener_queue_;
  std::unique_ptr<parallel::TaskQueue> conn_queue_;
  bool stopped_ = false;  // Guarded by drain_mu_.
};

}  // namespace tgsim::serve

#endif  // TGSIM_SERVE_SERVER_H_
