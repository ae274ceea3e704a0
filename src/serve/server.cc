#include "serve/server.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <new>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "datasets/io.h"
#include "eval/artifact.h"
#include "graph/temporal_graph.h"

namespace tgsim::serve {

namespace {

/// Closes an accepted connection when the last reference goes away — even
/// if the connection task is dropped unrun by a draining TaskQueue.
struct FdGuard {
  explicit FdGuard(int fd) : fd(fd) {}
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  int fd;
};

}  // namespace

Server::Server(ServeOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Create(ServeOptions options) {
  if (options.models.empty())
    return Status::InvalidArgument("serve needs at least one --model");
  if (options.workers < 1 || options.workers > 1024)
    return Status::InvalidArgument("workers must be in [1, 1024]");
  if (options.max_pending < 1)
    return Status::InvalidArgument("max_pending must be >= 1");
  if (options.cache_budget_bytes <= 0)
    return Status::InvalidArgument("cache budget must be positive");
  if (options.max_frame_bytes < 64)
    return Status::InvalidArgument("max_frame_bytes must be >= 64");

  std::unique_ptr<Server> server(new Server(std::move(options)));
  server->cache_ = std::make_unique<ModelCache>(
      server->options_.models, server->options_.cache_budget_bytes);
  Status preloaded = server->cache_->Preload();
  if (!preloaded.ok()) return preloaded;
  return server;
}

Server::~Server() { Stop(); }

// ---------------------------------------------------------------------------
// Request handling (in-process API; the socket front end funnels here).
// ---------------------------------------------------------------------------

Json Server::Handle(const Request& request) {
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  // Shutdown stays answerable during a drain (idempotent); everything else
  // is refused so the daemon quiesces instead of racing its own teardown.
  if (draining() && request.op != RequestOp::kShutdown)
    return MakeErrorReply(Status::ResourceExhausted(
        "server is draining; request rejected"));
  // The one exception boundary of every op: a throw anywhere in a handler
  // (an allocation sized by an untrusted input, a failed load or save)
  // becomes a Status-typed reply instead of escaping and closing the
  // connection unanswered.
  try {
    switch (request.op) {
      case RequestOp::kGenerate:
        return HandleGenerate(request);
      case RequestOp::kStats:
        return HandleStats();
      case RequestOp::kList:
        return HandleList();
      case RequestOp::kShutdown:
        return HandleShutdown();
      case RequestOp::kUpdate:
        return HandleUpdate(request);
    }
  } catch (const std::bad_alloc& e) {
    return MakeErrorReply(Status::ResourceExhausted(
        RequestOpName(request.op) + " failed: out of memory (" + e.what() +
        ")"));
  } catch (const std::exception& e) {
    return MakeErrorReply(Status::Internal(RequestOpName(request.op) +
                                           " failed: " + e.what()));
  }
  return MakeErrorReply(Status::Internal("unhandled request op"));
}

std::string Server::HandleFrame(const std::string& frame, bool* close) {
  Result<Request> request = ParseRequest(frame, options_.max_frame_bytes);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return MakeErrorReply(request.status()).Serialize();
  }
  if (close != nullptr) *close = request.value().op == RequestOp::kShutdown;
  return Handle(request.value()).Serialize();
}

Json Server::HandleGenerate(const Request& request) {
  Result<std::shared_ptr<CachedModel>> model = cache_->Acquire(request.model);
  if (!model.ok()) return MakeErrorReply(model.status());

  // Generate is const, so requests for one model run concurrently. The
  // rng stream is the artifact generate stream, so the reply payload
  // byte-matches `tgsim generate --model PATH --seed N`.
  Stopwatch latency;
  Rng rng = eval::MakeSeedStreams(request.seed).generate;
  const graphs::TemporalGraph generated =
      model.value()->generator->Generate(rng);
  std::ostringstream payload;
  datasets::WriteEdgeList(generated, payload);
  cache_->RecordGenerate(request.model, latency.ElapsedSeconds());

  Json reply = MakeOkReply();
  reply.Set("model", Json::Str(request.model));
  reply.Set("method", Json::Str(model.value()->method));
  reply.Set("seed", Json::Int(static_cast<int64_t>(request.seed)));
  reply.Set("nodes", Json::Int(generated.num_nodes()));
  reply.Set("edges", Json::Int(generated.num_edges()));
  reply.Set("timestamps", Json::Int(generated.num_timestamps()));
  reply.Set("payload", Json::Str(std::move(payload).str()));
  return reply;
}

Json Server::HandleUpdate(const Request& request) {
  // Resolve the configured artifact path first: unknown model names fail
  // fast, before any disk or training work.
  Result<std::string> path = cache_->ArtifactPath(request.model);
  if (!path.ok()) return MakeErrorReply(path.status());
  Result<graphs::TemporalGraph> delta = datasets::LoadEdgeList(request.input);
  if (!delta.ok()) return MakeErrorReply(delta.status());

  // Rebuild from the artifact on disk — never the resident instance, which
  // in-flight generates pin and whose replies must stay byte-identical.
  // `tgsim update` runs the same rule, so the swapped-in model equals the
  // artifact a CLI update with the same inputs produces.
  Result<eval::LoadedArtifact> loaded = eval::LoadArtifact(path.value());
  if (!loaded.ok()) return MakeErrorReply(loaded.status());
  Status updated =
      eval::UpdateArtifact(loaded.value(), delta.value(), request.seed);
  if (!updated.ok()) return MakeErrorReply(updated);

  // Persist the updated state next to the swap so a later reload (eviction,
  // restart, chained update) resumes from it. Write-then-rename keeps the
  // artifact readable at every instant.
  const eval::UpdateLineage& lineage = loaded.value().lineage;
  const std::string tmp = path.value() + ".tmp";
  Status saved =
      eval::SaveArtifact(*loaded.value().generator, loaded.value().method,
                         loaded.value().params, tmp, lineage);
  if (!saved.ok()) return MakeErrorReply(saved);
  if (std::rename(tmp.c_str(), path.value().c_str()) != 0) {
    std::remove(tmp.c_str());
    return MakeErrorReply(
        Status::IoError("cannot replace artifact: " + path.value()));
  }

  const std::string method = loaded.value().method;
  Status swapped = cache_->Swap(request.model,
                                std::move(loaded.value().generator), method);
  if (!swapped.ok()) return MakeErrorReply(swapped);

  Json reply = MakeOkReply();
  reply.Set("model", Json::Str(request.model));
  reply.Set("method", Json::Str(method));
  reply.Set("seed", Json::Int(static_cast<int64_t>(request.seed)));
  reply.Set("delta_edges", Json::Int(delta.value().num_edges()));
  reply.Set("update_count", Json::Int(lineage.update_count));
  return reply;
}

Json Server::HandleStats() {
  const double uptime = uptime_.ElapsedSeconds();
  Json reply = MakeOkReply();
  reply.Set("uptime_s", Json::Double(uptime));
  reply.Set("requests",
            Json::Int(total_requests_.load(std::memory_order_relaxed)));
  reply.Set("protocol_errors",
            Json::Int(protocol_errors_.load(std::memory_order_relaxed)));
  reply.Set("cache_budget_bytes", Json::Int(cache_->byte_budget()));
  reply.Set("resident_bytes", Json::Int(cache_->resident_bytes()));
  Json models = Json::Array();
  for (const ModelStats& stats : cache_->Snapshot()) {
    Json row = Json::Object();
    row.Set("name", Json::Str(stats.name));
    row.Set("method", Json::Str(stats.method));
    row.Set("resident", Json::Bool(stats.resident));
    row.Set("bytes", Json::Int(stats.bytes));
    row.Set("requests", Json::Int(stats.requests));
    row.Set("loads", Json::Int(stats.loads));
    row.Set("evictions", Json::Int(stats.evictions));
    row.Set("generates", Json::Int(stats.generates));
    row.Set("qps", Json::Double(
        uptime > 0 ? static_cast<double>(stats.requests) / uptime : 0.0));
    row.Set("mean_latency_s",
            Json::Double(stats.generates > 0
                             ? stats.busy_seconds / stats.generates
                             : 0.0));
    models.Append(std::move(row));
  }
  reply.Set("models", std::move(models));
  return reply;
}

Json Server::HandleList() {
  Json reply = MakeOkReply();
  reply.Set("draining", Json::Bool(draining()));
  Json models = Json::Array();
  for (const ModelStats& stats : cache_->Snapshot()) {
    Json row = Json::Object();
    row.Set("name", Json::Str(stats.name));
    row.Set("method", Json::Str(stats.method));
    row.Set("resident", Json::Bool(stats.resident));
    models.Append(std::move(row));
  }
  reply.Set("models", std::move(models));
  return reply;
}

Json Server::HandleShutdown() {
  BeginDrain();
  Json reply = MakeOkReply();
  reply.Set("draining", Json::Bool(true));
  return reply;
}

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

void Server::BeginDrain() {
  bool expected = false;
  if (draining_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    // Closing the listener makes a blocked accept() return, so the accept
    // loop observes the drain without polling.
    const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }
  {
    parallel::MutexLock lock(drain_mu_);
  }
  drain_cv_.notify_all();
}

void Server::Wait() {
  parallel::UniqueLock lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return draining(); });
}

void Server::Stop() {
  BeginDrain();
  {
    parallel::MutexLock lock(drain_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Drain order matters: first stop admitting connections (the listener
  // task exits on the closed fd), then drain the per-connection workers
  // (each exits at its next frame boundary or read timeout).
  if (listener_queue_ != nullptr) listener_queue_->Shutdown();
  if (conn_queue_ != nullptr) conn_queue_->Shutdown();
  if (!socket_path_.empty()) std::remove(socket_path_.c_str());
}

// ---------------------------------------------------------------------------
// Socket front end (POSIX local stream socket).
// ---------------------------------------------------------------------------

namespace {

/// Sends `frame` and its terminating newline as one gathered sendmsg(),
/// so a reply frame of hundreds of KB is never copied to append the
/// newline. Rides out EINTR and short writes; MSG_NOSIGNAL so a client
/// hangup surfaces as EPIPE instead of killing the daemon.
bool WriteFrame(int fd, const std::string& frame) {
  char newline = '\n';
  size_t sent = 0;  // Of the frame.size() + 1 bytes to send.
  while (sent <= frame.size()) {
    iovec parts[2] = {};
    size_t count = 0;
    if (sent < frame.size())
      parts[count++] = {const_cast<char*>(frame.data()) + sent,
                        frame.size() - sent};
    parts[count++] = {&newline, 1};
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Status Server::Listen(const std::string& socket_path) {
  if (listener_queue_ != nullptr)
    return Status::InvalidArgument("server is already listening");
  if (draining())
    return Status::InvalidArgument("server is draining");
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path))
    return Status::InvalidArgument(
        "socket path longer than " +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes: " + socket_path);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  std::remove(socket_path.c_str());  // Replace a stale socket file.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("bind(" + socket_path +
                           "): " + std::strerror(err));
  }
  if (::listen(fd, 128) < 0) {
    const int err = errno;
    ::close(fd);
    std::remove(socket_path.c_str());
    return Status::IoError("listen(" + socket_path +
                           "): " + std::strerror(err));
  }

  socket_path_ = socket_path;
  listen_fd_.store(fd, std::memory_order_release);
  conn_queue_ = std::make_unique<parallel::TaskQueue>(options_.workers,
                                                      options_.max_pending);
  listener_queue_ = std::make_unique<parallel::TaskQueue>(1, 1);
  listener_queue_->Submit([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::AcceptLoop() {
  while (!draining()) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // Listener closed by BeginDrain, or a fatal accept error.
    }
    // Poll the drain flag every 200 ms even when the client is silent, so
    // a shutdown never waits on an idle connection.
    timeval timeout{};
    timeout.tv_usec = 200 * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    auto guard = std::make_shared<FdGuard>(fd);
    // Bounded backpressure: this blocks when all workers are busy and the
    // pending backlog is full. A drain while blocked rejects the task;
    // the guard then closes the connection unserved.
    conn_queue_->Submit([this, guard] { ServeConnection(guard->fd); });
  }
}

void Server::ServeConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      std::string frame = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!frame.empty() && frame.back() == '\r') frame.pop_back();
      bool close = false;
      if (!WriteFrame(fd, HandleFrame(frame, &close))) return;
      if (close) return;  // The drain is underway; this connection is done.
      continue;
    }
    if (buffer.size() > options_.max_frame_bytes) {
      // The line never terminated inside the cap: after an error reply the
      // stream cannot be re-framed, so the connection closes (the server
      // itself stays up — the protocol tests pin this).
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      WriteFrame(fd, MakeErrorReply(
                         Status::ResourceExhausted(
                             "unterminated frame exceeds the " +
                             std::to_string(options_.max_frame_bytes) +
                             "-byte limit; closing connection"))
                         .Serialize());
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return;  // EOF: client closed.
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (draining()) return;  // Idle connection during a drain.
        continue;
      }
      if (errno == EINTR) continue;
      return;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace tgsim::serve
