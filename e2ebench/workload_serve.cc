// serve-mixed: the real `tgsim serve` daemon over its Unix socket. Three
// closed-loop readers generate from a light DYMOND model (the serve and
// payload path plus the per-model mutex they share own a read), while one
// writer alternates `update` and `generate` on a TGAE preset=paper model,
// so artifact load, warm-start training, save and swap compete for the CPU.

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <thread>

#include "baselines/state_io.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "eval/artifact.h"
#include "eval/registry.h"
#include "parallel/thread_pool.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "workloads.h"

extern char** environ;

namespace e2ebench {

namespace tg = tgsim::graphs;
namespace serve = tgsim::serve;

namespace {

constexpr int kReaders = 3;
/// Edges per update delta, all at the last timestamp.
constexpr int kDeltaEdges = 32;
/// Every kSampleEvery-th reply of each reader is kept whole and checked
/// after the run against an in-process generate of the same seed.
constexpr int kSampleEvery = 97;

/// A `tgsim serve` child process; its destructor always reaps it.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Launches the daemon and waits for its `ready` banner.
  bool Start(const std::vector<std::string>& argv, double timeout_s) {
    banner_.clear();
    int out[2];
    if (::pipe(out) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    out_fd_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    const auto start = std::chrono::steady_clock::now();
    while (banner_.find("\nready;") == std::string::npos &&
           banner_.rfind("ready;", 0) != 0) {
      const double left = timeout_s - SecondsSince(start);
      if (left <= 0 || !ReadSome(static_cast<int>(left * 1000))) return false;
    }
    return true;
  }

  int pid() const { return pid_; }

  /// Sends `shutdown`, drains stdout and reaps the process; kills it if
  /// the request fails. True if the daemon exited with status 0.
  bool Stop(const std::string& socket = "") {
    if (pid_ < 0) return true;
    bool asked = false;
    if (!socket.empty()) {
      serve::Request request;
      request.op = serve::RequestOp::kShutdown;
      asked = serve::Call(socket, request).ok();
    }
    if (!asked) ::kill(pid_, SIGKILL);
    while (ReadSome(10000)) {
    }
    // stdout closes as the daemon exits; give it 10 s more to be reapable.
    int status = 0;
    for (int tries = 0; ::waitpid(pid_, &status, WNOHANG) == 0; ++tries) {
      if (tries == 1000) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        asked = false;
        break;
      }
      ::usleep(10000);
    }
    ::close(out_fd_);
    pid_ = -1;
    return asked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  /// Appends daemon stdout; false on EOF, error or timeout.
  bool ReadSome(int timeout_ms) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    banner_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string banner_;
};

/// True for an `ok` generate reply with a positive `edges` count, found
/// without decoding the payload: both keys precede it.
bool GenerateReplyOk(const std::string& reply) {
  if (reply.rfind("{\"ok\":true,", 0) != 0) return false;
  const size_t at = reply.find("\"edges\":");
  return at != std::string::npos &&
         std::strtoll(reply.c_str() + at + 8, nullptr, 10) > 0;
}

/// `count` random edges (no self-loops) at the last timestamp of an
/// n-node, T-timestamp universe: the delta one update absorbs.
tg::TemporalGraph MakeDelta(int num_nodes, int num_timestamps, int count,
                            uint64_t seed) {
  tgsim::Rng rng(seed);
  tg::TemporalGraph delta(num_nodes, num_timestamps);
  for (int i = 0; i < count; ++i) {
    const auto u = static_cast<tg::NodeId>(rng.UniformInt(num_nodes));
    auto v = static_cast<tg::NodeId>(rng.UniformInt(num_nodes - 1));
    if (v >= u) ++v;
    delta.AddEdge(u, v, num_timestamps - 1);
  }
  delta.Finalize();
  return delta;
}

/// A numeric field of a stats reply object (0 if absent).
double Field(const serve::Json& object, const char* key) {
  const serve::Json* field = object.Find(key);
  return field == nullptr ? 0.0 : field->AsDoubleOr(0.0);
}

std::string GenerateFrame(const std::string& model, uint64_t seed) {
  serve::Request request;
  request.op = serve::RequestOp::kGenerate;
  request.model = model;
  request.seed = seed;
  return serve::RenderRequest(request);
}

struct ReaderLog {
  std::vector<double> ms;
  std::vector<bool> ok;
  std::vector<size_t> ops;
  int64_t reply_bytes = 0;
  std::vector<std::pair<size_t, uint64_t>> sample_seeds;  // (read, seed)
  std::vector<std::string> samples;                       // Whole replies.
};

struct WriterLog {
  std::vector<double> update_ms;
  std::vector<double> generate_ms;
  std::vector<std::string> failures;  // One per writer op; "" = ok.
};

}  // namespace

bool RunServeMixed(const Options& opt, Tracer& tracer, Report& report) {
  const double msg_scale = opt.toy ? 0.05 : 1.0;
  const double dblp_scale = opt.toy ? 0.05 : 0.5;
  // An update trains min(epochs, kUpdateWarmSnapshotLimit) warm epochs, so
  // an 8-epoch fixture updates exactly like a fully trained one.
  const int live_epochs =
      opt.toy ? 2 : tgsim::baselines::kUpdateWarmSnapshotLimit;
  const std::string dymond_path = opt.workdir + "/dymond.tgsim";
  const std::string live_path = opt.workdir + "/live.tgsim";
  const std::string socket = opt.workdir + "/serve.sock";
  const std::vector<std::string> argv = {
      opt.tgsim_binary, "serve", "--socket", socket,
      "--model", "dymond=" + dymond_path, "--model", "live=" + live_path,
      "--threads", std::to_string(opt.threads),
      "--workers", std::to_string(opt.threads)};

  std::optional<tg::TemporalGraph> live_graph;
  Daemon daemon;
  std::vector<double> setup_cpu_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0 && !daemon.Stop(socket)) {
      std::fprintf(stderr, "e2ebench: daemon did not shut down cleanly\n");
      return false;
    }
    const double cpu = ProcessCpuSeconds();
    tg::TemporalGraph msg(1, 1);
    {
      Span span(tracer, "datasets.mimic", rep);
      msg = tgsim::datasets::MakeMimicByName("MSG", msg_scale,
                                             kMimicSeed);
      live_graph = tgsim::datasets::MakeMimicByName(
          "DBLP", dblp_scale, kMimicSeed);
    }
    auto dymond = tgsim::eval::MakeGenerator("DYMOND");
    auto live = tgsim::eval::MakeGenerator("TGAE", PaperParams(live_epochs));
    const uint64_t fit_seed = DeriveSeed(opt.seed, "serve.fit");
    tgsim::Rng dymond_rng = tgsim::eval::MakeSeedStreams(fit_seed).fit;
    dymond.value()->Fit(msg, dymond_rng);
    {
      Span span(tracer, "core.fit", rep);
      tgsim::Rng rng = tgsim::eval::MakeSeedStreams(fit_seed).fit;
      live.value()->Fit(*live_graph, rng);
    }
    tgsim::Status saved = tgsim::eval::SaveArtifact(*dymond.value(), "DYMOND",
                                                    {}, dymond_path);
    if (saved.ok()) {
      Span span(tracer, "eval.save_artifact", rep);
      saved = tgsim::eval::SaveArtifact(*live.value(), "TGAE",
                                        PaperParams(live_epochs), live_path);
    }
    if (!saved.ok() || !daemon.Start(argv, 60.0)) {
      std::fprintf(stderr, "e2ebench: serve fixture/daemon failed: %s\n",
                   saved.ToString().c_str());
      return false;
    }
    // Warm-up op: one read and one live generate.
    for (const char* model : {"dymond", "live"}) {
      auto reply = serve::CallRaw(
          socket, GenerateFrame(model, DeriveSeed(opt.seed, "serve.warm")));
      if (!reply.ok() || !GenerateReplyOk(reply.value())) {
        std::fprintf(stderr, "e2ebench: warm-up generate on %s failed: %s\n",
                     model,
                     reply.ok() ? reply.value().substr(0, 200).c_str()
                                : reply.status().ToString().c_str());
        return false;
      }
    }
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu +
                          ChildCpuSeconds(daemon.pid()));
  }

  // The daemon's footprint with both models loaded and warmed, before any
  // timed request: its VmHWM and the model cache's own accounting of
  // resident model state. Both are taken here because under traffic the
  // VmHWM is allocator-noisy (only traced, serve.daemon_rss_mib) and the
  // cache total grows with every finished update, so a faster run would
  // read larger.
  const double ready_rss_mib = PeakRssMib(daemon.pid());
  serve::Request stats_request;
  stats_request.op = serve::RequestOp::kStats;
  tgsim::Result<serve::Json> ready_stats = serve::Call(socket, stats_request);
  if (!ready_stats.ok()) {
    std::fprintf(stderr, "e2ebench: stats failed: %s\n",
                 ready_stats.status().ToString().c_str());
    return false;
  }
  if (!ResetPeakRss(daemon.pid()))
    std::fprintf(stderr, "e2ebench: cannot reset the daemon's VmHWM\n");
  const double daemon_cpu = ChildCpuSeconds(daemon.pid());

  // Paced mix: read tickets are released `paced` at a time, and the writer
  // releases the next batch only after its update + live generate and the
  // previous batch are done, so every run serves exactly one update and one
  // live generate per `paced` reads. Unpaced (0), the writer is a closed
  // loop and the ratio follows the host's scheduling and the relative cost
  // of reads and updates.
  const int64_t paced = opt.reads_per_update;
  const auto phase = std::chrono::steady_clock::now();
  std::atomic<int64_t> next_ticket{0}, reads_done{0};
  std::atomic<int64_t> ticket_limit{paced > 0 ? paced : INT64_MAX};
  std::atomic<bool> done{false};
  std::vector<ReaderLog> readers(kReaders);
  WriterLog writer;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      ReaderLog& log = readers[static_cast<size_t>(r)];
      while (!done.load(std::memory_order_acquire)) {
        const int64_t ticket = next_ticket.fetch_add(1);
        while (ticket >= ticket_limit.load(std::memory_order_acquire)) {
          if (done.load(std::memory_order_acquire)) return;
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        const uint64_t seed =
            DeriveSeed(opt.seed, "serve.read", static_cast<uint64_t>(ticket));
        const std::string frame = GenerateFrame("dymond", seed);
        tgsim::Stopwatch watch;
        tgsim::Result<std::string> reply = tgsim::Status::Internal("unsent");
        {
          Span span(tracer, "serve.read", ticket, r + 1);
          reply = serve::CallRaw(socket, frame);
        }
        log.ms.push_back(watch.ElapsedMillis());
        log.ok.push_back(reply.ok() && GenerateReplyOk(reply.value()));
        if (reply.ok()) log.reply_bytes += reply.value().size();
        if (ticket % kSampleEvery == 0 && log.ok.back()) {
          log.sample_seeds.push_back({log.ms.size() - 1, seed});
          log.samples.push_back(std::move(reply).value());
        }
        reads_done.fetch_add(1, std::memory_order_release);
      }
    });
  }
  threads.emplace_back([&] {
    const std::string delta_path = opt.workdir + "/delta.txt";
    for (int64_t k = 0;; ++k) {
      const tg::TemporalGraph delta = MakeDelta(
          live_graph->num_nodes(), live_graph->num_timestamps(), kDeltaEdges,
          DeriveSeed(opt.seed, "serve.delta", static_cast<uint64_t>(k)));
      const tgsim::Status written =
          tgsim::datasets::SaveEdgeList(delta, delta_path);
      serve::Request update;
      update.op = serve::RequestOp::kUpdate;
      update.model = "live";
      update.input = delta_path;
      update.seed =
          DeriveSeed(opt.seed, "serve.update", static_cast<uint64_t>(k));
      tgsim::Stopwatch watch;
      tgsim::Result<std::string> reply = tgsim::Status::Internal("unsent");
      {
        Span span(tracer, "serve.update", k, kReaders + 1);
        reply = serve::CallRaw(socket, serve::RenderRequest(update));
      }
      writer.update_ms.push_back(watch.ElapsedMillis());
      auto parsed = reply.ok() ? serve::ParseReply(reply.value())
                               : tgsim::Result<serve::Json>(reply.status());
      const serve::Json* count =
          parsed.ok() ? parsed.value().Find("update_count") : nullptr;
      writer.failures.push_back(
          !written.ok() ? "cannot write the update delta: " + written.ToString()
          : count == nullptr || count->AsIntOr(-1) != k + 1
              ? "update " + std::to_string(k) +
                    ": update_count did not rise by one"
              : "");

      watch.Restart();
      {
        Span span(tracer, "serve.live_generate", k, kReaders + 1);
        reply = serve::CallRaw(
            socket, GenerateFrame("live", DeriveSeed(opt.seed, "serve.live",
                                                     static_cast<uint64_t>(k))));
      }
      writer.generate_ms.push_back(watch.ElapsedMillis());
      writer.failures.push_back(
          reply.ok() && GenerateReplyOk(reply.value())
              ? ""
              : "live generate failed");

      while (paced > 0 &&
             reads_done.load(std::memory_order_acquire) < (k + 1) * paced)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      if (SecondsSince(phase) >= opt.seconds) break;
      if (paced > 0)
        ticket_limit.store((k + 2) * paced, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });
  for (std::thread& t : threads) t.join();
  const double served_cpu_s = ChildCpuSeconds(daemon.pid()) - daemon_cpu;

  // Daemon-side figures, then a clean shutdown.
  const double daemon_rss_mib = PeakRssMib(daemon.pid());
  tgsim::Result<serve::Json> stats = serve::Call(socket, stats_request);
  if (!stats.ok() || !daemon.Stop(socket)) {
    std::fprintf(stderr, "e2ebench: stats/shutdown failed\n");
    return false;
  }

  // Op accounting and output checks (untimed).
  std::vector<double> read_ms;
  int64_t reply_bytes = 0;
  for (ReaderLog& log : readers) {
    for (size_t i = 0; i < log.ms.size(); ++i) {
      log.ops.push_back(report.Op());
      if (!log.ok[i]) report.Fail(log.ops.back(), "read reply not ok");
    }
    read_ms.insert(read_ms.end(), log.ms.begin(), log.ms.end());
    reply_bytes += log.reply_bytes;
  }
  for (const std::string& failure : writer.failures) {
    const size_t op = report.Op();
    if (!failure.empty()) report.Fail(op, failure);
  }
  // Served payloads byte-match LoadArtifact -> Generate -> WriteEdgeList
  // for the same seed (the served == `tgsim generate --model` invariant).
  auto reference = tgsim::eval::LoadArtifact(dymond_path);
  if (!reference.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n",
                 reference.status().ToString().c_str());
    return false;
  }
  bool flipped = false;
  for (ReaderLog& log : readers) {
    for (size_t s = 0; s < log.samples.size(); ++s) {
      const auto [index, seed] = log.sample_seeds[s];
      auto reply = serve::ParseReply(log.samples[s]);
      const serve::Json* payload =
          reply.ok() ? reply.value().Find("payload") : nullptr;
      std::string served = payload ? payload->AsStringOr("") : "";
      if (opt.inject_fault == "flip-byte" && !flipped && !served.empty()) {
        served[served.size() / 2] ^= 1;
        flipped = true;
      }
      tgsim::Rng rng = tgsim::eval::MakeSeedStreams(seed).generate;
      std::ostringstream expected;
      tgsim::datasets::WriteEdgeList(reference.value().generator->Generate(rng),
                                     expected);
      if (served != expected.str())
        report.Fail(log.ops[index], "served payload differs from in-process");
    }
  }

  const serve::Json& st = stats.value();
  report.SetContext("op_wall_p50_ms", Median(read_ms));
  report.SetContext("reads_per_update",
                    static_cast<double>(read_ms.size()) /
                        static_cast<double>(writer.update_ms.size()));
  if (!opt.trace) {
    report.Set("setup_s", Median(setup_cpu_s));
    report.Set("op_cpu_ms",
               1e3 * served_cpu_s / static_cast<double>(read_ms.size()));
    report.Set("peak_tracked_mib",
               MiB(Field(ready_stats.value(), "resident_bytes")));
    report.Set("peak_rss_mib", ready_rss_mib);
    return true;
  }

  double requests = 0, loads = 0, evictions = 0, busy_ms = 0;
  const serve::Json* models = st.Find("models");
  const std::vector<serve::Json> no_models;
  for (const serve::Json& row :
       models != nullptr && models->is_array() ? models->Items() : no_models) {
    requests += Field(row, "requests");
    loads += Field(row, "loads");
    evictions += Field(row, "evictions");
    const serve::Json* name = row.Find("name");
    if (name != nullptr && name->AsStringOr("") == "dymond")
      busy_ms = 1e3 * Field(row, "mean_latency_s");
  }
  double read_mean_ms = 0;
  for (double ms : read_ms)
    read_mean_ms += ms / static_cast<double>(read_ms.size());
  report.Set("serve.read_p50_ms", Median(read_ms));
  report.Set("serve.read_p99_ms", Percentile(read_ms, 0.99));
  report.Set("serve.update_ms", Median(writer.update_ms));
  report.Set("serve.busy_ms", busy_ms);
  report.Set("serve.outside_busy_ms", read_mean_ms - busy_ms);
  report.Set("serve.reply_bytes", static_cast<double>(reply_bytes) /
                                      static_cast<double>(read_ms.size()));
  report.Set("serve.live_generate_ms", Median(writer.generate_ms));
  report.Set("serve.protocol_errors", Field(st, "protocol_errors"));
  report.Set("serve.cache_loads", loads);
  report.Set("serve.cache_evictions", evictions);
  report.Set("serve.cache_hit_ratio",
             requests > 0 ? 1.0 - loads / requests : 0.0);
  report.Set("serve.resident_mib", MiB(Field(st, "resident_bytes")));
  report.Set("serve.daemon_rss_mib", daemon_rss_mib);
  report.Set("datasets.mimic_ms", Median(tracer.DurationsMs("datasets.mimic")));
  report.Set("core.fit_ms", Median(tracer.DurationsMs("core.fit")));

  // Isolated in-process costs of what a read and an update do inside the
  // daemon, measured after it exited so nothing competes.
  constexpr int kIsolated = 20;
  std::vector<double> generate_ms, write_ms;
  double generate_mean = 0, write_mean = 0;
  for (int i = 0; i < kIsolated; ++i) {
    tgsim::Rng rng = tgsim::eval::MakeSeedStreams(
                         DeriveSeed(opt.seed, "serve.isolated", i))
                         .generate;
    tgsim::Stopwatch watch;
    const tg::TemporalGraph g = reference.value().generator->Generate(rng);
    generate_ms.push_back(watch.ElapsedMillis());
    watch.Restart();
    std::ostringstream payload;
    tgsim::datasets::WriteEdgeList(g, payload);
    write_ms.push_back(watch.ElapsedMillis());
    generate_mean += generate_ms.back() / kIsolated;
    write_mean += write_ms.back() / kIsolated;
  }
  report.Set("baselines.generate_ms", Median(generate_ms));
  report.Set("datasets.write_edges_ms", Median(write_ms));
  report.Set("serve.lock_wait_ms", busy_ms - generate_mean - write_mean);

  tgsim::Stopwatch watch;
  auto restored = tgsim::eval::LoadArtifact(live_path);
  report.Set("eval.load_artifact_ms", watch.ElapsedMillis());
  if (restored.ok()) {
    const tg::TemporalGraph delta =
        MakeDelta(live_graph->num_nodes(), live_graph->num_timestamps(),
                  kDeltaEdges, DeriveSeed(opt.seed, "serve.isolated.delta"));
    tgsim::Rng rng = tgsim::eval::MakeSeedStreams(
                         DeriveSeed(opt.seed, "serve.isolated.update"))
                         .fit;
    watch.Restart();
    const tgsim::Status updated = restored.value().generator->Update(delta, rng);
    const double update_ms = watch.ElapsedMillis();
    report.Set("core.update_ms", update_ms);
    watch.Restart();
    const std::string copy = live_path + ".isolated";
    const tgsim::Status saved = tgsim::eval::SaveArtifact(
        *restored.value().generator, restored.value().method,
        restored.value().params, copy);
    report.Set("eval.save_artifact_ms", watch.ElapsedMillis());
    std::remove(copy.c_str());
    if (!updated.ok() || !saved.ok())
      std::fprintf(stderr, "e2ebench: isolated update failed\n");

    // An update's warm start is TGAE preset=paper training: replay its
    // epochs at the live model's shapes, at 4 threads and at 1, for the nn
    // training layers. Figures are per update.
    tgsim::core::TgaeConfig config;
    config.epochs = live_epochs;
    const int warm_epochs =
        std::min(config.epochs, tgsim::baselines::kUpdateWarmSnapshotLimit);
    const uint64_t replay_seed = DeriveSeed(opt.seed, "serve.replay");
    const ReplayResult multi = ReplayTrainEpochs(*live_graph, config,
                                                 warm_epochs, replay_seed,
                                                 tracer);
    tgsim::parallel::ThreadPool::SetGlobalThreads(1);
    Tracer single_tracer(true, 1);
    const ReplayResult single = ReplayTrainEpochs(
        *live_graph, config, warm_epochs, replay_seed, single_tracer);
    tgsim::parallel::ThreadPool::SetGlobalThreads(opt.threads);
    ReportReplay(multi, 1.0, live_graph->num_nodes(), config.hidden_dim,
                 report);
    report.Set("parallel.fit_scaling", single.wall_ms / multi.wall_ms);
    report.Set("fit.replay_coverage", multi.wall_ms / update_ms);
  }
  return true;
}

}  // namespace e2ebench
