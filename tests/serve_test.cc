// Serve-grade battery for the tgsim serve daemon: concurrency stress with
// byte-matched responses, cache eviction under a byte budget, and the
// protocol error paths (the server must answer garbage with Status-typed
// replies, never crash). Runs under the TSan CI job.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <new>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/er_ba.h"
#include "baselines/state_io.h"
#include "common/rng.h"
#include "config/param_map.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "eval/artifact.h"
#include "eval/registry.h"
#include "graph/temporal_graph.h"
#include "gtest/gtest.h"
#include "parallel/task_queue.h"
#include "parallel/thread_pool.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/model_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace tgsim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Restores the global pool size after a test that resizes it.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() {
    parallel::ThreadPool::SetGlobalThreads(
        parallel::ThreadPool::DefaultNumThreads());
  }
};

/// Fits `method` on a small mimic dataset and saves the artifact; returns
/// its path. Artifacts are written once per process and reused.
std::string FitArtifact(const std::string& file, const std::string& method,
                        const std::string& dataset, uint64_t seed) {
  const std::string path = TempPath(file);
  static std::map<std::string, bool>* fitted = new std::map<std::string, bool>;
  if ((*fitted)[path]) return path;
  auto generator = eval::MakeGenerator(method);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  graphs::TemporalGraph observed =
      datasets::MakeMimicByName(dataset, 0.02, seed);
  eval::SeedStreams streams = eval::MakeSeedStreams(seed);
  generator.value()->Fit(observed, streams.fit);
  Status saved = eval::SaveArtifact(*generator.value(), method,
                                    config::ParamMap(), path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  (*fitted)[path] = true;
  return path;
}

/// The three models every serve test runs against (distinct methods and
/// shapes, so their payloads differ).
std::vector<serve::ModelSpec> TestModels() {
  return {
      {"alpha", FitArtifact("serve_alpha.tgsim", "E-R", "DBLP", 11)},
      {"beta", FitArtifact("serve_beta.tgsim", "B-A", "MSG", 12)},
      {"gamma", FitArtifact("serve_gamma.tgsim", "E-R", "EMAIL", 13)},
  };
}

std::string FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The budget charge the cache applies to `path`: the loaded generator's
/// ResidentStateBytes(). Eviction tests size their budgets from this so
/// the choreography stays pinned.
int64_t ChargeBytes(const std::string& path) {
  Result<eval::LoadedArtifact> loaded = eval::LoadArtifact(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.value().generator->ResidentStateBytes();
}

/// The reference payload for (artifact, seed): a serial LoadArtifact +
/// Generate on the shared generate seed stream, written through the same
/// WriteEdgeList the daemon uses. Served replies must byte-match this.
std::string SerialPayload(const std::string& path, uint64_t seed) {
  Result<eval::LoadedArtifact> loaded = eval::LoadArtifact(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  Rng rng = eval::MakeSeedStreams(seed).generate;
  graphs::TemporalGraph g = loaded.value().generator->Generate(rng);
  std::ostringstream out;
  datasets::WriteEdgeList(g, out);
  return out.str();
}

serve::Request GenerateRequest(const std::string& model, uint64_t seed) {
  serve::Request request;
  request.op = serve::RequestOp::kGenerate;
  request.model = model;
  request.seed = seed;
  return request;
}

const serve::Json* FindField(const serve::Json& reply, const char* key) {
  const serve::Json* field = reply.Find(key);
  EXPECT_NE(field, nullptr) << "reply has no '" << key
                            << "': " << reply.Serialize();
  return field;
}

// ---------------------------------------------------------------------------
// Concurrency stress: 8 clients x 3 models, byte-matched against serial.
// ---------------------------------------------------------------------------

TEST(ServeStressTest, ConcurrentClientsByteMatchSerialRuns) {
  GlobalThreadsGuard guard;
  std::vector<serve::ModelSpec> models = TestModels();

  // The references once, serially, before any server exists.
  const std::vector<uint64_t> seeds = {5, 6, 7};
  std::map<std::pair<std::string, uint64_t>, std::string> expected;
  for (const serve::ModelSpec& model : models)
    for (uint64_t seed : seeds)
      expected[{model.name, seed}] = SerialPayload(model.path, seed);

  for (int threads : {1, 2, 8}) {
    parallel::ThreadPool::SetGlobalThreads(threads);
    serve::ServeOptions options;
    options.models = models;
    options.workers = 4;
    Result<std::unique_ptr<serve::Server>> server =
        serve::Server::Create(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 6;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    {
      parallel::TaskQueue clients(kClients, kClients);
      std::vector<std::future<void>> done;
      for (int c = 0; c < kClients; ++c) {
        done.push_back(clients.Submit([&, c] {
          for (int k = 0; k < kRequestsPerClient; ++k) {
            const serve::ModelSpec& model = models[(c + k) % models.size()];
            const uint64_t seed = seeds[(c * 7 + k) % seeds.size()];
            serve::Json reply =
                server.value()->Handle(GenerateRequest(model.name, seed));
            const serve::Json* ok = reply.Find("ok");
            if (ok == nullptr || !ok->AsBoolOr(false)) {
              failures.fetch_add(1);
              continue;
            }
            const serve::Json* payload = reply.Find("payload");
            if (payload == nullptr ||
                payload->AsString() != expected[{model.name, seed}])
              mismatches.fetch_add(1);
            // Interleave a stats request: it must stay well-formed while
            // generates are in flight.
            serve::Request stats;
            stats.op = serve::RequestOp::kStats;
            serve::Json stats_reply = server.value()->Handle(stats);
            const serve::Json* stats_ok = stats_reply.Find("ok");
            if (stats_ok == nullptr || !stats_ok->AsBoolOr(false))
              failures.fetch_add(1);
          }
        }));
      }
      for (std::future<void>& f : done) f.get();
    }
    EXPECT_EQ(failures.load(), 0) << "at " << threads << " threads";
    EXPECT_EQ(mismatches.load(), 0) << "at " << threads << " threads";

    // Every generate acquisition and completion is accounted for.
    int64_t generates = 0;
    for (const serve::ModelStats& stats : server.value()->cache().Snapshot())
      generates += stats.generates;
    EXPECT_EQ(generates, kClients * kRequestsPerClient);
  }
}

// ---------------------------------------------------------------------------
// Concurrent generates of one served model, for every method: a fitted
// generator is immutable (Generate is const), so the daemon takes no
// per-model lock and every reply must still byte-match a serial run.
// ---------------------------------------------------------------------------

/// One served-model configuration of the one-model stress test.
struct OneModelCase {
  std::string label;   // Test-name suffix.
  std::string method;  // Registry name.
  config::ParamMap params;
  /// When > 0, the model is fitted on the mimic's edges over a canvas of
  /// this many nodes.
  int declared_nodes = 0;
};

void PrintTo(const OneModelCase& c, std::ostream* os) { *os << c.label; }

std::vector<OneModelCase> OneModelCases() {
  config::ParamMap fast;
  fast.Override("preset", "fast");
  std::vector<OneModelCase> cases;
  std::vector<std::string> names = eval::AllMethodNames();
  for (const std::string& name : eval::AblationMethodNames())
    if (name != "TGAE") names.push_back(name);
  for (const std::string& name : names) {
    std::string label = name;
    std::replace(label.begin(), label.end(), '-', '_');
    cases.push_back({label, name, fast});
  }
  config::ParamMap untied = fast;
  untied.Override("tie_decoder", "false");
  cases.push_back({"TGAE_untied", "TGAE", untied});
  // More nodes than kInlineScoreNodeLimit: the artifact carries its
  // scores as a BlockFile, so concurrent generates share its mmap leases.
  cases.push_back({"VGAE_block_backed", "VGAE", fast, 5000});
  return cases;
}

/// Fits the case's model on the DBLP mimic at scale 0.03 and saves it.
std::string FitOneModelArtifact(const OneModelCase& c) {
  auto generator = eval::MakeGenerator(c.method, c.params);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.03, 21);
  if (c.declared_nodes > 0) {
    observed = graphs::TemporalGraph::FromEdges(
        c.declared_nodes, observed.num_timestamps(), observed.edges());
  }
  eval::SeedStreams streams = eval::MakeSeedStreams(17);
  generator.value()->Fit(observed, streams.fit);
  const std::string path = TempPath("serve_one_" + c.label + ".tgsim");
  Status saved =
      eval::SaveArtifact(*generator.value(), c.method, c.params, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return path;
}

class ServeOneModelStressTest
    : public ::testing::TestWithParam<OneModelCase> {};

TEST_P(ServeOneModelStressTest, ConcurrentGeneratesByteMatchSerialRuns) {
  GlobalThreadsGuard guard;
  const std::string path = FitOneModelArtifact(GetParam());
  if (GetParam().declared_nodes > 0) {
    EXPECT_NE(FileContents(path).find("tgsimblk"), std::string::npos)
        << "expected a block-backed artifact";
  }
  const uint64_t seeds[2] = {5, 6};
  const std::string expected[2] = {SerialPayload(path, seeds[0]),
                                   SerialPayload(path, seeds[1])};
  ASSERT_NE(expected[0], expected[1]);

  for (int threads : {1, 8}) {
    parallel::ThreadPool::SetGlobalThreads(threads);
    serve::ServeOptions options;
    options.models = {{"model", path}};
    options.workers = 8;
    Result<std::unique_ptr<serve::Server>> server =
        serve::Server::Create(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 4;
    std::atomic<int> failures{0};
    std::atomic<int> mismatches{0};
    {
      parallel::TaskQueue clients(kClients, kClients);
      std::vector<std::future<void>> done;
      for (int c = 0; c < kClients; ++c) {
        done.push_back(clients.Submit([&, c] {
          for (int k = 0; k < kRequestsPerClient; ++k) {
            const int s = (c + k) % 2;
            serve::Json reply =
                server.value()->Handle(GenerateRequest("model", seeds[s]));
            const serve::Json* ok = reply.Find("ok");
            if (ok == nullptr || !ok->AsBoolOr(false)) {
              failures.fetch_add(1);
              continue;
            }
            const serve::Json* payload = reply.Find("payload");
            if (payload == nullptr || payload->AsString() != expected[s])
              mismatches.fetch_add(1);
          }
        }));
      }
      for (std::future<void>& f : done) f.get();
    }
    EXPECT_EQ(failures.load(), 0) << "at " << threads << " threads";
    EXPECT_EQ(mismatches.load(), 0) << "at " << threads << " threads";
    EXPECT_EQ(server.value()->cache().Snapshot()[0].generates,
              kClients * kRequestsPerClient);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryMethod, ServeOneModelStressTest, ::testing::ValuesIn(OneModelCases()),
    [](const ::testing::TestParamInfo<OneModelCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------------
// Cache eviction under a byte budget.
// ---------------------------------------------------------------------------

TEST(ServeCacheTest, LeastTrafficEvictionOrderIsPinned) {
  std::vector<serve::ModelSpec> models = TestModels();
  const int64_t total = ChargeBytes(models[0].path) +
                        ChargeBytes(models[1].path) +
                        ChargeBytes(models[2].path);
  // Any two artifacts fit; all three never do.
  serve::ModelCache cache(models, total - 1);
  ASSERT_TRUE(cache.Preload().ok());

  // Preload loads in configuration order; admitting gamma must evict the
  // least-traffic resident — all tie at zero requests, so the tie-break is
  // least-recently-used, which is alpha.
  std::vector<serve::ModelStats> stats = cache.Snapshot();
  EXPECT_FALSE(stats[0].resident);  // alpha
  EXPECT_TRUE(stats[1].resident);   // beta
  EXPECT_TRUE(stats[2].resident);   // gamma
  EXPECT_EQ(stats[0].evictions, 1);
  EXPECT_LE(cache.resident_bytes(), total - 1);

  // Re-admission reloads from disk: acquiring alpha (its traffic is now 1)
  // evicts beta — zero requests beats gamma's zero... both are zero, so
  // least-recently-used wins again and beta (loaded before gamma) goes.
  Result<std::shared_ptr<serve::CachedModel>> alpha = cache.Acquire("alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status().ToString();
  stats = cache.Snapshot();
  EXPECT_TRUE(stats[0].resident);
  EXPECT_FALSE(stats[1].resident);
  EXPECT_EQ(stats[1].evictions, 1);
  EXPECT_EQ(stats[0].loads, 2);  // Preload + reload.

  // Acquiring beta evicts gamma (zero requests < alpha's one).
  Result<std::shared_ptr<serve::CachedModel>> beta = cache.Acquire("beta");
  ASSERT_TRUE(beta.ok());
  stats = cache.Snapshot();
  EXPECT_TRUE(stats[1].resident);
  EXPECT_FALSE(stats[2].resident);
  EXPECT_EQ(stats[2].evictions, 1);

  // A reloaded model still byte-matches the serial reference, and the
  // evicted-and-held alpha instance stays usable (shared_ptr pinning).
  Rng rng = eval::MakeSeedStreams(5).generate;
  graphs::TemporalGraph g = alpha.value()->generator->Generate(rng);
  std::ostringstream out;
  datasets::WriteEdgeList(g, out);
  EXPECT_EQ(out.str(), SerialPayload(models[0].path, 5));
}

TEST(ServeCacheTest, AdmissionRejectsArtifactLargerThanBudget) {
  std::vector<serve::ModelSpec> models = TestModels();
  serve::ModelCache cache({models[0]}, 1);  // 1-byte budget fits nothing.
  Status preloaded = cache.Preload();
  ASSERT_FALSE(preloaded.ok());
  EXPECT_EQ(preloaded.code(), StatusCode::kResourceExhausted);
}

TEST(ServeCacheTest, ServedRepliesByteMatchAcrossEvictionChurn) {
  std::vector<serve::ModelSpec> models = TestModels();
  const int64_t total = ChargeBytes(models[0].path) +
                        ChargeBytes(models[1].path) +
                        ChargeBytes(models[2].path);
  serve::ServeOptions options;
  options.models = models;
  options.cache_budget_bytes = total - 1;  // Every third acquire evicts.
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  for (int round = 0; round < 3; ++round) {
    for (const serve::ModelSpec& model : models) {
      serve::Json reply =
          server.value()->Handle(GenerateRequest(model.name, 9));
      ASSERT_TRUE(FindField(reply, "ok")->AsBoolOr(false))
          << reply.Serialize();
      EXPECT_EQ(FindField(reply, "payload")->AsString(),
                SerialPayload(model.path, 9))
          << model.name << " round " << round;
    }
  }
  int64_t evictions = 0;
  for (const serve::ModelStats& stats : server.value()->cache().Snapshot())
    evictions += stats.evictions;
  EXPECT_GT(evictions, 0);  // The budget actually forced churn.
  EXPECT_LE(server.value()->cache().resident_bytes(), total - 1);
}

// ---------------------------------------------------------------------------
// Serve-side model refresh: the update op.
// ---------------------------------------------------------------------------

/// Copies an artifact to its own path so update tests never mutate the
/// shared FitArtifact files the other tests read.
std::string CopyArtifact(const std::string& src, const std::string& name) {
  const std::string dst = TempPath(name);
  std::ifstream in(src, std::ios::binary);
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  EXPECT_TRUE(in.good() && out.good()) << src << " -> " << dst;
  return dst;
}

/// Writes the second half of alpha's observed stream (on the full fitted
/// canvas) as a text delta file; returns its path.
std::string WriteAlphaDelta(const std::string& name) {
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.02, 11);
  const int split = observed.num_timestamps() / 2;
  std::vector<graphs::TemporalEdge> edges;
  for (const graphs::TemporalEdge& e : observed.edges())
    if (e.t >= split) edges.push_back(e);
  EXPECT_FALSE(edges.empty());
  graphs::TemporalGraph delta = graphs::TemporalGraph::FromEdges(
      observed.num_nodes(), observed.num_timestamps(), std::move(edges));
  const std::string path = TempPath(name);
  EXPECT_TRUE(datasets::SaveEdgeList(delta, path).ok());
  return path;
}

serve::Request UpdateRequest(const std::string& model,
                             const std::string& input, uint64_t seed) {
  serve::Request request;
  request.op = serve::RequestOp::kUpdate;
  request.model = model;
  request.input = input;
  request.seed = seed;
  return request;
}

TEST(ServeUpdateTest, UpdateSwapsServedModelAndRewritesArtifact) {
  const std::string artifact =
      CopyArtifact(TestModels()[0].path, "serve_update_swap.tgsim");
  const std::string delta_path = WriteAlphaDelta("serve_update_delta.txt");

  serve::ServeOptions options;
  options.models = {{"alpha", artifact}};
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const std::string before = SerialPayload(artifact, 5);
  serve::Json first = server.value()->Handle(GenerateRequest("alpha", 5));
  ASSERT_TRUE(FindField(first, "ok")->AsBoolOr(false)) << first.Serialize();
  EXPECT_EQ(FindField(first, "payload")->AsString(), before);

  Result<graphs::TemporalGraph> delta = datasets::LoadEdgeList(delta_path);
  ASSERT_TRUE(delta.ok());
  serve::Json reply =
      server.value()->Handle(UpdateRequest("alpha", delta_path, 99));
  ASSERT_TRUE(FindField(reply, "ok")->AsBoolOr(false)) << reply.Serialize();
  EXPECT_EQ(FindField(reply, "method")->AsString(), "E-R");
  EXPECT_EQ(FindField(reply, "delta_edges")->AsIntOr(-1),
            delta.value().num_edges());
  EXPECT_EQ(FindField(reply, "update_count")->AsIntOr(-1), 1);

  // The artifact on disk carries the new state and lineage...
  Result<eval::LoadedArtifact> reloaded = eval::LoadArtifact(artifact);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().lineage.update_count, 1);
  EXPECT_EQ(reloaded.value().lineage.update_epochs,
            baselines::kUpdateWarmSnapshotLimit);

  // ...and post-swap replies match a fresh generate from that artifact —
  // the same payload `tgsim generate --model` produces.
  const std::string after = SerialPayload(artifact, 5);
  serve::Json second = server.value()->Handle(GenerateRequest("alpha", 5));
  ASSERT_TRUE(FindField(second, "ok")->AsBoolOr(false));
  EXPECT_EQ(FindField(second, "payload")->AsString(), after);
  EXPECT_NE(after, before);  // The delta actually changed the model.
}

TEST(ServeUpdateTest, ServeUpdateMatchesCliUpdateByteForByte) {
  // The daemon's update must leave the exact artifact a `tgsim update`
  // with the same delta and seed writes: same fit-stream rng, same
  // lineage bump, same Save path.
  const std::string served =
      CopyArtifact(TestModels()[0].path, "serve_update_served.tgsim");
  const std::string offline =
      CopyArtifact(TestModels()[0].path, "serve_update_offline.tgsim");
  const std::string delta_path = WriteAlphaDelta("serve_update_cli_delta.txt");

  serve::ServeOptions options;
  options.models = {{"alpha", served}};
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  serve::Json reply =
      server.value()->Handle(UpdateRequest("alpha", delta_path, 42));
  ASSERT_TRUE(FindField(reply, "ok")->AsBoolOr(false)) << reply.Serialize();

  // The CLI path, in-process (exactly what `tgsim update` runs).
  Result<eval::LoadedArtifact> loaded = eval::LoadArtifact(offline);
  ASSERT_TRUE(loaded.ok());
  Result<graphs::TemporalGraph> delta = datasets::LoadEdgeList(delta_path);
  ASSERT_TRUE(delta.ok());
  Rng rng = eval::MakeSeedStreams(42).fit;
  ASSERT_TRUE(loaded.value().generator->Update(delta.value(), rng).ok());
  eval::UpdateLineage lineage = loaded.value().lineage;
  lineage.update_count += 1;
  lineage.update_epochs += baselines::kUpdateWarmSnapshotLimit;
  ASSERT_TRUE(eval::SaveArtifact(*loaded.value().generator,
                                 loaded.value().method, loaded.value().params,
                                 offline, lineage)
                  .ok());

  EXPECT_EQ(FileContents(served), FileContents(offline));
}

TEST(ServeUpdateTest, ConcurrentGeneratesAcrossUpdateStayByteIdentical) {
  // Satellite: 8 clients generate while the model is updated underneath
  // them. Every reply must byte-match either the pre-update or the
  // post-update reference — never a torn mix — and once the swap lands,
  // new requests serve the updated model.
  GlobalThreadsGuard guard;
  const std::string artifact =
      CopyArtifact(TestModels()[0].path, "serve_update_race.tgsim");
  const std::string delta_path = WriteAlphaDelta("serve_update_race_delta.txt");
  const uint64_t kSeed = 5;
  const std::string before = SerialPayload(artifact, kSeed);

  serve::ServeOptions options;
  options.models = {{"alpha", artifact}};
  options.workers = 4;
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 4;
  std::atomic<int> failures{0};
  parallel::Mutex payload_mu;
  std::vector<std::string> payloads;
  {
    parallel::TaskQueue clients(kClients, kClients + 1);
    std::vector<std::future<void>> done;
    for (int c = 0; c < kClients; ++c) {
      done.push_back(clients.Submit([&] {
        for (int k = 0; k < kRequestsPerClient; ++k) {
          serve::Json reply =
              server.value()->Handle(GenerateRequest("alpha", kSeed));
          const serve::Json* ok = reply.Find("ok");
          if (ok == nullptr || !ok->AsBoolOr(false)) {
            failures.fetch_add(1);
            continue;
          }
          parallel::MutexLock lock(payload_mu);
          payloads.push_back(reply.Find("payload")->AsString());
        }
      }));
    }
    // The update races the in-flight generates.
    serve::Json reply =
        server.value()->Handle(UpdateRequest("alpha", delta_path, 99));
    EXPECT_TRUE(FindField(reply, "ok")->AsBoolOr(false)) << reply.Serialize();
    for (std::future<void>& f : done) f.get();
  }
  EXPECT_EQ(failures.load(), 0);

  // The updated artifact defines the post-swap reference.
  const std::string after = SerialPayload(artifact, kSeed);
  ASSERT_NE(after, before);
  for (const std::string& payload : payloads)
    EXPECT_TRUE(payload == before || payload == after)
        << "reply matches neither the pre- nor post-update model";

  serve::Json final_reply =
      server.value()->Handle(GenerateRequest("alpha", kSeed));
  ASSERT_TRUE(FindField(final_reply, "ok")->AsBoolOr(false));
  EXPECT_EQ(FindField(final_reply, "payload")->AsString(), after);
}

/// Caps the size of any file this process writes at `bytes`, with SIGXFSZ
/// ignored so an oversize write fails with EFBIG instead of killing the
/// process. Restores the previous limit and handler on destruction.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes)
      : previous_handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    EXPECT_EQ(getrlimit(RLIMIT_FSIZE, &previous_limit_), 0);
    rlimit limited = previous_limit_;
    limited.rlim_cur = bytes;
    EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &limited), 0);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &previous_limit_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  using SignalHandler = void (*)(int);
  SignalHandler previous_handler_;
  rlimit previous_limit_{};
};

TEST(ServeUpdateTest, FailedArtifactWriteKeepsArtifactAndServedModel) {
  // Fault injection: a file-size limit below the artifact's size makes the
  // update's .tmp write fail partway. The reply must be an IoError, the
  // .tmp must be gone, and both the artifact on disk and the served model
  // must still be the pre-update ones.
  const std::string artifact =
      CopyArtifact(TestModels()[0].path, "serve_update_efbig.tgsim");
  const std::string delta_path = WriteAlphaDelta("serve_update_efbig_delta.txt");
  const std::string artifact_bytes = FileContents(artifact);
  const std::string before = SerialPayload(artifact, 5);

  serve::ServeOptions options;
  options.models = {{"alpha", artifact}};
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  serve::Json first = server.value()->Handle(GenerateRequest("alpha", 5));
  ASSERT_TRUE(FindField(first, "ok")->AsBoolOr(false)) << first.Serialize();

  serve::Json reply;
  {
    FileSizeLimit limit(static_cast<rlim_t>(artifact_bytes.size() / 2));
    reply = server.value()->Handle(UpdateRequest("alpha", delta_path, 99));
  }
  EXPECT_FALSE(FindField(reply, "ok")->AsBoolOr(true)) << reply.Serialize();
  EXPECT_EQ(FindField(reply, "code")->AsString(), "IoError");
  EXPECT_FALSE(std::ifstream(artifact + ".tmp").is_open());
  EXPECT_EQ(FileContents(artifact), artifact_bytes);

  serve::Json after = server.value()->Handle(GenerateRequest("alpha", 5));
  ASSERT_TRUE(FindField(after, "ok")->AsBoolOr(false)) << after.Serialize();
  EXPECT_EQ(FindField(after, "payload")->AsString(), before);
}

/// While set, ThrowOnLoadGenerator::LoadState throws std::bad_alloc.
std::atomic<bool> g_throw_on_load{false};

/// E-R whose LoadState runs out of memory on demand: a stand-in for an
/// input that makes a handler's allocation fail.
class ThrowOnLoadGenerator : public baselines::ErdosRenyiGenerator {
 public:
  using baselines::ErdosRenyiGenerator::LoadState;
  Status LoadState(std::istream& in) override {
    if (g_throw_on_load.load()) throw std::bad_alloc();
    return baselines::ErdosRenyiGenerator::LoadState(in);
  }
};

/// The test-only method "ThrowOnLoad".
eval::MethodSpec ThrowOnLoadSpec() {
  eval::MethodSpec spec;
  spec.name = "ThrowOnLoad";
  spec.summary = "E-R whose LoadState throws while a test flag is set";
  spec.factory = [](const config::ParamMap&)
      -> Result<std::unique_ptr<baselines::TemporalGraphGenerator>> {
    return std::unique_ptr<baselines::TemporalGraphGenerator>(
        std::make_unique<ThrowOnLoadGenerator>());
  };
  return spec;
}

TEST(ServeUpdateTest, ThrowingHandlerIsAnErrorReplyNotAnEscape) {
  // Every op shares one exception boundary in Handle: an update whose
  // artifact load throws std::bad_alloc gets a ResourceExhausted reply,
  // the artifact and the served model stay as they were, and the daemon
  // keeps serving.
  static const Status registered = eval::RegisterGenerator(ThrowOnLoadSpec());
  ASSERT_TRUE(registered.ok()) << registered.ToString();
  const std::string artifact =
      FitArtifact("serve_throw_on_load.tgsim", "ThrowOnLoad", "DBLP", 11);
  const std::string delta_path = WriteAlphaDelta("serve_throw_delta.txt");
  const std::string artifact_bytes = FileContents(artifact);
  const std::string before = SerialPayload(artifact, 5);

  serve::ServeOptions options;
  options.models = {{"throws", artifact}};
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  g_throw_on_load.store(true);
  serve::Json reply =
      server.value()->Handle(UpdateRequest("throws", delta_path, 99));
  g_throw_on_load.store(false);
  EXPECT_FALSE(FindField(reply, "ok")->AsBoolOr(true)) << reply.Serialize();
  EXPECT_EQ(FindField(reply, "code")->AsString(), "ResourceExhausted");
  EXPECT_NE(FindField(reply, "error")->AsString().find("update"),
            std::string::npos);
  EXPECT_EQ(FileContents(artifact), artifact_bytes);

  serve::Json after = server.value()->Handle(GenerateRequest("throws", 5));
  ASSERT_TRUE(FindField(after, "ok")->AsBoolOr(false)) << after.Serialize();
  EXPECT_EQ(FindField(after, "payload")->AsString(), before);
}

TEST(ServeUpdateTest, UpdateUnknownModelIsNotFound) {
  const std::string delta_path = WriteAlphaDelta("serve_update_nf_delta.txt");
  serve::ServeOptions options;
  options.models = TestModels();
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok());
  serve::Json reply =
      server.value()->Handle(UpdateRequest("alpah", delta_path, 1));
  EXPECT_FALSE(FindField(reply, "ok")->AsBoolOr(true));
  EXPECT_EQ(FindField(reply, "code")->AsString(), "NotFound");
}

// ---------------------------------------------------------------------------
// JSON serialization: the bytes every reply frame is made of.
// ---------------------------------------------------------------------------

/// The escape of one string byte, built from the rules `Json::Serialize`
/// documents: seven two-character escapes, lowercase \u00XX for the other
/// bytes below 0x20, every other byte verbatim.
std::string ExpectedEscape(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\b': return "\\b";
    case '\f': return "\\f";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: break;
  }
  if (c >= 0x20) return std::string(1, static_cast<char>(c));
  constexpr char kHex[] = "0123456789abcdef";
  return std::string("\\u00") + kHex[c >> 4] + kHex[c & 0xf];
}

TEST(JsonTest, StringEscapeIsPinnedForEveryByte) {
  for (int c = 0; c < 256; ++c) {
    const std::string one_byte(1, static_cast<char>(c));
    std::string quoted = "\"";
    quoted += ExpectedEscape(static_cast<unsigned char>(c));
    quoted += '"';
    EXPECT_EQ(serve::Json::Str(one_byte).Serialize(), quoted) << "byte " << c;
  }

  // Seeded random byte strings, embedded NULs included, survive
  // Serialize -> Parse.
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    std::string s(static_cast<size_t>(rng.UniformInt(0, 600)), '\0');
    for (char& c : s) c = static_cast<char>(rng.UniformInt(256));
    s.insert(s.size() / 2, std::string(2, '\0'));
    const std::string frame = serve::Json::Str(s).Serialize();
    Result<serve::Json> parsed = serve::Json::Parse(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_TRUE(parsed.value().is_string());
    EXPECT_EQ(parsed.value().AsString(), s) << "trial " << trial;
  }

  // A document with every value type, empty containers included,
  // serializes back to its compact text.
  const std::string document =
      "{\"n\":null,\"t\":true,\"f\":false,\"i\":-42,\"d\":0.5,"
      "\"s\":\"a\\tb\\u0001\",\"e\":[],\"o\":{},"
      "\"a\":[1,[2,3],{\"k\":\"v\",\"q\\\"\":[]}]}";
  Result<serve::Json> parsed = serve::Json::Parse(document);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Serialize(), document);
}

// ---------------------------------------------------------------------------
// Protocol error paths: Status-typed replies, never a crash.
// ---------------------------------------------------------------------------

class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::ServeOptions options;
    options.models = TestModels();
    options.max_frame_bytes = 512;  // Small cap so oversize is testable.
    Result<std::unique_ptr<serve::Server>> server =
        serve::Server::Create(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  /// Feeds one frame and expects an ok:false reply with `code`; returns
  /// the error message.
  std::string ExpectError(const std::string& frame, StatusCode code) {
    const std::string reply_frame = server_->HandleFrame(frame);
    Result<serve::Json> reply = serve::ParseReply(reply_frame);
    EXPECT_FALSE(reply.ok()) << reply_frame;
    if (reply.ok()) return "";
    EXPECT_EQ(StatusCodeName(reply.status().code()), StatusCodeName(code))
        << reply.status().ToString();
    return reply.status().message();
  }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeProtocolTest, MalformedAndTruncatedFramesAreInvalidArgument) {
  EXPECT_NE(ExpectError("this is not json", StatusCode::kInvalidArgument)
                .find("malformed"),
            std::string::npos);
  // A truncated frame (connection died mid-write) is malformed JSON.
  ExpectError(R"({"op":"gene)", StatusCode::kInvalidArgument);
  ExpectError("", StatusCode::kInvalidArgument);
  ExpectError("[1,2,3]", StatusCode::kInvalidArgument);  // Not an object.
  EXPECT_EQ(server_->protocol_errors(), 4);
}

TEST_F(ServeProtocolTest, OversizedFrameIsResourceExhausted) {
  std::string big = R"({"op":"list","protocol":1,"x":")";
  big += std::string(600, 'a');
  big += "\"}";
  ASSERT_GT(big.size(), server_->options().max_frame_bytes);
  EXPECT_NE(ExpectError(big, StatusCode::kResourceExhausted).find("limit"),
            std::string::npos);
}

TEST_F(ServeProtocolTest, UnknownModelGetsNotFoundWithSuggestion) {
  serve::Json reply = server_->Handle(GenerateRequest("alpah", 5));
  EXPECT_FALSE(FindField(reply, "ok")->AsBoolOr(true));
  EXPECT_EQ(FindField(reply, "code")->AsString(), "NotFound");
  EXPECT_NE(FindField(reply, "error")->AsString().find(
                "did you mean 'alpha'"),
            std::string::npos);
}

TEST_F(ServeProtocolTest, UnknownOpAndKeysGetSuggestions) {
  EXPECT_NE(ExpectError(R"({"op":"generat"})", StatusCode::kInvalidArgument)
                .find("did you mean 'generate'"),
            std::string::npos);
  EXPECT_NE(ExpectError(R"({"op":"generate","model":"alpha","sed":3})",
                        StatusCode::kInvalidArgument)
                .find("did you mean 'seed'"),
            std::string::npos);
}

TEST_F(ServeProtocolTest, NewerProtocolVersionIsRejected) {
  const std::string message = ExpectError(
      R"({"op":"list","protocol":99})", StatusCode::kInvalidArgument);
  EXPECT_NE(message.find("protocol version 99"), std::string::npos);
}

TEST_F(ServeProtocolTest, GenerateFieldValidation) {
  ExpectError(R"({"op":"generate"})", StatusCode::kInvalidArgument);
  ExpectError(R"({"op":"generate","model":""})",
              StatusCode::kInvalidArgument);
  ExpectError(R"({"op":"generate","model":"alpha","seed":-1})",
              StatusCode::kInvalidArgument);
  ExpectError(R"({"op":"generate","model":"alpha","seed":1.5})",
              StatusCode::kInvalidArgument);
}

TEST_F(ServeProtocolTest, UpdateFieldValidation) {
  ExpectError(R"({"op":"update"})", StatusCode::kInvalidArgument);
  EXPECT_NE(ExpectError(R"({"op":"update","model":"alpha"})",
                        StatusCode::kInvalidArgument)
                .find("input"),
            std::string::npos);
  ExpectError(R"({"op":"update","model":"alpha","input":""})",
              StatusCode::kInvalidArgument);
  ExpectError(R"({"op":"update","model":"alpha","input":"d.txt","seed":-1})",
              StatusCode::kInvalidArgument);
}

TEST_F(ServeProtocolTest, CurrentProtocolVersionIsAccepted) {
  // A v2 client (the version that introduced update) passes the gate; its
  // errors, if any, are about the request body, not the version.
  const std::string message = ExpectError(
      R"({"op":"update","protocol":2,"model":"alpha"})",
      StatusCode::kInvalidArgument);
  EXPECT_EQ(message.find("protocol version"), std::string::npos) << message;
  EXPECT_NE(message.find("input"), std::string::npos) << message;
}

TEST_F(ServeProtocolTest, ServerStillServesAfterEveryErrorPath) {
  ExpectError("garbage", StatusCode::kInvalidArgument);
  ExpectError(R"({"op":"nope"})", StatusCode::kInvalidArgument);
  server_->Handle(GenerateRequest("missing", 1));
  serve::Json reply = server_->Handle(GenerateRequest("alpha", 5));
  ASSERT_TRUE(FindField(reply, "ok")->AsBoolOr(false));
  EXPECT_EQ(FindField(reply, "payload")->AsString(),
            SerialPayload(TestModels()[0].path, 5));
}

TEST_F(ServeProtocolTest, DrainRejectsRequestsButAnswersShutdown) {
  serve::Request shutdown;
  shutdown.op = serve::RequestOp::kShutdown;
  serve::Json reply = server_->Handle(shutdown);
  EXPECT_TRUE(FindField(reply, "ok")->AsBoolOr(false));
  EXPECT_TRUE(server_->draining());
  server_->Wait();  // Must return immediately once draining.

  serve::Json rejected = server_->Handle(GenerateRequest("alpha", 5));
  EXPECT_FALSE(FindField(rejected, "ok")->AsBoolOr(true));
  EXPECT_EQ(FindField(rejected, "code")->AsString(), "ResourceExhausted");
  EXPECT_NE(FindField(rejected, "error")->AsString().find("draining"),
            std::string::npos);

  // Shutdown stays answerable (idempotent) during the drain.
  serve::Json again = server_->Handle(shutdown);
  EXPECT_TRUE(FindField(again, "ok")->AsBoolOr(false));
}

// ---------------------------------------------------------------------------
// Socket round trip: the real wire path, in-process.
// ---------------------------------------------------------------------------

TEST(ServeSocketTest, RoundTripGenerateStatsAndShutdown) {
  std::vector<serve::ModelSpec> models = TestModels();
  serve::ServeOptions options;
  options.models = models;
  options.workers = 2;
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const std::string socket_path = TempPath("serve_roundtrip.sock");
  ASSERT_TRUE(server.value()->Listen(socket_path).ok());

  // Typed generate over the socket byte-matches the serial reference.
  Result<serve::Json> reply =
      serve::Call(socket_path, GenerateRequest("beta", 6));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(FindField(reply.value(), "payload")->AsString(),
            SerialPayload(models[1].path, 6));

  // A malformed frame over the wire comes back as a typed error reply and
  // leaves the daemon serving.
  Result<std::string> raw = serve::CallRaw(socket_path, "not json at all");
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  Result<serve::Json> error = serve::ParseReply(raw.value());
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);

  serve::Request stats;
  stats.op = serve::RequestOp::kStats;
  Result<serve::Json> stats_reply = serve::Call(socket_path, stats);
  ASSERT_TRUE(stats_reply.ok()) << stats_reply.status().ToString();
  EXPECT_GE(FindField(stats_reply.value(), "requests")->AsIntOr(0), 2);

  serve::Request shutdown;
  shutdown.op = serve::RequestOp::kShutdown;
  Result<serve::Json> bye = serve::Call(socket_path, shutdown);
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  server.value()->Wait();
  server.value()->Stop();

  // The socket file is gone and further calls fail with IoError.
  EXPECT_FALSE(serve::Call(socket_path, stats).ok());
}

TEST(ServeSocketTest, ConcurrentSocketClientsByteMatch) {
  std::vector<serve::ModelSpec> models = TestModels();
  serve::ServeOptions options;
  options.models = models;
  options.workers = 4;
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::string socket_path = TempPath("serve_concurrent.sock");
  ASSERT_TRUE(server.value()->Listen(socket_path).ok());

  std::map<std::string, std::string> expected;
  for (const serve::ModelSpec& model : models)
    expected[model.name] = SerialPayload(model.path, 4);

  std::atomic<int> mismatches{0};
  {
    parallel::TaskQueue clients(6, 6);
    std::vector<std::future<void>> done;
    for (int c = 0; c < 6; ++c) {
      done.push_back(clients.Submit([&, c] {
        const serve::ModelSpec& model = models[c % models.size()];
        Result<serve::Json> reply =
            serve::Call(socket_path, GenerateRequest(model.name, 4));
        if (!reply.ok() ||
            FindField(reply.value(), "payload")->AsString() !=
                expected[model.name])
          mismatches.fetch_add(1);
      }));
    }
    for (std::future<void>& f : done) f.get();
  }
  EXPECT_EQ(mismatches.load(), 0);
  server.value()->Stop();
}

}  // namespace
}  // namespace tgsim
