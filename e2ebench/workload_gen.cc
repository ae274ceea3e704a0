// gen-paper-msg: forward-only generation. One op is Generate plus
// WriteEdgeList to memory from a LoadArtifact-restored TGAE preset=paper
// artifact fitted on the MSG mimic at scale 1.0 (195 timestamps of small
// chunks), each op with its own generate seed.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "common/memory_tracker.h"
#include "common/stopwatch.h"
#include "core/tgae.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "eval/artifact.h"
#include "eval/registry.h"
#include "parallel/thread_pool.h"
#include "replay.h"
#include "workloads.h"

namespace e2ebench {

namespace tg = tgsim::graphs;

namespace {

/// One gen op: the payload bytes of Generate(seed) as the serve daemon and
/// `tgsim generate --model` produce them.
std::string GenerateBytes(tgsim::baselines::TemporalGraphGenerator& gen,
                          uint64_t seed, int64_t request, Tracer& tracer,
                          std::optional<tg::TemporalGraph>& generated) {
  tgsim::Rng rng = tgsim::eval::MakeSeedStreams(seed).generate;
  {
    Span span(tracer, "core.generate", request);
    generated = gen.Generate(rng);
  }
  Span span(tracer, "datasets.write_edges", request);
  std::ostringstream payload;
  tgsim::datasets::WriteEdgeList(*generated, payload);
  return std::move(payload).str();
}

}  // namespace

bool RunGenPaperMsg(const Options& opt, Tracer& tracer, Report& report) {
  const double scale = opt.toy ? 0.05 : 1.0;
  // Generate cost does not depend on how long the fixture trained, so the
  // fixture fit uses a short epoch budget.
  const int fixture_epochs = opt.toy ? 1 : 5;
  const tgsim::config::ParamMap params = PaperParams(fixture_epochs);
  const std::string artifact = opt.workdir + "/gen.tgsim";

  std::optional<tg::TemporalGraph> observed;
  std::optional<tgsim::eval::LoadedArtifact> loaded;
  std::optional<tg::TemporalGraph> generated;
  std::vector<double> setup_cpu_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double cpu = ProcessCpuSeconds();
    {
      Span span(tracer, "datasets.mimic", rep);
      observed = tgsim::datasets::MakeMimicByName(
          "MSG", scale, kMimicSeed);
    }
    auto gen = tgsim::eval::MakeGenerator("TGAE", params);
    tgsim::Rng rng =
        tgsim::eval::MakeSeedStreams(DeriveSeed(opt.seed, "gen.fit")).fit;
    gen.value()->Fit(*observed, rng);
    tgsim::Status saved;
    {
      Span span(tracer, "eval.save_artifact", rep);
      saved = tgsim::eval::SaveArtifact(*gen.value(), "TGAE", params, artifact);
    }
    tgsim::Result<tgsim::eval::LoadedArtifact> restored =
        tgsim::Status::Internal("not loaded");
    {
      Span span(tracer, "eval.load_artifact", rep);
      restored = tgsim::eval::LoadArtifact(artifact);
    }
    if (!saved.ok() || !restored.ok()) {
      std::fprintf(stderr, "e2ebench: gen fixture: %s %s\n",
                   saved.ToString().c_str(),
                   restored.status().ToString().c_str());
      return false;
    }
    loaded = std::move(restored).value();
    Tracer untraced(false, 1);
    GenerateBytes(*loaded->generator, DeriveSeed(opt.seed, "gen.warm"), -1,
                  untraced, generated);
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu);
  }
  std::remove(artifact.c_str());

  const std::vector<int64_t> budget = observed->EdgesPerTimestamp();
  if (!ResetPeakRss(0))
    std::fprintf(stderr, "e2ebench: cannot reset VmHWM; peak_rss_mib "
                         "includes set-up\n");
  const auto phase = std::chrono::steady_clock::now();
  std::vector<double> op_cpu_ms, op_wall_ms, tracked_mib;
  std::string first_payload;
  for (int k = 0; k < kMinOps || SecondsSince(phase) < opt.seconds; ++k) {
    const size_t op = report.Op();
    const uint64_t seed = DeriveSeed(opt.seed, "gen.op", k);
    tgsim::MemoryTracker::Global().ResetPeak();
    const double cpu = ProcessCpuSeconds();
    tgsim::Stopwatch watch;
    std::string payload =
        GenerateBytes(*loaded->generator, seed, k, tracer, generated);
    op_cpu_ms.push_back(1e3 * (ProcessCpuSeconds() - cpu));
    op_wall_ms.push_back(watch.ElapsedMillis());
    tracked_mib.push_back(
        MiB(static_cast<double>(tgsim::MemoryTracker::Global().PeakBytes())));

    // Checks (untimed): the MSG per-timestamp edge counts, no self-loops.
    if (k == 0) {
      if (opt.inject_fault == "drop-edge") generated = DropLastEdge(*generated);
      if (opt.inject_fault == "flip-byte") payload[payload.size() / 2] ^= 1;
      first_payload = std::move(payload);
    }
    if (generated->EdgesPerTimestamp() != budget)
      report.Fail(op, "per-timestamp edge counts differ from the MSG mimic");
    if (HasSelfLoop(*generated)) report.Fail(op, "self-loop generated");
  }
  // One seed generated twice is byte-identical.
  Tracer untraced(false, 1);
  if (GenerateBytes(*loaded->generator, DeriveSeed(opt.seed, "gen.op", 0), -1,
                    untraced, generated) != first_payload)
    report.Fail(0, "the same seed generated different bytes");

  report.SetContext("op_wall_p50_ms", Median(op_wall_ms));
  if (!opt.trace) {
    report.Set("setup_s", Median(setup_cpu_s));
    report.Set("op_cpu_ms", Median(op_cpu_ms));
    report.Set("peak_tracked_mib",
               *std::max_element(tracked_mib.begin(),
                                 tracked_mib.begin() + kMinOps));
    report.Set("peak_rss_mib", PeakRssMib(0));
    return true;
  }

  report.Set("datasets.mimic_ms", Median(tracer.DurationsMs("datasets.mimic")));
  report.Set("eval.save_artifact_ms",
             Median(tracer.DurationsMs("eval.save_artifact")));
  report.Set("eval.load_artifact_ms",
             Median(tracer.DurationsMs("eval.load_artifact")));
  const double generate_ms = Median(tracer.DurationsMs("core.generate"));
  const double write_ms = Median(tracer.DurationsMs("datasets.write_edges"));
  report.Set("core.generate_ms", generate_ms);
  report.Set("datasets.write_edges_ms", write_ms);

  // Replay one Generate (+ WriteEdgeList) at 4 threads and at 1 thread.
  const tgsim::core::TgaeConfig config;
  const uint64_t replay_seed = DeriveSeed(opt.seed, "gen.replay");
  const ReplayResult multi =
      ReplayGenerate(*observed, config, replay_seed, tracer);
  tgsim::parallel::ThreadPool::SetGlobalThreads(1);
  Tracer single_tracer(true, 1);
  const ReplayResult single =
      ReplayGenerate(*observed, config, replay_seed, single_tracer);
  tgsim::parallel::ThreadPool::SetGlobalThreads(opt.threads);

  ReportReplay(multi, 1.0, observed->num_nodes(), config.hidden_dim, report);
  report.Set("parallel.gen_scaling", single.wall_ms / multi.wall_ms);
  report.Set("gen.replay_coverage", multi.wall_ms / (generate_ms + write_ms));
  return true;
}

}  // namespace e2ebench
