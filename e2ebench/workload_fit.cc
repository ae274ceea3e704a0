// fit-paper-dblp: the paper's Fig. 6 training cost. One op is
// eval::MakeGenerator("TGAE", preset=paper) + Fit on the DBLP mimic at
// scale 1.0, always with the same fit seed, so every op does identical work
// and must save a byte-identical artifact.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/memory_tracker.h"
#include "common/stopwatch.h"
#include "core/tgae.h"
#include "datasets/synthetic.h"
#include "eval/artifact.h"
#include "eval/registry.h"
#include "parallel/thread_pool.h"
#include "replay.h"
#include "workloads.h"

namespace e2ebench {

namespace tg = tgsim::graphs;

bool RunFitPaperDblp(const Options& opt, Tracer& tracer, Report& report) {
  const double scale = opt.toy ? 0.05 : 1.0;
  // The warm-up op is a same-shape fit on a short epoch budget: it pays the
  // first-use costs (pool start, kernel dispatch, allocator growth) without
  // a second full fit per setup.
  const int warm_epochs = opt.toy ? 1 : 5;
  const int op_epochs = opt.toy ? 2 : 0;  // 0 = the preset's 50.
  const tgsim::config::ParamMap params = PaperParams(op_epochs);
  const uint64_t fit_seed = DeriveSeed(opt.seed, "fit");

  std::optional<tg::TemporalGraph> observed;
  std::vector<double> setup_cpu_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double cpu = ProcessCpuSeconds();
    {
      Span span(tracer, "datasets.mimic", rep);
      observed = tgsim::datasets::MakeMimicByName(
          "DBLP", scale, kMimicSeed);
    }
    auto warm = tgsim::eval::MakeGenerator("TGAE", PaperParams(warm_epochs));
    tgsim::Rng rng = tgsim::eval::MakeSeedStreams(fit_seed).fit;
    warm.value()->Fit(*observed, rng);
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu);
  }

  if (!ResetPeakRss(0))
    std::fprintf(stderr, "e2ebench: cannot reset VmHWM; peak_rss_mib "
                         "includes set-up\n");
  const auto phase = std::chrono::steady_clock::now();
  const std::string artifact = opt.workdir + "/fit.tgsim";
  std::string reference_bytes;
  std::vector<double> op_cpu_ms, op_wall_ms, tracked_mib;
  for (int k = 0; k < kMinOps || SecondsSince(phase) < opt.seconds; ++k) {
    const size_t op = report.Op();
    tgsim::MemoryTracker::Global().ResetPeak();
    const double cpu = ProcessCpuSeconds();
    tgsim::Stopwatch watch;
    std::unique_ptr<tgsim::baselines::TemporalGraphGenerator> fitted;
    {
      Span span(tracer, "core.fit", k);
      auto made = tgsim::eval::MakeGenerator("TGAE", params);
      tgsim::Rng rng = tgsim::eval::MakeSeedStreams(fit_seed).fit;
      made.value()->Fit(*observed, rng);
      fitted = std::move(made).value();
    }
    op_cpu_ms.push_back(1e3 * (ProcessCpuSeconds() - cpu));
    op_wall_ms.push_back(watch.ElapsedMillis());
    tracked_mib.push_back(
        MiB(static_cast<double>(tgsim::MemoryTracker::Global().PeakBytes())));

    // Checks (untimed): same-seed fits save byte-identical artifacts, and
    // the first fit's Generate spends the observed per-(t, u) budget.
    tgsim::eval::UpdateLineage lineage;
    lineage.base_fit_seed = fit_seed;
    tgsim::Status saved;
    {
      Span span(tracer, "eval.save_artifact", k);
      saved = tgsim::eval::SaveArtifact(*fitted, "TGAE", params, artifact,
                                        lineage);
    }
    const std::string bytes = ReadFile(artifact);
    if (!saved.ok() || bytes.empty()) {
      report.Fail(op, "SaveArtifact: " + saved.ToString());
    } else if (k == 0) {
      reference_bytes = bytes;
    } else if (bytes != reference_bytes) {
      report.Fail(op, "same-seed fit saved a different artifact");
    }
    if (k == 0) {
      tgsim::Rng rng = tgsim::eval::MakeSeedStreams(fit_seed).generate;
      std::optional<tg::TemporalGraph> generated;
      {
        Span span(tracer, "core.generate", k);
        generated = fitted->Generate(rng);
      }
      if (opt.inject_fault == "drop-edge") generated = DropLastEdge(*generated);
      if (OutDegreeProfile(*generated) != OutDegreeProfile(*observed))
        report.Fail(op, "generated graph misses the observed out-edge budget");
    }
  }
  std::remove(artifact.c_str());

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

  const double fit_ms = Median(tracer.DurationsMs("core.fit"));
  report.Set("datasets.mimic_ms", Median(tracer.DurationsMs("datasets.mimic")));
  report.Set("core.fit_ms", fit_ms);
  report.Set("core.generate_ms", Median(tracer.DurationsMs("core.generate")));
  report.Set("eval.save_artifact_ms",
             Median(tracer.DurationsMs("eval.save_artifact")));

  // Replay a few epochs at 4 threads and at 1 thread; per-op figures scale
  // the per-epoch means by the fit's epoch budget.
  tgsim::core::TgaeConfig config;
  if (op_epochs > 0) config.epochs = op_epochs;
  const int replay_epochs = opt.toy ? 1 : 5;
  const uint64_t replay_seed = DeriveSeed(opt.seed, "fit.replay");
  const ReplayResult multi =
      ReplayTrainEpochs(*observed, config, replay_epochs, replay_seed, tracer);
  tgsim::parallel::ThreadPool::SetGlobalThreads(1);
  Tracer single_tracer(true, 1);
  const ReplayResult single = ReplayTrainEpochs(
      *observed, config, replay_epochs, replay_seed, single_tracer);
  tgsim::parallel::ThreadPool::SetGlobalThreads(opt.threads);

  const double per_op = static_cast<double>(config.epochs) / replay_epochs;
  ReportReplay(multi, per_op, observed->num_nodes(), config.hidden_dim,
               report);
  report.Set("parallel.fit_scaling", single.wall_ms / multi.wall_ms);
  report.Set("fit.replay_coverage", multi.wall_ms * per_op / fit_ms);
  return true;
}

}  // namespace e2ebench
