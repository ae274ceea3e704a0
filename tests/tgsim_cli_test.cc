#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "gtest/gtest.h"
#include "parallel/thread_pool.h"
#include "tools/tgsim_cli.h"

namespace tgsim {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Runs the CLI in-process, capturing stdout.
struct CliResult {
  int code = 0;
  std::string out;
};

CliResult RunCli(const std::vector<std::string>& args) {
  ::testing::internal::CaptureStdout();
  CliResult result;
  result.code = cli::Run(args);
  result.out = ::testing::internal::GetCapturedStdout();
  return result;
}

TEST(TgsimCliTest, NoArgsPrintsUsageAndFails) {
  CliResult r = RunCli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("Usage: tgsim"), std::string::npos);
}

TEST(TgsimCliTest, HelpSucceeds) {
  EXPECT_EQ(RunCli({"--help"}).code, 0);
  EXPECT_EQ(RunCli({"help"}).code, 0);
}

TEST(TgsimCliTest, UnknownCommandIsUsageError) {
  EXPECT_EQ(RunCli({"frobnicate"}).code, 2);
}

TEST(TgsimCliTest, MethodsListsTheFullRegistry) {
  CliResult r = RunCli({"methods"});
  EXPECT_EQ(r.code, 0);
  for (const char* name :
       {"TGAE", "TIGGER", "DYMOND", "TGGAN", "TagGen", "NetGAN", "E-R",
        "B-A", "VGAE", "Graphite", "SBMGNN", "TGAE-g", "TGAE-p"})
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
}

TEST(TgsimCliTest, MethodsVerboseShowsSchemaAndPreset) {
  CliResult r = RunCli({"methods", "--method", "TGAE"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("epochs (int, default=50)"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("preset=fast applies: epochs=5 batch_centers=16"),
            std::string::npos)
      << r.out;
}

TEST(TgsimCliTest, MethodsUnknownNameFails) {
  EXPECT_EQ(RunCli({"methods", "--method", "NoSuchMethod"}).code, 1);
}

TEST(TgsimCliTest, GenerateWritesALoadableEdgeList) {
  // The end-to-end smoke of the acceptance criteria: generate on a small
  // synthetic graph with --param overrides, reload with LoadEdgeList,
  // check the shape is preserved.
  std::string out_path = TempPath("cli_generated.txt");
  CliResult r = RunCli({"generate", "--method", "E-R", "--synthetic", "DBLP",
                        "--scale", "0.04", "--output", out_path, "--seed",
                        "11"});
  EXPECT_EQ(r.code, 0) << r.out;
  Result<graphs::TemporalGraph> reloaded = datasets::LoadEdgeList(out_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  graphs::TemporalGraph observed =
      datasets::MakeMimicByName("DBLP", 0.04, 11);
  EXPECT_EQ(reloaded.value().num_nodes(), observed.num_nodes());
  EXPECT_EQ(reloaded.value().num_timestamps(), observed.num_timestamps());
  EXPECT_EQ(reloaded.value().num_edges(), observed.num_edges());
}

TEST(TgsimCliTest, GenerateHonorsParamOverrides) {
  std::string out_path = TempPath("cli_tgae.txt");
  CliResult r = RunCli({"generate", "--method", "TGAE", "--preset", "fast",
                        "--param", "epochs=1", "--param", "batch_centers=8",
                        "--synthetic", "DBLP", "--scale", "0.03",
                        "--output", out_path, "--seed", "5"});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_TRUE(datasets::LoadEdgeList(out_path).ok());
}

TEST(TgsimCliTest, GenerateReadsConfigFiles) {
  std::string cfg_path = TempPath("cli_params.cfg");
  FILE* f = fopen(cfg_path.c_str(), "w");
  fputs("# smoke profile\npreset = fast\nepochs = 1\n", f);
  fclose(f);
  std::string out_path = TempPath("cli_cfg_out.txt");
  CliResult r = RunCli({"generate", "--method", "TIGGER", "--config",
                        cfg_path, "--synthetic", "DBLP", "--scale", "0.03",
                        "--output", out_path, "--seed", "5"});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_TRUE(datasets::LoadEdgeList(out_path).ok());
}

TEST(TgsimCliTest, GenerateFromInputFileRoundTrips) {
  // Save a mimic, feed it back through --input.
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.03, 9);
  std::string in_path = TempPath("cli_input.txt");
  ASSERT_TRUE(datasets::SaveEdgeList(g, in_path).ok());
  std::string out_path = TempPath("cli_input_out.txt");
  CliResult r = RunCli({"generate", "--method", "B-A", "--input", in_path,
                        "--output", out_path});
  EXPECT_EQ(r.code, 0) << r.out;
  Result<graphs::TemporalGraph> reloaded = datasets::LoadEdgeList(out_path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().num_edges(), g.num_edges());
}

TEST(TgsimCliTest, GenerateRejectsBadInvocations) {
  // Missing required flags.
  EXPECT_EQ(RunCli({"generate", "--method", "E-R"}).code, 2);
  // Unknown method (runtime error, not usage).
  EXPECT_EQ(RunCli({"generate", "--method", "NoSuch", "--synthetic", "DBLP",
                    "--output", TempPath("x.txt")})
                .code,
            1);
  // Unknown parameter.
  EXPECT_EQ(RunCli({"generate", "--method", "E-R", "--param", "epochs=5",
                    "--synthetic", "DBLP", "--output", TempPath("x.txt")})
                .code,
            1);
  // Both dataset sources.
  EXPECT_EQ(RunCli({"generate", "--method", "E-R", "--synthetic", "DBLP",
                    "--input", "a.txt", "--output", TempPath("x.txt")})
                .code,
            1);
  // Unknown synthetic name.
  EXPECT_EQ(RunCli({"generate", "--method", "E-R", "--synthetic", "NOPE",
                    "--output", TempPath("x.txt")})
                .code,
            1);
}

TEST(TgsimCliTest, StatsPrintsTableIiiMetrics) {
  CliResult r = RunCli({"stats", "--synthetic", "MSG", "--scale", "0.05"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("nodes"), std::string::npos);
  EXPECT_NE(r.out.find("Mean Degree"), std::string::npos) << r.out;
}

TEST(TgsimCliTest, EvalRunsASmallMatrix) {
  CliResult r = RunCli({"eval", "--methods", "E-R,B-A", "--datasets",
                        "DBLP,MSG", "--scale", "0.03", "--preset", "fast",
                        "--seed", "3"});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_NE(r.out.find("[DBLP]"), std::string::npos);
  EXPECT_NE(r.out.find("[MSG]"), std::string::npos);
  EXPECT_NE(r.out.find("E-R"), std::string::npos);
  EXPECT_NE(r.out.find("Mean Degree"), std::string::npos);
}

TEST(TgsimCliTest, UnknownFlagsAreRejectedWithSuggestion) {
  // Typos must never be silently dropped.
  EXPECT_EQ(RunCli({"eval", "--motif_mmd"}).code, 2);
  EXPECT_EQ(RunCli({"generate", "--metod", "E-R"}).code, 2);
}

TEST(TgsimCliTest, EqualsSyntaxWorksForValueFlags) {
  std::string out_path = TempPath("cli_eq.txt");
  CliResult r = RunCli({"generate", "--method=E-R", "--synthetic=DBLP",
                        "--scale=0.03", "--output=" + out_path,
                        "--seed=11"});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_TRUE(datasets::LoadEdgeList(out_path).ok());
}

TEST(TgsimCliTest, PerCommandHelpIsSpecific) {
  CliResult r = RunCli({"eval", "--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("--motif-delta"), std::string::npos) << r.out;
  CliResult g = RunCli({"generate", "--help"});
  EXPECT_EQ(g.code, 0);
  EXPECT_NE(g.out.find("tgsim generate"), std::string::npos);
}

TEST(TgsimCliTest, EvalRunsOnAnInputEdgeList) {
  graphs::TemporalGraph g = datasets::MakeMimicByName("DBLP", 0.03, 9);
  std::string in_path = TempPath("cli_eval_input.txt");
  ASSERT_TRUE(datasets::SaveEdgeList(g, in_path).ok());
  CliResult r = RunCli({"eval", "--methods", "E-R", "--input", in_path,
                        "--seed", "3"});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_NE(r.out.find(in_path), std::string::npos) << r.out;
  // --input and --datasets are mutually exclusive.
  EXPECT_EQ(RunCli({"eval", "--methods", "E-R", "--input", in_path,
                    "--datasets", "DBLP"})
                .code,
            1);
  // --paper-scale has no Table II spec for a file input.
  EXPECT_EQ(RunCli({"eval", "--methods", "E-R", "--input", in_path,
                    "--paper-scale"})
                .code,
            1);
}

TEST(TgsimCliTest, EvalScopesParamsToDeclaringMethods) {
  // epochs targets TIGGER; parameterless E-R still runs in the same
  // matrix instead of failing the batch.
  CliResult r = RunCli({"eval", "--methods", "E-R,TIGGER", "--datasets",
                        "DBLP", "--scale", "0.03", "--preset", "fast",
                        "--param", "epochs=1", "--seed", "3"});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_NE(r.out.find("TIGGER"), std::string::npos);
  // A key no selected method declares is still an error.
  EXPECT_EQ(RunCli({"eval", "--methods", "E-R,B-A", "--datasets", "DBLP",
                    "--scale", "0.03", "--param", "epochs=1"})
                .code,
            1);
}

TEST(TgsimCliTest, EvalRejectsUnknownMethodAndDataset) {
  EXPECT_EQ(RunCli({"eval", "--methods", "NoSuch", "--datasets", "DBLP",
                    "--scale", "0.03"})
                .code,
            1);
  EXPECT_EQ(RunCli({"eval", "--methods", "E-R", "--datasets", "Nowhere"})
                .code,
            1);
}

// ---------------------------------------------------------------------------
// Model artifacts: tgsim fit + tgsim generate --model.
// ---------------------------------------------------------------------------

TEST(TgsimCliTest, FitThenGenerateFromModelMatchesDirectRun) {
  // Fit-once/serve-many end to end: `fit` then `generate --model` must
  // write the exact edge list of a single in-process `generate` run with
  // the same seed (the two halves consume independent seed streams).
  std::string model_path = TempPath("cli_model.tgsim");
  std::string from_model = TempPath("cli_from_model.txt");
  std::string direct = TempPath("cli_direct.txt");

  CliResult fit = RunCli({"fit", "--method", "TagGen", "--preset", "fast",
                          "--param", "epochs=1", "--synthetic", "DBLP",
                          "--scale", "0.03", "--output", model_path,
                          "--seed", "11"});
  ASSERT_EQ(fit.code, 0) << fit.out;
  EXPECT_NE(fit.out.find("wrote model artifact"), std::string::npos);

  CliResult gen = RunCli({"generate", "--model", model_path, "--output",
                          from_model, "--seed", "11"});
  ASSERT_EQ(gen.code, 0) << gen.out;
  EXPECT_NE(gen.out.find("method TagGen"), std::string::npos) << gen.out;

  CliResult both = RunCli({"generate", "--method", "TagGen", "--preset",
                           "fast", "--param", "epochs=1", "--synthetic",
                           "DBLP", "--scale", "0.03", "--output", direct,
                           "--seed", "11"});
  ASSERT_EQ(both.code, 0) << both.out;

  Result<graphs::TemporalGraph> a = datasets::LoadEdgeList(from_model);
  Result<graphs::TemporalGraph> b = datasets::LoadEdgeList(direct);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().num_edges(), b.value().num_edges());
  for (size_t i = 0; i < a.value().edges().size(); ++i)
    EXPECT_TRUE(a.value().edges()[i] == b.value().edges()[i])
        << "edge " << i;
}

TEST(TgsimCliTest, UpdateAbsorbsDeltaAndBumpsLineage) {
  // fit(first half) + update(second half): the updated artifact generates
  // the full edge budget and reports its update lineage on reload.
  graphs::TemporalGraph observed = datasets::MakeMimicByName("DBLP", 0.03, 11);
  const int split = observed.num_timestamps() / 2;
  std::vector<graphs::TemporalEdge> first, second;
  for (const graphs::TemporalEdge& e : observed.edges())
    (e.t < split ? first : second).push_back(e);
  std::string first_path = TempPath("cli_update_first.txt");
  std::string delta_path = TempPath("cli_update_delta.txt");
  ASSERT_TRUE(datasets::SaveEdgeList(
                  graphs::TemporalGraph::FromEdges(
                      observed.num_nodes(), observed.num_timestamps(),
                      std::move(first)),
                  first_path)
                  .ok());
  ASSERT_TRUE(datasets::SaveEdgeList(
                  graphs::TemporalGraph::FromEdges(
                      observed.num_nodes(), observed.num_timestamps(),
                      std::move(second)),
                  delta_path)
                  .ok());

  std::string model_path = TempPath("cli_update_model.tgsim");
  std::string updated_path = TempPath("cli_update_model2.tgsim");
  CliResult fit = RunCli({"fit", "--method", "E-R", "--input", first_path,
                          "--output", model_path, "--seed", "11"});
  ASSERT_EQ(fit.code, 0) << fit.out;

  CliResult update = RunCli({"update", "--model", model_path, "--input",
                             delta_path, "--output", updated_path,
                             "--seed", "11"});
  ASSERT_EQ(update.code, 0) << update.out;
  EXPECT_NE(update.out.find("wrote model artifact"), std::string::npos)
      << update.out;
  EXPECT_NE(update.out.find("update #1"), std::string::npos) << update.out;

  std::string out_path = TempPath("cli_update_generated.txt");
  CliResult gen = RunCli({"generate", "--model", updated_path, "--output",
                          out_path, "--seed", "11"});
  ASSERT_EQ(gen.code, 0) << gen.out;
  Result<graphs::TemporalGraph> g = datasets::LoadEdgeList(out_path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_edges(), observed.num_edges());
}

TEST(TgsimCliTest, UpdateRejectsBadInvocations) {
  EXPECT_EQ(RunCli({"update", "--model", "m.tgsim"}).code, 2);
  EXPECT_EQ(RunCli({"update", "--model", TempPath("no_such.tgsim"),
                    "--input", TempPath("no_delta.txt"), "--output",
                    TempPath("out.tgsim")})
                .code,
            1);
}

TEST(TgsimCliTest, GenerateModelRejectsConflictingFlags) {
  // --model with --method is a usage error; with dataset or construction
  // flags it is a runtime error (the artifact embeds all of them).
  EXPECT_EQ(RunCli({"generate", "--model", "m.tgsim", "--method", "E-R",
                    "--output", TempPath("x.txt")})
                .code,
            2);
  EXPECT_EQ(RunCli({"generate", "--model", "m.tgsim", "--synthetic", "DBLP",
                    "--output", TempPath("x.txt")})
                .code,
            1);
  EXPECT_EQ(RunCli({"generate", "--model", "m.tgsim", "--preset", "fast",
                    "--output", TempPath("x.txt")})
                .code,
            1);
}

TEST(TgsimCliTest, GenerateFromMissingOrGarbageModelFails) {
  EXPECT_EQ(RunCli({"generate", "--model", TempPath("no_such.tgsim"),
                    "--output", TempPath("x.txt")})
                .code,
            1);
  std::string garbage = TempPath("garbage.tgsim");
  FILE* f = fopen(garbage.c_str(), "w");
  fputs("not an artifact\n", f);
  fclose(f);
  EXPECT_EQ(RunCli({"generate", "--model", garbage, "--output",
                    TempPath("x.txt")})
                .code,
            1);
}

TEST(TgsimCliTest, FitRequiresMethodAndOutput) {
  EXPECT_EQ(RunCli({"fit", "--method", "E-R"}).code, 2);
  EXPECT_EQ(RunCli({"fit", "--output", TempPath("m.tgsim")}).code, 2);
  EXPECT_EQ(RunCli({"fit", "--method", "NoSuch", "--synthetic", "DBLP",
                    "--output", TempPath("m.tgsim")})
                .code,
            1);
}

// ---------------------------------------------------------------------------
// --threads: thread control without TGSIM_NUM_THREADS plumbing.
// ---------------------------------------------------------------------------

TEST(TgsimCliTest, ThreadsFlagResizesTheGlobalPool) {
  std::string out_path = TempPath("cli_threads.txt");
  CliResult r = RunCli({"generate", "--method", "E-R", "--synthetic", "DBLP",
                        "--scale", "0.03", "--output", out_path, "--seed",
                        "7", "--threads", "3"});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_EQ(parallel::ThreadPool::GlobalThreads(), 3);
  // Restore a deterministic default for the rest of the process.
  parallel::ThreadPool::SetGlobalThreads(
      parallel::ThreadPool::DefaultNumThreads());
}

TEST(TgsimCliTest, ThreadsFlagRejectsBadValues) {
  EXPECT_EQ(RunCli({"generate", "--method", "E-R", "--synthetic", "DBLP",
                    "--output", TempPath("x.txt"), "--threads", "0"})
                .code,
            2);
  EXPECT_EQ(RunCli({"generate", "--method", "E-R", "--synthetic", "DBLP",
                    "--output", TempPath("x.txt"), "--threads", "lots"})
                .code,
            2);
}

TEST(TgsimCliTest, ConvertRoundTripsTextAndBinary) {
  std::string text1 = TempPath("cli_conv.txt");
  std::string bin = TempPath("cli_conv.bin");
  std::string text2 = TempPath("cli_conv2.txt");
  CliResult gen = RunCli({"generate", "--method", "E-R", "--synthetic",
                          "DBLP", "--scale", "0.04", "--output", text1,
                          "--seed", "11"});
  ASSERT_EQ(gen.code, 0) << gen.out;
  CliResult to_bin = RunCli(
      {"convert", "--input", text1, "--output", bin, "--to", "binary"});
  EXPECT_EQ(to_bin.code, 0) << to_bin.out;
  EXPECT_NE(to_bin.out.find("wrote binary edge list"), std::string::npos)
      << to_bin.out;
  CliResult to_text = RunCli(
      {"convert", "--input", bin, "--output", text2, "--to", "text"});
  EXPECT_EQ(to_text.code, 0) << to_text.out;

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(text1), slurp(text2));
  EXPECT_LT(slurp(bin).size(), slurp(text1).size());

  // Downstream commands read the binary file through the same sniffing
  // load path.
  CliResult stats = RunCli({"stats", "--input", bin});
  EXPECT_EQ(stats.code, 0) << stats.out;
}

TEST(TgsimCliTest, ConvertRejectsBadInvocations) {
  std::string text = TempPath("cli_conv_bad.txt");
  CliResult gen = RunCli({"generate", "--method", "E-R", "--synthetic",
                          "DBLP", "--scale", "0.03", "--output", text,
                          "--seed", "5"});
  ASSERT_EQ(gen.code, 0) << gen.out;
  std::string out = TempPath("cli_conv_bad.bin");
  // Unknown target format.
  EXPECT_EQ(RunCli({"convert", "--input", text, "--output", out, "--to",
                    "csv"})
                .code,
            2);
  // Missing required flags.
  EXPECT_EQ(RunCli({"convert", "--input", text, "--to", "binary"}).code, 2);
  EXPECT_EQ(RunCli({"convert", "--output", out, "--to", "binary"}).code, 2);
  EXPECT_EQ(RunCli({"convert", "--input", text, "--output", out}).code, 2);
  // Unreadable input is a runtime failure, not a usage error.
  EXPECT_EQ(RunCli({"convert", "--input", "/nonexistent/in.txt", "--output",
                    out, "--to", "binary"})
                .code,
            1);
}

}  // namespace
}  // namespace tgsim
