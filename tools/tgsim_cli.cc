#include "tools/tgsim_cli.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "config/param_map.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "eval/artifact.h"
#include "eval/registry.h"
#include "eval/runner.h"
#include "eval/table_printer.h"
#include "graph/temporal_graph.h"
#include "metrics/graph_stats.h"
#include "parallel/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"

namespace tgsim::cli {

namespace {

constexpr char kUsage[] =
    "tgsim — learning-based temporal graph simulation (TGAE + baselines)\n"
    "\n"
    "Usage: tgsim <command> [options]\n"
    "\n"
    "Commands:\n"
    "  methods   List registered generator methods and their parameters.\n"
    "  fit       Fit a method on a dataset and save the trained model\n"
    "            artifact (fit once, then `generate --model` many times).\n"
    "  generate  Write a synthetic edge list, fitting on a dataset or\n"
    "            loading a trained artifact (--model).\n"
    "  update    Absorb a delta edge list into a fitted artifact\n"
    "            incrementally (no full refit) and save the result.\n"
    "  eval      Run a (methods x datasets) matrix and print paper-style "
    "tables.\n"
    "  stats     Print shape and Table III statistics of a dataset.\n"
    "  convert   Re-encode an edge list between the text and compact\n"
    "            binary formats (both load anywhere --input is accepted).\n"
    "  serve     Run (or query) the model-serving daemon: preloaded\n"
    "            artifacts answering generate requests over a local "
    "socket.\n"
    "\n"
    "Dataset selection (generate/eval/stats):\n"
    "  --input PATH       Edge-list file (`u v t` per line; datasets/io.h).\n"
    "  --synthetic NAME   Table II mimic (DBLP, MSG, EMAIL, MATH, BITCOIN-A,\n"
    "                     BITCOIN-O, UBUNTU). eval takes a comma list via\n"
    "                     --datasets instead.\n"
    "  --scale S          Mimic scale factor (default 0.05).\n"
    "\n"
    "Generator construction (generate/eval):\n"
    "  --preset fast|paper  Named parameter profile (default paper).\n"
    "  --param key=value    Per-method override; repeatable, wins over the\n"
    "                       preset and over --config assignments.\n"
    "  --config PATH        `key = value` file applied before --param.\n"
    "\n"
    "Runtime:\n"
    "  --threads N        Global thread-pool size (wins over the\n"
    "                     TGSIM_NUM_THREADS environment variable).\n"
    "\n"
    "Run `tgsim <command> --help` for per-command options.\n";

constexpr char kFitUsage[] =
    "usage: tgsim fit --method NAME --output MODEL.tgsim\n"
    "         (--input PATH | --synthetic NAME [--scale S])\n"
    "         [--preset fast|paper] [--param key=value ...] [--config FILE]\n"
    "         [--seed N]\n"
    "Fits NAME on the dataset and saves the trained simulator as a\n"
    "self-describing artifact (method + parameters + fitted state).\n"
    "`tgsim generate --model MODEL.tgsim` then generates without the\n"
    "training data; with the same --seed it reproduces an in-process\n"
    "fit+generate run exactly.\n";

constexpr char kUpdateUsage[] =
    "usage: tgsim update --model IN.tgsim --input DELTA --output OUT.tgsim\n"
    "         [--seed N]\n"
    "Loads a `tgsim fit` artifact, absorbs the delta edge list (new\n"
    "observations inside the fitted node/timestamp universe; growing\n"
    "either axis requires a full refit) through the method's incremental\n"
    "Update path, and saves the updated artifact. The statistical family\n"
    "merges support structures and rebuilds its samplers; the NN family\n"
    "takes a bounded warm start on recency-biased snapshots. An empty\n"
    "delta is a no-op. The artifact records its update lineage (base fit\n"
    "seed, update count); `tgsim generate --model OUT.tgsim` serves the\n"
    "updated model as usual.\n";

constexpr char kGenerateUsage[] =
    "usage: tgsim generate --method NAME --output PATH\n"
    "         (--input PATH | --synthetic NAME [--scale S])\n"
    "         [--preset fast|paper] [--param key=value ...] [--config FILE]\n"
    "         [--seed N]\n"
    "   or: tgsim generate --model MODEL.tgsim --output PATH [--seed N]\n"
    "Simulates one graph with the observed shape and writes it as a\n"
    "`u v t` edge list (reloadable with LoadEdgeList / --input). The first\n"
    "form fits NAME on the dataset; the second loads a `tgsim fit`\n"
    "artifact and needs no dataset at all.\n";

constexpr char kEvalUsage[] =
    "usage: tgsim eval [--methods A,B|all]\n"
    "         (--datasets DBLP,MSG [--scale S] | --input PATH)\n"
    "         [--preset fast|paper] [--param key=value ...] [--config FILE]\n"
    "         [--seed N] [--stride K] [--motif-mmd] [--motif-delta D]\n"
    "         [--max-triples N] [--paper-scale]\n"
    "Runs every (method, dataset) cell through eval::RunCells and prints\n"
    "one f_med table per dataset (plus motif MMD with --motif-mmd).\n"
    "A --param key applies to each selected method whose schema declares\n"
    "it; a key no selected method declares is an error. --paper-scale\n"
    "marks cells OOM per the 32 GB paper-scale memory model.\n";

constexpr char kStatsUsage[] =
    "usage: tgsim stats (--input PATH | --synthetic NAME [--scale S])\n"
    "         [--seed N]\n"
    "Prints the dataset shape and the seven Table III statistics of the\n"
    "accumulated graph.\n";

constexpr char kConvertUsage[] =
    "usage: tgsim convert --input PATH --output PATH --to text|binary\n"
    "Loads an edge list (either format is sniffed by magic bytes) and\n"
    "rewrites it in the requested format. Round trips are byte-identical:\n"
    "the graph's canonical (t, u, v) edge order makes text -> binary ->\n"
    "text reproduce the original file exactly. The binary form stores\n"
    "varint-delta (u, v, t) triples and is typically 3-6x smaller.\n";

constexpr char kServeUsage[] =
    "usage: tgsim serve --socket PATH --model NAME=MODEL.tgsim ...\n"
    "         [--budget-mb N] [--workers N] [--max-pending N]\n"
    "   or: tgsim serve --socket PATH --call generate --name NAME\n"
    "         [--seed N] [--output PATH]\n"
    "   or: tgsim serve --socket PATH --call update --name NAME\n"
    "         --input DELTA [--seed N]\n"
    "   or: tgsim serve --socket PATH (--call stats|list|shutdown | "
    "--status)\n"
    "Daemon mode preloads every --model artifact (NAME=PATH, repeatable)\n"
    "into a byte-budgeted cache and serves line-delimited JSON requests on\n"
    "a Unix-domain socket until a shutdown request drains it. Client mode\n"
    "(--call/--status) sends one request to a running daemon; a generate\n"
    "reply's payload is the same edge list `tgsim generate --model` writes\n"
    "for that seed, and --output saves it byte-for-byte. --call update\n"
    "absorbs the delta at --input (a daemon-local path) into the served\n"
    "model, rewrites its artifact, and swaps it in atomically — in-flight\n"
    "generates finish on the old state.\n"
    "  --budget-mb N    Model-cache budget in MiB (default 1024); least-\n"
    "                   traffic models are evicted and reloaded on demand.\n"
    "  --workers N      Concurrent connection workers (default 4).\n"
    "  --max-pending N  Accepted-connection backlog bound (default 64).\n"
    "  --status         Shorthand for --call stats.\n";

constexpr char kMethodsUsage[] =
    "usage: tgsim methods [--verbose] [--method NAME]\n"
    "Lists registered generator methods; --verbose (or --method NAME)\n"
    "also prints each method's parameter schema and fast-preset overlay.\n";

struct ParsedArgs {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;  // With values.
  std::vector<std::string> switches;                       // Bare flags.
};

const std::vector<std::string>& ValueFlags() {
  static const std::vector<std::string>* kValueFlags =
      new std::vector<std::string>{
          "--input",  "--synthetic", "--scale",  "--seed",    "--method",
          "--output", "--preset",    "--param",  "--config",  "--methods",
          "--datasets", "--stride",  "--motif-delta", "--max-triples",
          "--model",  "--threads",   "--socket", "--budget-mb",
          "--workers", "--max-pending", "--call", "--name", "--to"};
  return *kValueFlags;
}

const std::vector<std::string>& SwitchFlags() {
  static const std::vector<std::string>* kSwitches =
      new std::vector<std::string>{"--help", "--verbose", "--motif-mmd",
                                   "--paper-scale", "--status"};
  return *kSwitches;
}

bool Contains(const std::vector<std::string>& names,
              const std::string& flag) {
  for (const std::string& known : names)
    if (flag == known) return true;
  return false;
}

/// Splits argv into positional tokens, valued flags and switches. Both
/// `--flag value` and `--flag=value` spellings are accepted; a flag that is
/// neither a known value flag nor a known switch is an error (with a
/// nearest-name suggestion), never silently dropped.
Result<ParsedArgs> ParseArgs(const std::vector<std::string>& args) {
  ParsedArgs out;
  for (size_t i = 0; i < args.size(); ++i) {
    std::string arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional.push_back(arg);
      continue;
    }
    std::string inline_value;
    bool has_inline_value = false;
    if (size_t eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      has_inline_value = true;
      arg = arg.substr(0, eq);
    }
    if (Contains(ValueFlags(), arg)) {
      if (has_inline_value) {
        out.flags.emplace_back(arg, inline_value);
      } else {
        if (i + 1 >= args.size())
          return Status::InvalidArgument("flag " + arg + " needs a value");
        out.flags.emplace_back(arg, args[++i]);
      }
    } else if (Contains(SwitchFlags(), arg)) {
      if (has_inline_value)
        return Status::InvalidArgument("flag " + arg +
                                       " does not take a value");
      out.switches.push_back(arg);
    } else {
      std::vector<std::string> known = ValueFlags();
      known.insert(known.end(), SwitchFlags().begin(), SwitchFlags().end());
      std::string message = "unknown flag '" + arg + "'";
      std::string suggestion = config::NearestName(arg, known);
      if (!suggestion.empty())
        message += "; did you mean '" + suggestion + "'?";
      return Status::InvalidArgument(message);
    }
  }
  return out;
}

const std::string* FindFlag(const ParsedArgs& args, const std::string& flag) {
  const std::string* last = nullptr;
  for (const auto& [k, v] : args.flags)
    if (k == flag) last = &v;
  return last;
}

std::vector<std::string> FlagValues(const ParsedArgs& args,
                                    const std::string& flag) {
  std::vector<std::string> values;
  for (const auto& [k, v] : args.flags)
    if (k == flag) values.push_back(v);
  return values;
}

bool HasSwitch(const ParsedArgs& args, const std::string& name) {
  for (const std::string& s : args.switches)
    if (s == name) return true;
  return false;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    if (comma > start) out.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

Result<double> ParseDoubleFlag(const ParsedArgs& args, const std::string& flag,
                               double fallback) {
  const std::string* raw = FindFlag(args, flag);
  if (raw == nullptr) return fallback;
  config::ParamMap one;
  one.Override("v", *raw);
  Result<double> parsed = one.GetDouble("v");
  if (!parsed.ok())
    return Status::InvalidArgument("flag " + flag + ": cannot parse '" +
                                   *raw + "' as a number");
  return parsed.value();
}

Result<int64_t> ParseIntFlag(const ParsedArgs& args, const std::string& flag,
                             int64_t fallback) {
  const std::string* raw = FindFlag(args, flag);
  if (raw == nullptr) return fallback;
  config::ParamMap one;
  one.Override("v", *raw);
  Result<int64_t> parsed = one.GetInt64("v");
  if (!parsed.ok())
    return Status::InvalidArgument("flag " + flag + ": cannot parse '" +
                                   *raw + "' as an integer");
  return parsed.value();
}

/// Layers --config file assignments under repeated --param tokens.
Result<config::ParamMap> BuildParams(const ParsedArgs& args) {
  config::ParamMap params;
  if (const std::string* path = FindFlag(args, "--config")) {
    Result<config::ParamMap> from_file = config::ParamMap::FromFile(*path);
    if (!from_file.ok()) return from_file.status();
    params = std::move(from_file).value();
  }
  Result<config::ParamMap> overrides =
      config::ParamMap::FromTokens(FlagValues(args, "--param"));
  if (!overrides.ok()) return overrides.status();
  for (const std::string& key : overrides.value().Keys())
    params.Override(key, *overrides.value().FindRaw(key));
  if (const std::string* preset = FindFlag(args, "--preset"))
    params.Override("preset", *preset);
  return params;
}

/// Loads the dataset named by --input or --synthetic/--scale.
Result<graphs::TemporalGraph> LoadDataset(const ParsedArgs& args,
                                          uint64_t seed) {
  const std::string* input = FindFlag(args, "--input");
  const std::string* synthetic = FindFlag(args, "--synthetic");
  if ((input == nullptr) == (synthetic == nullptr))
    return Status::InvalidArgument(
        "pick exactly one of --input PATH or --synthetic NAME");
  if (input != nullptr) return datasets::LoadEdgeList(*input);

  if (datasets::FindDataset(*synthetic) == nullptr) {
    std::string known;
    for (const datasets::DatasetSpec& spec : datasets::TableIIDatasets())
      known += (known.empty() ? "" : ", ") + spec.name;
    return Status::NotFound("unknown synthetic dataset '" + *synthetic +
                            "'; known: " + known);
  }
  Result<double> scale = ParseDoubleFlag(args, "--scale", 0.05);
  if (!scale.ok()) return scale.status();
  return datasets::MakeMimicByName(*synthetic, scale.value(), seed);
}

void PrintGraphShape(const char* label, const graphs::TemporalGraph& g) {
  std::printf("%s: %d nodes, %lld temporal edges, %d timestamps\n", label,
              g.num_nodes(), static_cast<long long>(g.num_edges()),
              g.num_timestamps());
}

// ---------------------------------------------------------------------------
// tgsim methods
// ---------------------------------------------------------------------------

int RunMethods(const ParsedArgs& args) {
  const std::string* only = FindFlag(args, "--method");
  const bool verbose = HasSwitch(args, "--verbose") || only != nullptr;
  std::vector<std::string> names;
  if (only != nullptr) {
    if (eval::FindMethod(*only) == nullptr) {
      std::fprintf(stderr, "error: %s\n",
                   eval::MakeGenerator(*only).status().ToString().c_str());
      return 1;
    }
    names.push_back(*only);
  } else {
    names = eval::RegisteredMethodNames();
  }
  for (const std::string& name : names) {
    const eval::MethodSpec* spec = eval::FindMethod(name);
    std::printf("%-10s %s\n", spec->name.c_str(), spec->summary.c_str());
    if (!verbose) continue;
    if (spec->schema.empty()) {
      std::printf("  (no tunable parameters)\n");
    } else {
      std::printf("%s", spec->schema.Describe().c_str());
      if (!spec->fast_preset.empty())
        std::printf("  preset=fast applies: %s\n",
                    spec->fast_preset.ToString().c_str());
    }
    std::printf("\n");
  }
  if (!verbose)
    std::printf("\n(`tgsim methods --verbose` lists parameters; "
                "`--method NAME` shows one method)\n");
  return 0;
}

// ---------------------------------------------------------------------------
// tgsim fit / generate
// ---------------------------------------------------------------------------

/// Builds the registry generator named by --method with the layered
/// parameters; prints the schema on a construction error.
Result<std::unique_ptr<baselines::TemporalGraphGenerator>> BuildCliGenerator(
    const std::string& method, const config::ParamMap& params) {
  auto generator = eval::MakeGenerator(method, params);
  if (!generator.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 generator.status().ToString().c_str());
    const eval::MethodSpec* spec = eval::FindMethod(method);
    if (spec != nullptr && !spec->schema.empty())
      std::fprintf(stderr, "parameters of %s:\n%s", method.c_str(),
                   spec->schema.Describe().c_str());
  }
  return generator;
}

int RunFit(const ParsedArgs& args) {
  const std::string* method = FindFlag(args, "--method");
  const std::string* output = FindFlag(args, "--output");
  if (method == nullptr || output == nullptr) {
    std::fprintf(stderr, "%s", kFitUsage);
    return 2;
  }
  Result<int64_t> seed = ParseIntFlag(args, "--seed", 7);
  if (!seed.ok()) {
    std::fprintf(stderr, "error: %s\n", seed.status().ToString().c_str());
    return 1;
  }
  Result<config::ParamMap> params = BuildParams(args);
  if (!params.ok()) {
    std::fprintf(stderr, "error: %s\n", params.status().ToString().c_str());
    return 1;
  }
  auto generator = BuildCliGenerator(*method, params.value());
  if (!generator.ok()) return 1;

  Result<graphs::TemporalGraph> observed =
      LoadDataset(args, static_cast<uint64_t>(seed.value()));
  if (!observed.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 observed.status().ToString().c_str());
    return 1;
  }
  PrintGraphShape("observed", observed.value());

  eval::SeedStreams streams =
      eval::MakeSeedStreams(static_cast<uint64_t>(seed.value()));
  Stopwatch fit_watch;
  generator.value()->Fit(observed.value(), streams.fit);
  double fit_s = fit_watch.ElapsedSeconds();

  eval::UpdateLineage lineage;
  lineage.base_fit_seed = static_cast<uint64_t>(seed.value());
  Status save = eval::SaveArtifact(*generator.value(), *method,
                                   params.value(), *output, lineage);
  if (!save.ok()) {
    std::fprintf(stderr, "error: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("fit %.2fs\n", fit_s);
  std::printf("wrote model artifact %s (method %s)\n", output->c_str(),
              method->c_str());
  return 0;
}

int RunGenerate(const ParsedArgs& args) {
  const std::string* method = FindFlag(args, "--method");
  const std::string* model = FindFlag(args, "--model");
  const std::string* output = FindFlag(args, "--output");
  if (output == nullptr || (method == nullptr) == (model == nullptr)) {
    std::fprintf(stderr, "%s", kGenerateUsage);
    return 2;
  }
  Result<int64_t> seed = ParseIntFlag(args, "--seed", 7);
  if (!seed.ok()) {
    std::fprintf(stderr, "error: %s\n", seed.status().ToString().c_str());
    return 1;
  }
  eval::SeedStreams streams =
      eval::MakeSeedStreams(static_cast<uint64_t>(seed.value()));

  std::unique_ptr<baselines::TemporalGraphGenerator> generator;
  double prepare_s = 0.0;
  const char* prepare_label = "fit";
  if (model != nullptr) {
    // The artifact is self-describing: dataset and construction flags
    // would be silently ignored, so reject them instead.
    for (const char* flag :
         {"--input", "--synthetic", "--scale", "--preset", "--param",
          "--config"}) {
      if (FindFlag(args, flag) != nullptr) {
        std::fprintf(stderr,
                     "error: %s does not combine with --model (the "
                     "artifact embeds the method, parameters and shape)\n",
                     flag);
        return 1;
      }
    }
    prepare_label = "load";
    Stopwatch load_watch;
    Result<eval::LoadedArtifact> loaded = eval::LoadArtifact(*model);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    prepare_s = load_watch.ElapsedSeconds();
    std::printf("loaded %s (method %s%s%s)\n", model->c_str(),
                loaded.value().method.c_str(),
                loaded.value().params.empty() ? "" : ", ",
                loaded.value().params.ToString().c_str());
    generator = std::move(loaded).value().generator;
  } else {
    Result<config::ParamMap> params = BuildParams(args);
    if (!params.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   params.status().ToString().c_str());
      return 1;
    }
    auto built = BuildCliGenerator(*method, params.value());
    if (!built.ok()) return 1;
    generator = std::move(built).value();

    Result<graphs::TemporalGraph> observed =
        LoadDataset(args, static_cast<uint64_t>(seed.value()));
    if (!observed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   observed.status().ToString().c_str());
      return 1;
    }
    PrintGraphShape("observed", observed.value());
    Stopwatch fit_watch;
    generator->Fit(observed.value(), streams.fit);
    prepare_s = fit_watch.ElapsedSeconds();
  }

  Stopwatch gen_watch;
  graphs::TemporalGraph generated = generator->Generate(streams.generate);
  double gen_s = gen_watch.ElapsedSeconds();
  PrintGraphShape("generated", generated);
  std::printf("%s %.2fs, generate %.2fs\n", prepare_label, prepare_s, gen_s);

  Status save = datasets::SaveEdgeList(generated, *output);
  if (!save.ok()) {
    std::fprintf(stderr, "error: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", output->c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// tgsim update
// ---------------------------------------------------------------------------

int RunUpdate(const ParsedArgs& args) {
  const std::string* model = FindFlag(args, "--model");
  const std::string* input = FindFlag(args, "--input");
  const std::string* output = FindFlag(args, "--output");
  if (model == nullptr || input == nullptr || output == nullptr) {
    std::fprintf(stderr, "%s", kUpdateUsage);
    return 2;
  }
  Result<int64_t> seed = ParseIntFlag(args, "--seed", 7);
  if (!seed.ok() || seed.value() < 0) {
    std::fprintf(stderr, "error: --seed must be a non-negative integer\n");
    return 1;
  }

  Result<eval::LoadedArtifact> loaded = eval::LoadArtifact(*model);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %s (method %s, %lld prior updates)\n", model->c_str(),
              loaded.value().method.c_str(),
              static_cast<long long>(loaded.value().lineage.update_count));

  Result<graphs::TemporalGraph> delta = datasets::LoadEdgeList(*input);
  if (!delta.ok()) {
    std::fprintf(stderr, "error: %s\n", delta.status().ToString().c_str());
    return 1;
  }
  PrintGraphShape("delta", delta.value());

  // The serve daemon's update runs the same rule, so it lands on the
  // identical model state for the same artifact, delta and seed.
  Stopwatch update_watch;
  Status updated = eval::UpdateArtifact(
      loaded.value(), delta.value(), static_cast<uint64_t>(seed.value()));
  if (!updated.ok()) {
    std::fprintf(stderr, "error: %s\n", updated.ToString().c_str());
    return 1;
  }
  double update_s = update_watch.ElapsedSeconds();

  const eval::UpdateLineage& lineage = loaded.value().lineage;
  Status save =
      eval::SaveArtifact(*loaded.value().generator, loaded.value().method,
                         loaded.value().params, *output, lineage);
  if (!save.ok()) {
    std::fprintf(stderr, "error: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("update %.2fs\n", update_s);
  std::printf("wrote model artifact %s (method %s, update #%lld)\n",
              output->c_str(), loaded.value().method.c_str(),
              static_cast<long long>(lineage.update_count));
  return 0;
}

// ---------------------------------------------------------------------------
// tgsim eval
// ---------------------------------------------------------------------------

int RunEval(const ParsedArgs& args) {
  std::vector<std::string> methods;
  if (const std::string* list = FindFlag(args, "--methods");
      list != nullptr && *list != "all")
    methods = SplitCommas(*list);
  else
    methods = eval::AllMethodNames();
  const std::string* input = FindFlag(args, "--input");
  std::vector<std::string> dataset_names;
  if (const std::string* list = FindFlag(args, "--datasets"))
    dataset_names = SplitCommas(*list);
  if (input != nullptr && !dataset_names.empty()) {
    std::fprintf(stderr,
                 "error: pick one of --input PATH or --datasets LIST\n");
    return 1;
  }
  if (input == nullptr && dataset_names.empty()) dataset_names = {"DBLP"};
  if (methods.empty()) {
    std::fprintf(stderr, "%s", kEvalUsage);
    return 2;
  }

  Result<int64_t> seed = ParseIntFlag(args, "--seed", 7);
  Result<int64_t> stride = ParseIntFlag(args, "--stride", 1);
  Result<int64_t> motif_delta = ParseIntFlag(args, "--motif-delta", 4);
  Result<int64_t> max_triples =
      ParseIntFlag(args, "--max-triples", 4000000);
  Result<double> scale = ParseDoubleFlag(args, "--scale", 0.05);
  Result<config::ParamMap> params = BuildParams(args);
  for (const Status& s :
       {seed.ok() ? Status::Ok() : seed.status(),
        stride.ok() ? Status::Ok() : stride.status(),
        motif_delta.ok() ? Status::Ok() : motif_delta.status(),
        max_triples.ok() ? Status::Ok() : max_triples.status(),
        scale.ok() ? Status::Ok() : scale.status(),
        params.ok() ? Status::Ok() : params.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  if (stride.value() < 1 || stride.value() > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "error: --stride must be in [1, 2^31)\n");
    return 1;
  }
  if (motif_delta.value() < 0 ||
      motif_delta.value() > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "error: --motif-delta must be in [0, 2^31)\n");
    return 1;
  }
  if (max_triples.value() < 0) {
    std::fprintf(stderr, "error: --max-triples must be non-negative\n");
    return 1;
  }

  // One graph per dataset (a --input edge list, or a mimic per --datasets
  // name); all (method x dataset) cells run as one RunCells batch on the
  // global thread pool.
  std::vector<graphs::TemporalGraph> observed;
  if (input != nullptr) {
    Result<graphs::TemporalGraph> loaded = datasets::LoadEdgeList(*input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset_names = {*input};
    observed.push_back(std::move(loaded).value());
  } else {
    observed.reserve(dataset_names.size());
    for (const std::string& name : dataset_names) {
      if (datasets::FindDataset(name) == nullptr) {
        std::fprintf(stderr, "error: unknown dataset '%s'\n", name.c_str());
        return 1;
      }
      observed.push_back(datasets::MakeMimicByName(
          name, scale.value(), static_cast<uint64_t>(seed.value())));
    }
  }

  // Validate method names first so a typo gets the registry's
  // nearest-name suggestion instead of a misleading parameter error.
  for (const std::string& method : methods) {
    if (eval::FindMethod(method) == nullptr) {
      std::fprintf(stderr, "error: %s\n",
                   eval::MakeGenerator(method).status().ToString().c_str());
      return 1;
    }
  }

  // In a multi-method matrix a --param key targets the methods whose
  // schema declares it (DYMOND/E-R/B-A take none, so passing the full map
  // to every cell would fail the whole batch); a key nobody declares is
  // still an error.
  const config::ParamMap& user_params = params.value();
  for (const std::string& key : user_params.Keys()) {
    if (key == "preset") continue;
    bool declared = false;
    for (const std::string& method : methods) {
      const eval::MethodSpec* spec = eval::FindMethod(method);
      if (spec != nullptr && spec->schema.Find(key) != nullptr) {
        declared = true;
        break;
      }
    }
    if (!declared) {
      std::fprintf(stderr,
                   "error: parameter '%s' is not declared by any selected "
                   "method\n",
                   key.c_str());
      return 1;
    }
  }

  std::vector<eval::RunCell> cells;
  for (size_t d = 0; d < dataset_names.size(); ++d) {
    for (const std::string& method : methods) {
      const eval::MethodSpec* spec = eval::FindMethod(method);
      config::ParamMap cell_params;
      for (const std::string& key : user_params.Keys()) {
        if (key == "preset" ||
            (spec != nullptr && spec->schema.Find(key) != nullptr))
          cell_params.Override(key, *user_params.FindRaw(key));
      }
      eval::RunCell cell;
      cell.method = method;
      cell.observed = &observed[d];
      cell.options.method_params = std::move(cell_params);
      cell.options.metric_stride = static_cast<int>(stride.value());
      cell.options.compute_graph_scores = true;
      cell.options.compute_motif_mmd = HasSwitch(args, "--motif-mmd");
      cell.options.motif_delta = static_cast<int>(motif_delta.value());
      cell.options.motif_max_triples = max_triples.value();
      if (HasSwitch(args, "--paper-scale")) {
        const datasets::DatasetSpec* spec =
            datasets::FindDataset(dataset_names[d]);
        if (spec == nullptr) {
          std::fprintf(stderr,
                       "error: --paper-scale needs a Table II dataset name, "
                       "not an --input file\n");
          return 1;
        }
        cell.options.paper_scale = *spec;
      }
      cells.push_back(std::move(cell));
    }
  }
  Result<std::vector<eval::RunResult>> results =
      eval::RunCells(cells, static_cast<uint64_t>(seed.value()));
  if (!results.ok()) {
    std::fprintf(stderr, "error: %s\n", results.status().ToString().c_str());
    return 1;
  }

  const auto& all_metrics = metrics::AllGraphMetrics();
  for (size_t d = 0; d < dataset_names.size(); ++d) {
    const eval::RunResult* row0 = &results.value()[d * methods.size()];
    std::printf("\n[%s]  n=%d m=%lld T=%d\n", dataset_names[d].c_str(),
                observed[d].num_nodes(),
                static_cast<long long>(observed[d].num_edges()),
                observed[d].num_timestamps());
    std::vector<std::string> header = {"Metric"};
    header.insert(header.end(), methods.begin(), methods.end());
    eval::TablePrinter table(header);
    for (size_t mi = 0; mi < all_metrics.size(); ++mi) {
      std::vector<std::string> row = {metrics::MetricName(all_metrics[mi])};
      for (size_t m = 0; m < methods.size(); ++m) {
        const eval::RunResult& r = row0[m];
        row.push_back(eval::FormatCell(r.oom ? 0.0 : r.scores[mi].med,
                                       r.oom));
      }
      table.AddRow(row);
    }
    if (HasSwitch(args, "--motif-mmd")) {
      std::vector<std::string> row = {"motif MMD"};
      for (size_t m = 0; m < methods.size(); ++m)
        row.push_back(
            eval::FormatCell(row0[m].oom ? 0.0 : row0[m].motif_mmd,
                             row0[m].oom));
      table.AddRow(row);
    }
    std::vector<std::string> fit_row = {"fit+gen (s)"};
    for (size_t m = 0; m < methods.size(); ++m) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f",
                    row0[m].fit_seconds + row0[m].generate_seconds);
      fit_row.push_back(row0[m].oom ? "OOM" : buf);
    }
    table.AddRow(fit_row);
    table.Print();
  }
  std::printf("\nf_med per Table III metric; smaller is better. "
              "OOM = paper-scale memory model exceeds the 32 GB budget.\n");
  return 0;
}

// ---------------------------------------------------------------------------
// tgsim stats
// ---------------------------------------------------------------------------

int RunStats(const ParsedArgs& args) {
  Result<int64_t> seed = ParseIntFlag(args, "--seed", 7);
  if (!seed.ok()) {
    std::fprintf(stderr, "error: %s\n", seed.status().ToString().c_str());
    return 1;
  }
  Result<graphs::TemporalGraph> g =
      LoadDataset(args, static_cast<uint64_t>(seed.value()));
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  PrintGraphShape("dataset", g.value());
  graphs::StaticGraph accumulated =
      g.value().SnapshotUpTo(g.value().num_timestamps() - 1);
  metrics::GraphStats stats = metrics::ComputeAllStats(accumulated);
  std::printf("\nTable III statistics of the accumulated graph:\n");
  for (metrics::GraphMetric m : metrics::AllGraphMetrics())
    std::printf("  %-16s %.6g\n", metrics::MetricName(m).c_str(),
                stats.Get(m));
  return 0;
}

// ---------------------------------------------------------------------------
// tgsim serve
// ---------------------------------------------------------------------------

/// Client mode: one request to a running daemon over its socket.
int RunServeClient(const ParsedArgs& args, const std::string& socket) {
  const std::string* call = FindFlag(args, "--call");
  const std::string op_name =
      HasSwitch(args, "--status") ? "stats" : (call ? *call : "");

  serve::Request request;
  bool known_op = false;
  for (serve::RequestOp op :
       {serve::RequestOp::kGenerate, serve::RequestOp::kStats,
        serve::RequestOp::kList, serve::RequestOp::kShutdown,
        serve::RequestOp::kUpdate}) {
    if (serve::RequestOpName(op) == op_name) {
      request.op = op;
      known_op = true;
      break;
    }
  }
  if (!known_op) {
    std::fprintf(stderr,
                 "error: --call takes generate, update, stats, list or "
                 "shutdown (got '%s')\n",
                 op_name.c_str());
    return 1;
  }
  if (request.op == serve::RequestOp::kGenerate ||
      request.op == serve::RequestOp::kUpdate) {
    const std::string* name = FindFlag(args, "--name");
    if (name == nullptr || name->empty()) {
      std::fprintf(stderr,
                   "error: --call %s needs --name MODEL (a name the "
                   "daemon was started with)\n",
                   op_name.c_str());
      return 1;
    }
    request.model = *name;
    Result<int64_t> seed = ParseIntFlag(args, "--seed", 7);
    if (!seed.ok() || seed.value() < 0) {
      std::fprintf(stderr, "error: --seed must be a non-negative integer\n");
      return 1;
    }
    request.seed = static_cast<uint64_t>(seed.value());
  }
  if (request.op == serve::RequestOp::kUpdate) {
    const std::string* input = FindFlag(args, "--input");
    if (input == nullptr || input->empty()) {
      std::fprintf(stderr,
                   "error: --call update needs --input DELTA (an edge-list "
                   "path readable by the daemon)\n");
      return 1;
    }
    request.input = *input;
  }

  Result<serve::Json> reply = serve::Call(socket, request);
  if (!reply.ok()) {
    std::fprintf(stderr, "error: %s\n", reply.status().ToString().c_str());
    return 1;
  }
  const std::string* output = FindFlag(args, "--output");
  if (request.op == serve::RequestOp::kGenerate && output != nullptr) {
    const serve::Json* payload = reply.value().Find("payload");
    if (payload == nullptr || !payload->is_string()) {
      std::fprintf(stderr, "error: generate reply has no payload field\n");
      return 1;
    }
    std::ofstream out(*output, std::ios::binary);
    out << payload->AsString();
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", output->c_str());
      return 1;
    }
    const serve::Json* nodes = reply.value().Find("nodes");
    const serve::Json* edges = reply.value().Find("edges");
    std::printf("wrote %s (%lld nodes, %lld temporal edges, seed %llu)\n",
                output->c_str(),
                static_cast<long long>(nodes ? nodes->AsIntOr(0) : 0),
                static_cast<long long>(edges ? edges->AsIntOr(0) : 0),
                static_cast<unsigned long long>(request.seed));
    return 0;
  }
  std::printf("%s\n", reply.value().Serialize().c_str());
  return 0;
}

int RunServe(const ParsedArgs& args) {
  const std::string* socket = FindFlag(args, "--socket");
  if (socket == nullptr) {
    std::fprintf(stderr, "%s", kServeUsage);
    return 2;
  }
  if (FindFlag(args, "--call") != nullptr || HasSwitch(args, "--status"))
    return RunServeClient(args, *socket);

  std::vector<std::string> model_flags = FlagValues(args, "--model");
  if (model_flags.empty()) {
    std::fprintf(stderr, "%s", kServeUsage);
    return 2;
  }
  serve::ServeOptions options;
  for (const std::string& binding : model_flags) {
    const size_t eq = binding.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == binding.size()) {
      std::fprintf(stderr,
                   "error: --model takes NAME=PATH in daemon mode (got "
                   "'%s')\n",
                   binding.c_str());
      return 1;
    }
    options.models.push_back(
        serve::ModelSpec{binding.substr(0, eq), binding.substr(eq + 1)});
  }
  Result<int64_t> budget_mb = ParseIntFlag(args, "--budget-mb", 1024);
  Result<int64_t> workers = ParseIntFlag(args, "--workers", 4);
  Result<int64_t> max_pending = ParseIntFlag(args, "--max-pending", 64);
  for (const Status& s : {budget_mb.ok() ? Status::Ok() : budget_mb.status(),
                          workers.ok() ? Status::Ok() : workers.status(),
                          max_pending.ok() ? Status::Ok()
                                           : max_pending.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (budget_mb.value() < 1 ||
      budget_mb.value() > (int64_t{1} << 40) / (1024 * 1024)) {
    std::fprintf(stderr, "error: --budget-mb must be in [1, 2^20]\n");
    return 1;
  }
  if (workers.value() < 1 || workers.value() > 1024) {
    std::fprintf(stderr, "error: --workers must be in [1, 1024]\n");
    return 1;
  }
  if (max_pending.value() < 1 || max_pending.value() > 65536) {
    std::fprintf(stderr, "error: --max-pending must be in [1, 65536]\n");
    return 1;
  }
  options.cache_budget_bytes = budget_mb.value() * 1024 * 1024;
  options.workers = static_cast<int>(workers.value());
  options.max_pending = static_cast<size_t>(max_pending.value());

  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }
  Status listening = server.value()->Listen(*socket);
  if (!listening.ok()) {
    std::fprintf(stderr, "error: %s\n", listening.ToString().c_str());
    return 1;
  }
  std::printf("tgsim serve: protocol v%d on %s (budget %lld MiB, "
              "%d workers)\n",
              serve::kServeProtocolVersion, socket->c_str(),
              static_cast<long long>(budget_mb.value()),
              server.value()->options().workers);
  for (const serve::ModelStats& stats : server.value()->cache().Snapshot())
    std::printf("  model %-16s method=%s bytes=%lld\n", stats.name.c_str(),
                stats.method.c_str(), static_cast<long long>(stats.bytes));
  std::printf("ready; send {\"op\":\"shutdown\"} (or `tgsim serve --socket "
              "%s --call shutdown`) to stop\n",
              socket->c_str());
  std::fflush(stdout);

  server.value()->Wait();

  // Final counter dump: the drain rejects stats requests, so read the
  // cache directly rather than going through Handle().
  std::printf("draining: %lld requests, %lld protocol errors\n",
              static_cast<long long>(server.value()->total_requests()),
              static_cast<long long>(server.value()->protocol_errors()));
  for (const serve::ModelStats& stats : server.value()->cache().Snapshot())
    std::printf("  model %-16s requests=%lld generates=%lld loads=%lld "
                "evictions=%lld\n",
                stats.name.c_str(),
                static_cast<long long>(stats.requests),
                static_cast<long long>(stats.generates),
                static_cast<long long>(stats.loads),
                static_cast<long long>(stats.evictions));
  server.value()->Stop();
  std::printf("stopped\n");
  return 0;
}

int RunConvert(const ParsedArgs& args) {
  const std::string* input = FindFlag(args, "--input");
  const std::string* output = FindFlag(args, "--output");
  const std::string* to = FindFlag(args, "--to");
  if (input == nullptr || output == nullptr || to == nullptr ||
      (*to != "text" && *to != "binary")) {
    std::fprintf(stderr, "%s", kConvertUsage);
    return 2;
  }
  Result<graphs::TemporalGraph> graph = datasets::LoadEdgeList(*input);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  Status saved = *to == "binary"
                     ? datasets::SaveEdgeListBinary(graph.value(), *output)
                     : datasets::SaveEdgeList(graph.value(), *output);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s edge list %s (%d nodes, %d timestamps, %lld "
              "edges)\n",
              to->c_str(), output->c_str(), graph.value().num_nodes(),
              graph.value().num_timestamps(),
              static_cast<long long>(graph.value().edges().size()));
  return 0;
}

}  // namespace

int Run(const std::vector<std::string>& args) {
  if (args.empty() || args[0] == "--help" || args[0] == "help") {
    std::printf("%s", kUsage);
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  Result<ParsedArgs> parsed =
      ParseArgs({args.begin() + 1, args.end()});
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  if (HasSwitch(parsed.value(), "--help")) {
    if (command == "methods") std::printf("%s", kMethodsUsage);
    else if (command == "fit") std::printf("%s", kFitUsage);
    else if (command == "generate") std::printf("%s", kGenerateUsage);
    else if (command == "update") std::printf("%s", kUpdateUsage);
    else if (command == "eval") std::printf("%s", kEvalUsage);
    else if (command == "stats") std::printf("%s", kStatsUsage);
    else if (command == "convert") std::printf("%s", kConvertUsage);
    else if (command == "serve") std::printf("%s", kServeUsage);
    else std::printf("%s", kUsage);
    return 0;
  }
  // Thread control without env plumbing: --threads resizes the global
  // pool before any parallel region runs, winning over TGSIM_NUM_THREADS
  // (SetGlobalThreads replaces whatever the env default would build).
  if (const std::string* threads_raw = FindFlag(parsed.value(), "--threads")) {
    Result<int64_t> threads = ParseIntFlag(parsed.value(), "--threads", 0);
    if (!threads.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   threads.status().ToString().c_str());
      return 2;
    }
    if (threads.value() < 1 || threads.value() > 1024) {
      std::fprintf(stderr, "error: --threads must be in [1, 1024] (got %s)\n",
                   threads_raw->c_str());
      return 2;
    }
    parallel::ThreadPool::SetGlobalThreads(
        static_cast<int>(threads.value()));
  }
  if (command == "methods") return RunMethods(parsed.value());
  if (command == "fit") return RunFit(parsed.value());
  if (command == "generate") return RunGenerate(parsed.value());
  if (command == "update") return RunUpdate(parsed.value());
  if (command == "eval") return RunEval(parsed.value());
  if (command == "stats") return RunStats(parsed.value());
  if (command == "convert") return RunConvert(parsed.value());
  if (command == "serve") return RunServe(parsed.value());
  std::fprintf(stderr, "error: unknown command '%s'\n\n%s", command.c_str(),
               kUsage);
  return 2;
}

}  // namespace tgsim::cli
