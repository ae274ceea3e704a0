#include "eval/registry.h"

#include <deque>
#include <utility>

#include "baselines/dymond.h"
#include "baselines/er_ba.h"
#include "baselines/netgan.h"
#include "baselines/sbmgnn.h"
#include "baselines/taggen.h"
#include "baselines/tggan.h"
#include "baselines/tigger.h"
#include "baselines/vgae.h"
#include "common/check.h"
#include "core/tgae.h"

namespace tgsim::eval {

namespace {

using baselines::TemporalGraphGenerator;
using GeneratorPtr = std::unique_ptr<TemporalGraphGenerator>;

/// Factory for a {Config, Generator} pair: paper-default config, apply the
/// resolved params, construct.
template <typename Generator, typename Config>
GeneratorFactory ConfiguredFactory() {
  return [](const config::ParamMap& params) -> Result<GeneratorPtr> {
    Config cfg;
    Status s = cfg.ApplyParams(params);
    if (!s.ok()) return s;
    return GeneratorPtr(std::make_unique<Generator>(cfg));
  };
}

/// Factory for a parameterless method: any key is an error.
template <typename Generator>
GeneratorFactory PlainFactory(const std::string& name) {
  return [name](const config::ParamMap& params) -> Result<GeneratorPtr> {
    if (!params.empty())
      return Status::InvalidArgument("method '" + name +
                                     "' takes no parameters (got '" +
                                     params.Keys().front() + "')");
    return GeneratorPtr(std::make_unique<Generator>());
  };
}

config::ParamMap Tokens(const std::vector<std::string>& tokens) {
  Result<config::ParamMap> map = config::ParamMap::FromTokens(tokens);
  TGSIM_CHECK(map.ok());  // Preset definitions are compile-time literals.
  return std::move(map).value();
}

MethodSpec TgaeSpec(const std::string& name, core::TgaeVariant variant,
                    std::string summary, bool in_main_table) {
  MethodSpec spec;
  spec.name = name;
  spec.summary = std::move(summary);
  spec.in_main_table = in_main_table;
  spec.in_ablation_table = true;
  spec.supports_update = true;
  spec.schema = core::TgaeConfig::Schema();
  // The fast profile also flips on the sampled-softmax training loss;
  // preset=paper keeps the dense n-wide loss (the paper's formulation).
  // Generation scores only each row's support columns on both presets.
  spec.fast_preset =
      Tokens({"epochs=5", "batch_centers=16", "sparse_decoder=true"});
  spec.factory = [variant](const config::ParamMap& params)
      -> Result<GeneratorPtr> {
    core::TgaeConfig cfg = core::TgaeConfig::ForVariant(variant);
    Status s = cfg.ApplyParams(params);
    if (!s.ok()) return s;
    return GeneratorPtr(std::make_unique<core::TgaeGenerator>(cfg));
  };
  return spec;
}

template <typename Generator, typename Config>
MethodSpec ConfiguredSpec(const std::string& name, std::string summary,
                          const std::vector<std::string>& fast_tokens) {
  MethodSpec spec;
  spec.name = name;
  spec.summary = std::move(summary);
  spec.in_main_table = true;
  spec.supports_update = true;
  spec.schema = Config::Schema();
  spec.fast_preset = Tokens(fast_tokens);
  spec.factory = ConfiguredFactory<Generator, Config>();
  return spec;
}

template <typename Generator>
MethodSpec PlainSpec(const std::string& name, std::string summary) {
  MethodSpec spec;
  spec.name = name;
  spec.summary = std::move(summary);
  spec.in_main_table = true;
  spec.supports_update = true;
  spec.factory = PlainFactory<Generator>(name);
  return spec;
}

/// The registration table. Built-ins register in the constructor, in the
/// paper's column order; user registrations append. Function-local static
/// gives thread-safe lazy construction.
class Registry {
 public:
  static Registry& Instance() {
    static Registry* instance = new Registry();
    return *instance;
  }

  Status Register(MethodSpec spec) {
    if (spec.name.empty())
      return Status::InvalidArgument("method name must be non-empty");
    if (spec.factory == nullptr)
      return Status::InvalidArgument("method '" + spec.name +
                                     "' needs a factory");
    if (Find(spec.name) != nullptr)
      return Status::InvalidArgument("method '" + spec.name +
                                     "' is already registered");
    specs_.push_back(std::move(spec));
    return Status::Ok();
  }

  const MethodSpec* Find(const std::string& name) const {
    for (const MethodSpec& spec : specs_)
      if (spec.name == name) return &spec;
    return nullptr;
  }

  const std::deque<MethodSpec>& specs() const { return specs_; }

 private:
  Registry() {
    // Paper Tables IV-VI column order.
    Reg(TgaeSpec("TGAE", core::TgaeVariant::kFull,
                 "temporal graph autoencoder (the paper's method)",
                 /*in_main_table=*/true));
    Reg(ConfiguredSpec<baselines::TiggerGenerator, baselines::TiggerConfig>(
        "TIGGER", "autoregressive temporal-walk model (AAAI'22)",
        {"epochs=3", "walks_per_epoch=40"}));
    Reg(PlainSpec<baselines::DymondGenerator>(
        "DYMOND", "dynamic motif-based generative model (WWW'21)"));
    Reg(ConfiguredSpec<baselines::TgganGenerator, baselines::TgganConfig>(
        "TGGAN", "adversarial temporal-walk generation (WWW'21)",
        {"iterations=8", "batch_walks=12"}));
    Reg(ConfiguredSpec<baselines::TagGenGenerator, baselines::TagGenConfig>(
        "TagGen", "learned temporal-walk reassembly (KDD'20)",
        {"epochs=4", "walks_per_epoch=60"}));
    Reg(ConfiguredSpec<baselines::NetGanGenerator, baselines::NetGanConfig>(
        "NetGAN", "low-rank walk-logit factorization per snapshot (ICML'18)",
        {"epochs=15", "score_topk=64"}));
    Reg(PlainSpec<baselines::ErdosRenyiGenerator>(
        "E-R", "Erdos-Renyi snapshots with observed edge counts"));
    Reg(PlainSpec<baselines::BarabasiAlbertGenerator>(
        "B-A", "preferential attachment with observed edge budget"));
    Reg(ConfiguredSpec<baselines::VgaeGenerator, baselines::VgaeConfig>(
        "VGAE", "variational graph autoencoder per snapshot (NeurIPS'16)",
        {"epochs=10", "score_topk=64"}));
    Reg(ConfiguredSpec<baselines::GraphiteGenerator, baselines::VgaeConfig>(
        "Graphite", "VGAE with iteratively refined decoder (ICML'19)",
        {"epochs=10", "score_topk=64"}));
    Reg(ConfiguredSpec<baselines::SbmGnnGenerator, baselines::SbmGnnConfig>(
        "SBMGNN", "GNN-parameterized stochastic blockmodel (ICML'19)",
        {"epochs=10", "score_topk=64"}));
    // Table VII ablation variants (TGAE itself is registered above).
    Reg(TgaeSpec("TGAE-g", core::TgaeVariant::kRandomWalk,
                 "TGAE ablation: ego-graphs degraded to random-walk chains",
                 /*in_main_table=*/false));
    Reg(TgaeSpec("TGAE-t", core::TgaeVariant::kNoTruncation,
                 "TGAE ablation: neighbor truncation disabled",
                 /*in_main_table=*/false));
    Reg(TgaeSpec("TGAE-n", core::TgaeVariant::kUniformSampling,
                 "TGAE ablation: uniform initial node sampling",
                 /*in_main_table=*/false));
    Reg(TgaeSpec("TGAE-p", core::TgaeVariant::kNonProbabilistic,
                 "TGAE ablation: non-probabilistic decoder",
                 /*in_main_table=*/false));
  }

  void Reg(MethodSpec spec) { TGSIM_CHECK(Register(std::move(spec)).ok()); }

  // Deque, not vector: FindMethod hands out MethodSpec pointers, which
  // must survive later RegisterGenerator appends.
  std::deque<MethodSpec> specs_;
};

}  // namespace

Status RegisterGenerator(MethodSpec spec) {
  return Registry::Instance().Register(std::move(spec));
}

const MethodSpec* FindMethod(const std::string& name) {
  return Registry::Instance().Find(name);
}

std::vector<std::string> RegisteredMethodNames() {
  std::vector<std::string> names;
  for (const MethodSpec& spec : Registry::Instance().specs())
    names.push_back(spec.name);
  return names;
}

std::vector<std::string> AllMethodNames() {
  std::vector<std::string> names;
  for (const MethodSpec& spec : Registry::Instance().specs())
    if (spec.in_main_table) names.push_back(spec.name);
  return names;
}

std::vector<std::string> AblationMethodNames() {
  std::vector<std::string> names;
  for (const MethodSpec& spec : Registry::Instance().specs())
    if (spec.in_ablation_table) names.push_back(spec.name);
  return names;
}

Result<std::unique_ptr<baselines::TemporalGraphGenerator>> MakeGenerator(
    const std::string& name, const config::ParamMap& params) {
  const MethodSpec* spec = FindMethod(name);
  if (spec == nullptr) {
    std::string message = "unknown method '" + name + "'";
    std::string suggestion =
        config::NearestName(name, RegisteredMethodNames());
    if (!suggestion.empty())
      message += "; did you mean '" + suggestion + "'?";
    message += " (run `tgsim methods` for the registered list)";
    return Status::NotFound(message);
  }

  std::string preset = "paper";
  if (params.Has("preset")) preset = params.GetString("preset").value();

  config::ParamMap effective;
  if (preset == "fast") {
    effective = spec->fast_preset;
  } else if (preset != "paper") {
    return Status::InvalidArgument("unknown preset '" + preset + "' for '" +
                                   name + "': expected 'fast' or 'paper'");
  }
  // Explicit parameters win over the preset profile.
  for (const std::string& key : params.Keys()) {
    if (key == "preset") continue;
    effective.Override(key, *params.FindRaw(key));
  }
  return spec->factory(effective);
}

}  // namespace tgsim::eval
