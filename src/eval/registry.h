#ifndef TGSIM_EVAL_REGISTRY_H_
#define TGSIM_EVAL_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/generator.h"
#include "common/status.h"
#include "config/param_map.h"

namespace tgsim::eval {

/// Builds a generator from a fully resolved parameter map (presets already
/// expanded). Returns InvalidArgument on unknown keys or unparsable values.
using GeneratorFactory = std::function<
    Result<std::unique_ptr<baselines::TemporalGraphGenerator>>(
        const config::ParamMap& params)>;

/// One row of the generator registration table: the registry owns all
/// method construction (ROADMAP layering rule), so everything a driver
/// needs — factory, parameter schema, preset definitions, table membership —
/// lives here.
struct MethodSpec {
  /// Table name, e.g. "TagGen" (the registry key; case-sensitive).
  std::string name;
  /// One-line description shown by `tgsim methods`.
  std::string summary;
  /// Member of the paper's Tables IV-VI method columns.
  bool in_main_table = false;
  /// Member of the Table VII ablation columns.
  bool in_ablation_table = false;
  /// Tunable parameters (paper defaults) of the method's config struct.
  config::ParamSchema schema;
  /// Parameter overrides the `preset=fast` profile applies on top of the
  /// paper defaults (`preset=paper` is always the empty overlay).
  config::ParamMap fast_preset;
  GeneratorFactory factory;
};

/// Adds a method to the registry. Fails on an empty/duplicate name or a
/// null factory. The built-in methods register themselves on first registry
/// use; additional registrations must happen before MakeGenerator is called
/// concurrently (the table takes no locks — ROADMAP threading rules).
Status RegisterGenerator(MethodSpec spec);

/// Registered spec by name, or nullptr. The pointer stays valid across
/// later RegisterGenerator calls (the table has stable references).
const MethodSpec* FindMethod(const std::string& name);

/// Every registered method name, in registration order.
std::vector<std::string> RegisteredMethodNames();

/// Main-table method names in the paper's column order:
/// TGAE, TIGGER, DYMOND, TGGAN, TagGen, NetGAN, E-R, B-A, VGAE, Graphite,
/// SBMGNN. Derived from the registration table.
std::vector<std::string> AllMethodNames();

/// Ablation variant names of Table VII (TGAE, TGAE-g, TGAE-t, TGAE-n,
/// TGAE-p). Derived from the registration table.
std::vector<std::string> AblationMethodNames();

/// Instantiates a generator by its table name through the registration
/// table. `params` may carry a `preset` key ("paper" = defaults, "fast" =
/// the method's smoke-test profile) plus per-method overrides, which win
/// over the preset. Unknown names return NotFound with a nearest-name
/// suggestion; unknown/ill-typed parameters return InvalidArgument.
Result<std::unique_ptr<baselines::TemporalGraphGenerator>> MakeGenerator(
    const std::string& name, const config::ParamMap& params = {});

}  // namespace tgsim::eval

#endif  // TGSIM_EVAL_REGISTRY_H_
