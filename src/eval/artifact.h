#ifndef TGSIM_EVAL_ARTIFACT_H_
#define TGSIM_EVAL_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/generator.h"
#include "common/rng.h"
#include "common/status.h"
#include "config/param_map.h"
#include "graph/temporal_graph.h"

namespace tgsim::eval {

/// Registry-backed model artifacts: a fitted generator saved as one
/// self-describing file. The artifact embeds the registry method name and
/// the parameter overlay the generator was constructed with, followed by
/// the generator's own fitted state (SaveState), so LoadArtifact rebuilds
/// a serving-ready generator with nothing but the file — fit once, ship
/// the artifact, generate many times (no training data needed).
///
/// File layout: two serialize:: archives back to back. The first holds the
/// descriptor (section "artifact": format version, method, params); the
/// second is whatever the method's SaveState writes.

/// Bump when the descriptor layout changes incompatibly. Method-state
/// compatibility is governed by serialize::kArchiveFormatVersion plus each
/// generator's own section contract. Version history:
///   1 — method + parameter overlay.
///   2 — adds the update lineage (base fit seed, update count/epochs);
///       version-1 readers reject version-2 artifacts by the exact-match
///       gate below, and vice versa.
inline constexpr int kArtifactVersion = 2;

/// Update provenance carried by every artifact: which seed produced the
/// base fit, and how many Update(delta) batches have been absorbed since.
/// A freshly fitted artifact has update_count == 0. `update_epochs` totals
/// the warm-start epoch budget granted across those updates
/// (kUpdateWarmSnapshotLimit per batch, counted by UpdateArtifact; the
/// statistical family's updates are closed-form merges that ignore the
/// budget).
struct UpdateLineage {
  uint64_t base_fit_seed = 0;
  int64_t update_count = 0;
  int64_t update_epochs = 0;
};

/// A loaded artifact: the descriptor plus the reconstructed generator.
struct LoadedArtifact {
  std::string method;       // Registry name, e.g. "TGAE".
  config::ParamMap params;  // Construction overlay (may carry `preset`).
  UpdateLineage lineage;    // Fit/update provenance (descriptor v2).
  std::unique_ptr<baselines::TemporalGraphGenerator> generator;
};

/// Saves `gen` (which must have been fitted) to `path`. `method` must be
/// the registered name the generator was built from and `params` the
/// parameter overlay passed to MakeGenerator — LoadArtifact replays both
/// to reconstruct an identically configured generator. Unknown method
/// names return NotFound with a nearest-name suggestion; an unfitted
/// generator surfaces the method's own InvalidArgument. `lineage` records
/// the update provenance; `tgsim fit` passes the fit seed with zero
/// updates, `tgsim update` rewrites it with the incremented counters.
Status SaveArtifact(const baselines::TemporalGraphGenerator& gen,
                    const std::string& method,
                    const config::ParamMap& params, const std::string& path,
                    const UpdateLineage& lineage = {});

/// Loads an artifact written by SaveArtifact: reads the descriptor,
/// constructs the generator through the registry (NotFound with a
/// suggestion for unknown methods — never a CHECK) and restores its state.
/// The loaded generator's Generate(seed) is bit-identical to the fitted
/// original's.
Result<LoadedArtifact> LoadArtifact(const std::string& path);

/// The one update rule of `tgsim update` and the serve daemon: absorbs
/// `delta` into the loaded generator through Update on the fit stream of
/// MakeSeedStreams(seed), so both land on the same model for the same
/// artifact, delta and seed. On success the lineage counts one more update
/// and kUpdateWarmSnapshotLimit more warm-start epochs; on error it is left
/// unchanged. Saving the updated artifact stays with the caller.
Status UpdateArtifact(LoadedArtifact& artifact,
                      const graphs::TemporalGraph& delta, uint64_t seed);

/// Independent deterministic streams for the fit and generate halves of a
/// run, derived as Rng(seed).Split(2). `tgsim fit` consumes only the fit
/// stream; `tgsim generate --model` and the serve daemon consume only the
/// generate stream — which is what makes fit-once + generate-from-artifact
/// byte-reproduce a single in-process fit+generate run with the same seed,
/// whether the generate half runs in the CLI or behind `tgsim serve`.
struct SeedStreams {
  Rng fit;
  Rng generate;
};

SeedStreams MakeSeedStreams(uint64_t seed);

}  // namespace tgsim::eval

#endif  // TGSIM_EVAL_ARTIFACT_H_
