#ifndef TGSIM_BASELINES_STATE_IO_H_
#define TGSIM_BASELINES_STATE_IO_H_

#include <functional>
#include <string>

#include "baselines/generator.h"
#include "serialize/serialization.h"
#include "storage/score_store.h"

namespace tgsim::baselines {

/// Shared building blocks of the generators' SaveState/LoadState
/// implementations, so every method writes the observed shape and (where
/// the method's generation process walks observed structure) the support
/// graph in one format.

/// Ok when `fitted` is true, else the uniform "requires a prior Fit()"
/// InvalidArgument every SaveState implementation reports.
Status RequireFitted(bool fitted, const std::string& method);

/// Ok when an already-fitted generator can absorb `delta`: requires a
/// prior Fit()/LoadState(), a finalized delta, and a delta expressed in
/// the fitted universe — node and timestamp counts no larger than the
/// fitted shape's (growing either axis needs a full refit). Every
/// Update() implementation runs this first so the contract reads the
/// same across methods.
Status RequireUpdatable(bool fitted, const graphs::TemporalGraph& delta,
                        const ObservedShape& shape, const std::string& method);

/// Adds the delta's per-timestamp edge counts into `shape` (the edge
/// budget Generate reproduces). Requires delta within the shape's bounds.
void MergeDeltaShape(ObservedShape& shape,
                     const graphs::TemporalGraph& delta);

/// The support graph plus the delta's edges, finalized on the support's
/// node/timestamp universe. Deterministic: the merged edge array is the
/// support's followed by the delta's, so two updates with the same inputs
/// produce bit-identical adjacency indexes.
graphs::TemporalGraph MergeSupportGraph(const graphs::TemporalGraph& support,
                                        const graphs::TemporalGraph& delta);

/// Total tensor bytes of a parameter list — the NN methods'
/// ResidentStateBytes() charge their model weights with this.
int64_t ParamsResidentBytes(const std::vector<nn::Var>& params);

/// Recency-biased snapshot subset (after "Forward Recent Sampling",
/// PAPERS.md): draws min(k, candidates.size()) distinct timestamps from
/// `candidates` (ascending, in [0, num_timestamps)) with probability
/// proportional to exp((t - (T-1)) / tau), tau = max(1, T/4), so bounded
/// warm-start work concentrates on the most recent snapshots. Returns an
/// ascending list.
std::vector<int> SampleRecentSnapshots(const std::vector<int>& candidates,
                                       int k, int num_timestamps, Rng& rng);

/// Writes `shape` as the archive section "shape" (num_nodes,
/// num_timestamps, edges_per_timestamp).
void WriteShape(serialize::ArchiveWriter& writer, const ObservedShape& shape);

/// Reads the section written by WriteShape.
Status ReadShape(const serialize::ArchiveReader& reader,
                 ObservedShape& shape);

/// Writes a finalized temporal graph as the archive section `section`
/// (parallel u/v/t edge vectors plus the node/timestamp counts).
void WriteSupportGraph(serialize::ArchiveWriter& writer,
                       const std::string& section,
                       const graphs::TemporalGraph& graph);

/// Rebuilds the graph written by WriteSupportGraph. The result is
/// finalized and bit-identical to the original (same edge array, hence
/// the same adjacency indexes), so samplers built over it draw the same
/// sequences.
Result<graphs::TemporalGraph> ReadSupportGraph(
    const serialize::ArchiveReader& reader, const std::string& section);

/// One snapshot's fit result from a score-matrix method: the ascending
/// list of nodes active in the snapshot and their na x na score
/// submatrix. Degenerate snapshots (fewer than two active nodes) return a
/// default-constructed value; the logical full matrix is zero there.
struct SnapshotScores {
  std::vector<int> active;
  nn::Tensor scores;
};

/// A score model saves as one self-contained text archive while it is
/// small on BOTH axes (row_ptr alone is O(num_nodes) even at zero nnz);
/// past either limit the snapshots go into a binary BlockFile payload the
/// loader mmaps on demand. Deterministic function of the fitted state —
/// exposed for tests.
inline constexpr int64_t kInlineScoreNodeLimit = 4096;
inline constexpr int64_t kInlineScoreNnzLimit = 4096;

/// Complete fitted state of the per-snapshot score-matrix methods
/// (NetGAN, VGAE, Graphite, SBMGNN): the shape plus one sparse top-k row
/// set per timestamp (absent where the snapshot has no edges), stored
/// inline or as a trailing BlockFile by the size rule above. `score_topk`
/// records the truncation the rows were built with.
Status SaveScoreState(const ObservedShape& shape,
                      const storage::ScoreStore& store, int64_t score_topk,
                      std::ostream& out, const std::string& method);

/// Restores the state written by SaveScoreState. `path` names the file
/// `in` reads from; with a block-format archive and a non-empty path the
/// blocks stay on disk and are mmap'd per snapshot (the out-of-core
/// path), while an empty path falls back to buffering the payload in
/// memory. All structural problems are Status errors, never crashes.
Status LoadScoreState(ObservedShape& shape, storage::ScoreStore& store,
                      std::istream& in, const std::string& path);

/// Shared Fit() body of the score-matrix methods: trains `fit_snapshot`
/// on each timestamp's edges (skipping edge-free snapshots) and fills
/// `store` with each snapshot's top-`score_topk` sparse rows — the
/// fit-once step whose output Generate and SaveState consume.
void FitScoresPerSnapshot(
    const graphs::TemporalGraph& observed, const ObservedShape& shape,
    int64_t score_topk, storage::ScoreStore& store,
    const std::function<SnapshotScores(
        const std::vector<graphs::TemporalEdge>&)>& fit_snapshot);

/// Default bound on warm-started (previously fitted) snapshots per
/// Update() of the score-matrix methods; snapshots gaining their first
/// edges are always fitted on top of this.
inline constexpr int kUpdateWarmSnapshotLimit = 8;

/// Shared Update() body of the score-matrix methods: regenerates sparse
/// score rows only for the delta's touched snapshots. Snapshots gaining
/// their first edges are always fitted (Generate requires rows wherever
/// the edge budget is positive); previously-fitted touched snapshots are
/// bounded to `max_warm_snapshots` recency-biased picks, each blending
/// the old rows with rows fitted on the delta batch
/// (SparseScoreRows::WeightedMerge, weighted by edge counts). A
/// block-backed store is rematerialized resident first — re-saving the
/// artifact re-applies the inline/blocks size rule. Empty deltas are a
/// no-op; errors leave shape and store untouched.
Status UpdateScoresForDelta(
    const graphs::TemporalGraph& delta, ObservedShape& shape,
    storage::ScoreStore& store, int64_t score_topk, int max_warm_snapshots,
    Rng& rng, const std::string& method,
    const std::function<SnapshotScores(
        const std::vector<graphs::TemporalEdge>&)>& fit_snapshot);

/// Shared Generate() body of the score-matrix methods: samples each
/// timestamp's observed edge count from its fitted sparse score rows,
/// leasing one snapshot at a time (so block-backed stores page in one
/// mapping at a time — peak memory O(n + max snapshot nnz)).
graphs::TemporalGraph GenerateFromScores(const ObservedShape& shape,
                                         const storage::ScoreStore& store,
                                         Rng& rng);

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_STATE_IO_H_
