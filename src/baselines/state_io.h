#ifndef TGSIM_BASELINES_STATE_IO_H_
#define TGSIM_BASELINES_STATE_IO_H_

#include <string>
#include <vector>

#include "baselines/generator.h"
#include "serialize/serialization.h"
#include "storage/score_store.h"

namespace tgsim::baselines {

/// Shared building blocks of the generators' SaveState/LoadState
/// implementations, so every method writes the observed shape and (where
/// the method's generation process walks observed structure) the support
/// graph in one format, plus the fitted-state classes of the shape-only
/// and score-matrix families (ShapeOnlyGenerator, ScoreMatrixGenerator).

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

/// Checks that parameters 0 and 1 of the section "params", a model's node
/// and time embedding tables, are num_nodes x dim and num_timestamps x dim.
/// TGAE and TagGen call it after ReadShape and before building a model
/// sized by that shape, so an edited shape fails before those tables are
/// allocated.
Status CheckEmbeddingTables(const serialize::ArchiveReader& reader,
                            const ObservedShape& shape, int dim);

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

/// Fitted state of the model-based baselines: the observed shape alone,
/// so absorbing a delta is merging its per-timestamp edge counts.
/// Subclasses define only how a snapshot is drawn from that budget.
class ShapeOnlyGenerator : public TemporalGraphGenerator {
 public:
  bool is_learning_based() const override { return false; }
  void Fit(const graphs::TemporalGraph& observed, Rng& rng) override;
  Status Update(const graphs::TemporalGraph& delta, Rng& rng) override;
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;
  int64_t ResidentStateBytes() const override;

 protected:
  const ObservedShape& shape() const { return shape_; }

 private:
  ObservedShape shape_;
};

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
/// `in` reads from: a block-format state keeps its blocks on disk and
/// mmaps them per snapshot (the out-of-core path), so without a file
/// (an empty path) it is InvalidArgument. All structural problems are
/// Status errors, never crashes.
Status LoadScoreState(ObservedShape& shape, storage::ScoreStore& store,
                      std::istream& in, const std::string& path);

/// Bound on warm-started (previously fitted) snapshots per Update() of the
/// score-matrix methods; snapshots gaining their first edges are always
/// fitted on top of this.
inline constexpr int kUpdateWarmSnapshotLimit = 8;

/// Samples each timestamp's observed edge count from its fitted sparse
/// score rows, leasing one snapshot at a time (so block-backed stores page
/// in one mapping at a time — peak memory O(n + max snapshot nnz)).
graphs::TemporalGraph GenerateFromScores(const ObservedShape& shape,
                                         const storage::ScoreStore& store,
                                         Rng& rng);

/// Fitted state of the per-snapshot score-matrix methods (NetGAN, VGAE,
/// Graphite, SBMGNN): the shape plus one sparse score row set per
/// snapshot with edges. Fit trains the method's model on each snapshot
/// through FitSnapshotScores and keeps only the top-`score_topk` rows of
/// its scores, so Generate is a sampling pass (GenerateFromScores) and the
/// whole state ships through SaveScoreState/LoadScoreState. Subclasses
/// define only FitSnapshotScores.
class ScoreMatrixGenerator : public TemporalGraphGenerator {
 public:
  void Fit(const graphs::TemporalGraph& observed, Rng& rng) override;
  graphs::TemporalGraph Generate(Rng& rng) const override;

  /// Regenerates score rows only for the delta's touched snapshots.
  /// Snapshots gaining their first edges are always fitted (Generate
  /// requires rows wherever the edge budget is positive);
  /// previously-fitted touched snapshots are bounded to
  /// kUpdateWarmSnapshotLimit recency-biased picks, each blending the old
  /// rows with rows fitted on the delta batch
  /// (SparseScoreRows::WeightedMerge, weighted by edge counts). A
  /// block-backed store is rematerialized resident first — re-saving the
  /// artifact re-applies the inline/blocks size rule. Empty deltas are a
  /// no-op; errors leave the fitted state untouched.
  Status Update(const graphs::TemporalGraph& delta, Rng& rng) override;
  Status SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;
  Status LoadState(std::istream& in, const std::string& path) override;
  int64_t ResidentStateBytes() const override;

 protected:
  /// `score_topk`: stored score entries per row (0 = every positive
  /// entry). See ScoreStore.
  explicit ScoreMatrixGenerator(int64_t score_topk)
      : score_topk_(score_topk) {}

  int num_nodes() const { return shape_.num_nodes; }

 private:
  /// Trains the method's model on one snapshot's edges and returns the
  /// active-node score submatrix.
  virtual SnapshotScores FitSnapshotScores(
      const std::vector<graphs::TemporalEdge>& edges, Rng& rng) const = 0;

  /// The stored rows of FitSnapshotScores on `graph`'s edges at `t`.
  storage::SparseScoreRows FitSnapshotRows(const graphs::TemporalGraph& graph,
                                           int t, Rng& rng) const;

  int64_t score_topk_;
  ObservedShape shape_;
  /// Fitted sparse score rows per timestamp (absent where the snapshot
  /// has no edges). This is the complete generative state.
  storage::ScoreStore store_;
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_STATE_IO_H_
