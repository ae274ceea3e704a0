#ifndef TGSIM_BASELINES_GENERATOR_H_
#define TGSIM_BASELINES_GENERATOR_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/temporal_graph.h"

namespace tgsim::baselines {

/// Common contract of every temporal graph generator in this repository
/// (the paper's ten baselines plus TGAE itself).
///
/// Usage: Fit() once on the observed graph, then Generate() any number of
/// synthetic graphs with the observed shape (same node count, timestamp
/// count and edge budget). Fit() must leave the generator self-contained:
/// Generate() may not read the observed graph passed to Fit (generators
/// copy whatever support structures they need), so a generator restored
/// with LoadState serves without the training data.
///
/// Generate() is const and reads only the fitted state, which changes
/// only in Fit(), Update() and LoadState(). Concurrent Generate() calls on
/// one instance are therefore safe, and each result depends only on its
/// Rng; the serve daemon relies on this to answer concurrent requests for
/// one model without a lock.
class TemporalGraphGenerator {
 public:
  virtual ~TemporalGraphGenerator() = default;

  /// Display name as used in the paper's tables (e.g. "TagGen").
  virtual std::string name() const = 0;

  /// Learns (or records) the observed graph's generative statistics.
  virtual void Fit(const graphs::TemporalGraph& observed, Rng& rng) = 0;

  /// Simulates a new temporal graph. Requires a prior Fit() or LoadState().
  /// Safe to call concurrently (see the class comment).
  virtual graphs::TemporalGraph Generate(Rng& rng) const = 0;

  /// Incrementally absorbs a batch of new observations into an already
  /// fitted generator — the fit-once/serve-forever path. `delta` carries
  /// only the new edges, expressed in the fitted universe: its node and
  /// timestamp counts must not exceed the fitted shape's (growing either
  /// axis requires a full refit). Statistical methods merge the delta into
  /// their support structures and rebuild the fitted samplers
  /// deterministically; learning-based methods take a bounded number of
  /// warm-start steps on recency-biased snapshots. An empty delta is a
  /// no-op.
  virtual Status Update(const graphs::TemporalGraph& delta, Rng& rng) = 0;

  /// Serializes the fitted state (graph shape, fitted distributions,
  /// trained weights) as one serialize::ArchiveWriter archive, leaving the
  /// stream positioned after it. Requires a prior Fit().
  virtual Status SaveState(std::ostream& out) const = 0;

  /// Restores the state written by SaveState into a generator constructed
  /// with the same configuration. Reconstructs everything Generate()
  /// needs without access to the training graph: a loaded generator's
  /// Generate(seed) is bit-identical to the fitted original's.
  virtual Status LoadState(std::istream& in) = 0;

  /// LoadState of a state stored in the file `path`, which `in` reads.
  /// Only the score-matrix methods use the path: a large score state ends
  /// in a BlockFile whose blocks they mmap from `path` on demand, and
  /// without a file that state is InvalidArgument. Every other method
  /// restores from the stream alone.
  virtual Status LoadState(std::istream& in, const std::string& /*path*/) {
    return LoadState(in);
  }

  /// Bytes of fitted state held resident in memory. The serve ModelCache
  /// charges its byte budget with this, so an mmap-backed score model is
  /// billed for its bookkeeping, not its on-disk blocks.
  virtual int64_t ResidentStateBytes() const = 0;

  /// Whether the method trains a neural model (the paper separates simple
  /// model-based from learning-based approaches; E-R/B-A report no GPU
  /// memory in Fig. 6).
  virtual bool is_learning_based() const { return true; }

  /// Analytic device-memory model of the *original* implementation at
  /// paper scale, in bytes (see DESIGN.md §2, OOM emulation). The eval
  /// harness compares this against the paper's 32 GB GPU budget to decide
  /// which table cells read OOM. Defaults to a negligible footprint.
  virtual int64_t EstimatePaperMemoryBytes(int64_t num_nodes,
                                           int64_t num_edges,
                                           int64_t num_timestamps) const {
    return (num_nodes + num_edges + num_timestamps) * 8;
  }
};

/// Shape of the observed graph that every generator must reproduce.
struct ObservedShape {
  int num_nodes = 0;
  int num_timestamps = 0;
  std::vector<int64_t> edges_per_timestamp;

  void CaptureFrom(const graphs::TemporalGraph& g) {
    num_nodes = g.num_nodes();
    num_timestamps = g.num_timestamps();
    edges_per_timestamp = g.EdgesPerTimestamp();
  }
  int64_t total_edges() const {
    int64_t s = 0;
    for (int64_t c : edges_per_timestamp) s += c;
    return s;
  }
};

}  // namespace tgsim::baselines

#endif  // TGSIM_BASELINES_GENERATOR_H_
