#ifndef TGSIM_SERVE_MODEL_CACHE_H_
#define TGSIM_SERVE_MODEL_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/generator.h"
#include "parallel/sync.h"

namespace tgsim::serve {

/// One served model as configured at startup: a serving name bound to a
/// `tgsim fit` artifact on disk.
struct ModelSpec {
  std::string name;  // Request-facing name (cache key), e.g. "dblp-tgae".
  std::string path;  // Artifact file SaveArtifact wrote.
};

/// A resident model. Callers hold the shared_ptr for the duration of a
/// request, so eviction (which only drops the cache's reference) never
/// destroys a model mid-generate. The generator never changes once
/// installed: Generate is const, and an update builds a new instance and
/// Swap()s it in. Requests for the same model therefore run concurrently,
/// with no lock.
struct CachedModel {
  std::unique_ptr<const baselines::TemporalGraphGenerator> generator;
  std::string method;  // Registry name from the artifact descriptor.
  int64_t bytes = 0;   // Footprint charged against the budget.
};

/// Serving-side counters of one configured model (returned by Snapshot;
/// all cumulative since server start).
struct ModelStats {
  std::string name;
  std::string method;       // Empty until first loaded.
  bool resident = false;
  int64_t bytes = 0;        // Last known footprint (0 until first loaded).
  int64_t requests = 0;     // Generate acquisitions (the traffic signal).
  int64_t loads = 0;        // Artifact loads from disk (preload + reload).
  int64_t evictions = 0;    // Times this model was evicted.
  int64_t generates = 0;    // Completed generate requests.
  double busy_seconds = 0;  // Total generate latency.
};

/// Thread-safe artifact cache with byte-budget admission and least-traffic
/// eviction (the samgraph CachePolicy idiom applied to whole models: keep
/// the hottest models resident, reload colder ones from disk on demand).
///
/// A model's footprint is charged as the generator's
/// ResidentStateBytes() — block-backed artifacts keep their score blocks
/// mmap-backed on disk, so their charge is far below the file size.
/// Admission: a model whose footprint alone exceeds the budget is rejected
/// with ResourceExhausted.
/// Eviction: when an admit would overflow the budget, resident models are
/// evicted in ascending (requests, last-use sequence) order — strictly
/// least traffic first, ties broken least-recently-used — until the new
/// model fits. All of that is deterministic, and pinned by
/// tests/serve_test.cc.
class ModelCache {
 public:
  /// `byte_budget` > 0. Duplicate model names are rejected by Preload.
  ModelCache(std::vector<ModelSpec> models, int64_t byte_budget);

  /// Validates the configuration and loads every configured model (in
  /// configuration order, evicting under the budget as it goes). Any
  /// missing/corrupt artifact or over-budget admission fails the preload.
  Status Preload();

  /// Resident model by name, loading it from disk if it was evicted (a
  /// reload counts toward `loads` and re-runs admission). Counts one
  /// request of traffic. Unknown names: NotFound with a nearest-name
  /// suggestion over the configured names.
  Result<std::shared_ptr<CachedModel>> Acquire(const std::string& name);

  /// Adds one completed generate and its latency to `name`'s counters.
  void RecordGenerate(const std::string& name, double seconds);

  /// Configured artifact path of `name` (NotFound with a suggestion for
  /// unknown names). The serve update op rebuilds the model from this path
  /// outside the cache lock, then installs the result with Swap().
  Result<std::string> ArtifactPath(const std::string& name) const;

  /// Atomically replaces `name`'s resident instance with `generator`
  /// (admitting its footprint under the budget, evicting other models as
  /// needed). In-flight requests holding the old shared_ptr finish on the
  /// old state — the swap never destroys a model mid-generate. Counts one
  /// load; the replaced instance does not count as an eviction.
  Status Swap(const std::string& name,
              std::unique_ptr<baselines::TemporalGraphGenerator> generator,
              const std::string& method);

  /// Counter snapshot in configuration order.
  std::vector<ModelStats> Snapshot() const;

  /// Sum of resident footprints (never exceeds the budget).
  int64_t resident_bytes() const;

  int64_t byte_budget() const { return byte_budget_; }

 private:
  struct Slot {
    ModelSpec spec;
    std::shared_ptr<CachedModel> resident;  // Null when evicted.
    ModelStats stats;
    int64_t last_use_seq = 0;
  };

  /// Loads `slot`'s artifact and admits it under the budget (evicting
  /// others as needed). Requires mu_ held; the disk read happens under the
  /// lock — simple over clever: admission order stays deterministic.
  Status LoadSlotLocked(Slot& slot);
  Slot* FindSlotLocked(const std::string& name);

  /// Evicts strictly-least-traffic residents until `charge` more bytes fit
  /// the budget. Requires mu_ held and charge <= byte_budget_.
  void EvictUntilFitsLocked(int64_t charge);

  /// Installs `model` as `slot`'s resident instance (replacing any current
  /// one without an eviction charge) and updates the counters. Requires
  /// mu_ held and model->bytes admitted.
  void InstallLocked(Slot& slot, std::shared_ptr<CachedModel> model);

  const int64_t byte_budget_;
  mutable parallel::Mutex mu_;
  std::vector<Slot> slots_;
  int64_t use_counter_ = 0;
  int64_t resident_bytes_ = 0;
};

}  // namespace tgsim::serve

#endif  // TGSIM_SERVE_MODEL_CACHE_H_
