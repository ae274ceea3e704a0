#ifndef TGSIM_STORAGE_SCORE_STORE_H_
#define TGSIM_STORAGE_SCORE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/block_file.h"
#include "storage/sparse_rows.h"

namespace tgsim::storage {

/// Name of snapshot t's block inside a score BlockFile ("t0", "t1", ...).
std::string ScoreBlockName(int t);

/// Per-timestamp collection of sparse score rows behind the four
/// score-matrix generators. Two modes, one API:
///
///   - resident: every snapshot lives in memory as SparseScoreRows (the
///     post-Fit state, and small loaded artifacts);
///   - block-backed: snapshots stay inside a BlockFile and are mmap'd on
///     demand, one at a time, so generation peaks at O(nnz of one
///     snapshot) instead of O(sum) — the out-of-core path.
///
/// Snapshots with no edges have no entry (`has(t)` false); generation
/// treats them as zero mass. `Snapshot(t)` hands out a Lease whose view
/// is valid while the Lease lives — in block mode the Lease pins the
/// mapping, so hold it for the duration of one snapshot's sampling and
/// let it drop before the next.
class ScoreStore {
 public:
  ScoreStore() = default;

  /// Wraps an already-parsed BlockFile holding blocks named by
  /// ScoreBlockName. Structural validation of each present block happens
  /// in CheckSnapshot (callers run it per snapshot right after this).
  static ScoreStore FromBlockFile(BlockFileReader reader, int num_timestamps);

  int num_timestamps() const { return num_timestamps_; }
  bool block_backed() const { return block_backed_; }
  bool has(int t) const;

  /// Validates snapshot t without handing out a lease: decodes (block
  /// mode) or inspects (resident mode) and requires an n x n shape.
  /// Absent snapshots pass. This is the Status-typed half of loading;
  /// after it succeeds, Snapshot() treats failure as a programming error.
  Status CheckSnapshot(int t, int expected_nodes) const;

  struct Lease {
    SparseScoreRowsView view;
    MappedBlock block;  // pins the mapping in block mode; empty otherwise
  };

  /// Leases snapshot t (`has(t)` must hold). In block mode this maps and
  /// decodes the block; corruption after a successful CheckSnapshot is a
  /// checked programming error.
  Lease Snapshot(int t) const;

  /// Heap + structure bytes held resident by this store. Block-backed
  /// stores count only bookkeeping, not the mmap'd payload — that is the
  /// point of the format.
  int64_t ResidentBytes() const;

  /// Total stored entries across snapshots (decodes headers on demand in
  /// block mode).
  int64_t TotalNnz() const;

  // -- Fit-side mutation (resident mode only) ---------------------------

  /// Clears to an all-absent resident store of `num_timestamps` slots.
  void Reset(int num_timestamps);
  /// Installs snapshot t (Reset first; resident mode only).
  void Set(int t, SparseScoreRows rows);

 private:
  bool block_backed_ = false;
  int num_timestamps_ = 0;
  std::vector<SparseScoreRows> resident_;
  BlockFileReader reader_;  // engaged iff block_backed_
};

}  // namespace tgsim::storage

#endif  // TGSIM_STORAGE_SCORE_STORE_H_
