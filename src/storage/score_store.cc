#include "storage/score_store.h"

#include <cstring>
#include <utility>

#include "common/check.h"

namespace tgsim::storage {

std::string ScoreBlockName(int t) {
  std::string name("t");
  name.append(std::to_string(t));
  return name;
}

ScoreStore ScoreStore::FromBlockFile(BlockFileReader reader,
                                     int num_timestamps) {
  ScoreStore store;
  store.block_backed_ = true;
  store.num_timestamps_ = num_timestamps;
  store.reader_ = std::move(reader);
  return store;
}

bool ScoreStore::has(int t) const {
  if (t < 0 || t >= num_timestamps_) return false;
  if (block_backed_) return reader_.HasBlock(ScoreBlockName(t));
  return !resident_[static_cast<size_t>(t)].empty();
}

Status ScoreStore::CheckSnapshot(int t, int expected_nodes) const {
  if (!has(t)) return Status::Ok();
  if (block_backed_) {
    auto block = reader_.Map(ScoreBlockName(t));
    if (!block.ok()) return block.status();
    auto view = DecodeScoreBlock(block.value().data(), block.value().size());
    if (!view.ok()) {
      return Status::InvalidArgument("snapshot " + std::to_string(t) + ": " +
                                     view.status().message());
    }
    if (view.value().rows != expected_nodes ||
        view.value().cols != expected_nodes) {
      return Status::InvalidArgument(
          "snapshot " + std::to_string(t) + ": scores are " +
          std::to_string(view.value().rows) + " x " +
          std::to_string(view.value().cols) + ", model has " +
          std::to_string(expected_nodes) + " nodes");
    }
    return Status::Ok();
  }
  const SparseScoreRows& rows = resident_[static_cast<size_t>(t)];
  if (rows.rows() != expected_nodes || rows.cols() != expected_nodes) {
    return Status::InvalidArgument(
        "snapshot " + std::to_string(t) + ": scores are " +
        std::to_string(rows.rows()) + " x " + std::to_string(rows.cols()) +
        ", model has " + std::to_string(expected_nodes) + " nodes");
  }
  return Status::Ok();
}

ScoreStore::Lease ScoreStore::Snapshot(int t) const {
  TGSIM_CHECK(has(t));
  Lease lease;
  if (block_backed_) {
    auto block = reader_.Map(ScoreBlockName(t));
    TGSIM_CHECK(block.ok());
    lease.block = std::move(block).value();
    auto view = DecodeScoreBlock(lease.block.data(), lease.block.size());
    TGSIM_CHECK(view.ok());
    lease.view = view.value();
  } else {
    lease.view = resident_[static_cast<size_t>(t)].View();
  }
  return lease;
}

int64_t ScoreStore::ResidentBytes() const {
  int64_t total = static_cast<int64_t>(sizeof(*this));
  for (const SparseScoreRows& rows : resident_) {
    total += rows.ResidentBytes();
  }
  return total;
}

int64_t ScoreStore::TotalNnz() const {
  int64_t total = 0;
  for (int t = 0; t < num_timestamps_; ++t) {
    if (!has(t)) continue;
    if (block_backed_) {
      Lease lease = Snapshot(t);
      total += lease.view.nnz();
    } else {
      total += resident_[static_cast<size_t>(t)].nnz();
    }
  }
  return total;
}

void ScoreStore::Reset(int num_timestamps) {
  TGSIM_CHECK_GE(num_timestamps, 0);
  block_backed_ = false;
  num_timestamps_ = num_timestamps;
  resident_.assign(static_cast<size_t>(num_timestamps), SparseScoreRows());
  reader_ = BlockFileReader();
}

void ScoreStore::Set(int t, SparseScoreRows rows) {
  TGSIM_CHECK(!block_backed_);
  TGSIM_CHECK(t >= 0 && t < num_timestamps_);
  resident_[static_cast<size_t>(t)] = std::move(rows);
}

}  // namespace tgsim::storage
