#pragma once
// Fleet-wide telemetry: per-node Registry partitions with a
// deterministic hierarchical rollup.
//
// The PR-4 fleet engine gave every node its own virtual-clock partition
// but kept one process-wide metrics registry, so 1024 nodes fold their
// counts into shared atomics and per-node attribution is lost the
// moment it happens.  FleetTelemetry gives each node its *own*
// obs::Registry — the node's profiler and backends register there — and
// a merge tree mirroring the BG/Q packaging hierarchy we already model:
//
//   node (compute card) -> node board (32 cards) -> rack (32 boards)
//        -> fleet
//
// Each epoch a worker captures its nodes' registry values (capture_into(),
// the only per-node touch); the epoch-merge step then folds the captured
// values up the tree (fold()).  The fold visits children in
// ascending index order at every level, so every floating-point
// accumulation happens in one fixed order: the rolled-up snapshot is a
// pure function of the node snapshots, byte-identical at any worker
// count.  Per-node registries hold only virtual-clock series (poll
// counts, virtual-ms latencies), which makes the node snapshots — and
// therefore the whole tree — deterministic too.
//
// Merge semantics: counters and histogram buckets add; gauges add
// (a fleet gauge reads as the sum over nodes); histograms with
// mismatched bucket bounds keep the first-seen layout and skip the
// mismatch (counted in merge_skipped()).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"

namespace envmon::obs {

// Accumulates `from` into `into`.  Both must be sorted by (name, labels)
// — true of every Registry::snapshot().  Returns series skipped because
// of mismatched histogram bucket layouts.
std::size_t merge_snapshot(Snapshot& into, const Snapshot& from);

class FleetTelemetry {
 public:
  // Children per level of the rollup tree: the BG/Q shape (32 compute
  // cards per node board, 16 boards x 2 midplanes per rack).
  static constexpr std::size_t kNodesPerBoard = 32;
  static constexpr std::size_t kBoardsPerRack = 32;

  explicit FleetTelemetry(int nodes);
  FleetTelemetry(const FleetTelemetry&) = delete;
  FleetTelemetry& operator=(const FleetTelemetry&) = delete;

  [[nodiscard]] int node_count() const { return static_cast<int>(node_registries_.size()); }
  [[nodiscard]] int board_count() const { return static_cast<int>(boards_.size()); }
  [[nodiscard]] int rack_count() const { return static_cast<int>(racks_.size()); }

  // The registry partition owned by `rank`.  Hand it to the node's
  // profiler/backends at configure() time.
  [[nodiscard]] Registry& node_registry(int rank) { return *node_registries_[static_cast<std::size_t>(rank)]; }

  // Captures `rank`'s registry values into a caller-owned buffer.
  // Called by the worker that owns the rank; the capture itself locks
  // only that node's registry mutex.  The work-stealing fleet scheduler
  // captures into shard-local deposit buffers so a fast shard's
  // next-epoch capture can never overwrite one an unmerged epoch still
  // needs (Registry::values_into).
  void capture_into(int rank, SnapshotValues& out) const;

  // Folds node captures (index = rank, size = node_count(); null
  // entries merge as empty) up the tree: boards, racks, fleet.
  // Single-threaded by contract (the scheduler's epoch merge point) and
  // deterministic (fixed child order at every level).  A capture whose
  // keys match its board's rows adds position by position; the keys are
  // compared once per node, capture layout and board shape, not every
  // epoch.
  void fold(std::span<const SnapshotValues* const> nodes);

  // Adopts a capture produced by capture_into() as `rank`'s internal
  // slot.  The work-stealing runner deposits captures shard-locally
  // during the run and moves the final epoch's set here afterwards, so
  // node_capture() still reads the last-folded per-node state.
  void store_capture(int rank, SnapshotValues&& values) {
    node_values_[static_cast<std::size_t>(rank)] = std::move(values);
  }

  // Rollups from the most recent fold() (empty before the first);
  // node_capture() reads what store_capture() adopted.
  [[nodiscard]] const Snapshot& board_rollup(int board) const {
    return boards_[static_cast<std::size_t>(board)];
  }
  [[nodiscard]] const Snapshot& rack_rollup(int rack) const {
    return racks_[static_cast<std::size_t>(rack)];
  }
  [[nodiscard]] const Snapshot& fleet_rollup() const { return fleet_; }
  [[nodiscard]] Snapshot node_capture(int rank) const {
    return node_registries_[static_cast<std::size_t>(rank)]->snapshot_of(
        node_values_[static_cast<std::size_t>(rank)]);
  }

  [[nodiscard]] std::uint64_t folds() const { return folds_; }
  [[nodiscard]] std::uint64_t merge_skipped() const { return merge_skipped_; }
  // Node key comparisons (Registry::keys_match) across folds: one when a
  // node's capture layout or its board's shape changed since its keys
  // last matched, and one every fold for a node whose keys do not.
  [[nodiscard]] std::uint64_t key_checks() const { return key_checks_; }

 private:
  // The capture layout and board shape under which a node's keys last
  // matched its board's rows (Registry::keys_match).
  struct Matched {
    const void* source = nullptr;
    std::uint64_t version = 0;
    std::uint64_t board_shape = 0;
  };

  void fold_node(std::size_t board, std::size_t rank, const SnapshotValues& values);

  std::vector<std::unique_ptr<Registry>> node_registries_;
  std::vector<SnapshotValues> node_values_;  // slot[rank], written by store_capture()
  std::vector<Matched> matched_;             // [rank]
  std::vector<std::uint64_t> board_shapes_;  // [board], bumped when its keys change
  std::vector<Snapshot> boards_;
  std::vector<Snapshot> racks_;
  Snapshot fleet_;
  std::uint64_t folds_ = 0;
  std::uint64_t merge_skipped_ = 0;
  std::uint64_t key_checks_ = 0;

  Counter* folds_metric_ = nullptr;
  Gauge* series_metric_ = nullptr;
};

}  // namespace envmon::obs
