#pragma once
// Fleet-wide telemetry: per-node Registry partitions with a
// deterministic fleet rollup.
//
// The PR-4 fleet engine gave every node its own virtual-clock partition
// but kept one process-wide metrics registry, so 1024 nodes fold their
// counts into shared atomics and per-node attribution is lost the
// moment it happens.  FleetTelemetry gives each node its *own*
// obs::Registry — the node's profiler and backends register there — and
// folds them into one fleet rollup:
//
//   node 0, node 1, ..., node N-1 -> fleet
//
// Each epoch a worker captures its nodes' registry values
// (Registry::values_into(), the only per-node touch); the epoch-merge
// step then folds the captured values into the rollup (fold()).  The
// fold visits nodes in ascending rank order, so every floating-point
// accumulation happens in one fixed order: the rolled-up snapshot is a
// pure function of the node snapshots, byte-identical at any worker
// count.  Per-node registries hold only virtual-clock series (poll
// counts, virtual-ms latencies), which makes the node snapshots — and
// therefore the rollup — deterministic too.
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
  explicit FleetTelemetry(int nodes);
  FleetTelemetry(const FleetTelemetry&) = delete;
  FleetTelemetry& operator=(const FleetTelemetry&) = delete;

  [[nodiscard]] int node_count() const { return static_cast<int>(node_registries_.size()); }

  // The registry partition owned by `rank`.  Hand it to the node's
  // profiler/backends at configure() time.  The worker that owns the
  // rank captures it with values_into(), which locks only that node's
  // registry mutex.
  [[nodiscard]] Registry& node_registry(int rank) { return *node_registries_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] const Registry& node_registry(int rank) const {
    return *node_registries_[static_cast<std::size_t>(rank)];
  }

  // Folds node captures (index = rank, size = node_count(); null
  // entries merge as empty) into the fleet rollup, in rank order.
  // Single-threaded by contract (the scheduler's epoch merge point) and
  // deterministic (fixed node order).  A capture whose keys match the
  // rollup's rows adds position by position; the keys are compared once
  // per node, capture layout and rollup shape, not every epoch.
  void fold(std::span<const SnapshotValues* const> nodes);

  // The rollup from the most recent fold() (empty before the first).
  [[nodiscard]] const Snapshot& fleet_rollup() const { return fleet_; }

  [[nodiscard]] std::uint64_t folds() const { return folds_; }
  [[nodiscard]] std::uint64_t merge_skipped() const { return merge_skipped_; }
  // Node key comparisons (Registry::keys_match) across folds: one when a
  // node's capture layout or the rollup's shape changed since its keys
  // last matched, and one every fold for a node whose keys do not.
  [[nodiscard]] std::uint64_t key_checks() const { return key_checks_; }

 private:
  // The capture layout and rollup shape under which a node's keys last
  // matched the rollup's rows (Registry::keys_match).
  struct Matched {
    const void* source = nullptr;
    std::uint64_t version = 0;
    std::uint64_t shape = 0;
  };

  void fold_node(std::size_t rank, const SnapshotValues& values);

  std::vector<std::unique_ptr<Registry>> node_registries_;
  std::vector<Matched> matched_;  // [rank]
  std::uint64_t shape_ = 0;       // bumped when the rollup's keys change
  Snapshot fleet_;
  std::uint64_t folds_ = 0;
  std::uint64_t merge_skipped_ = 0;
  std::uint64_t key_checks_ = 0;

  Counter* folds_metric_ = nullptr;
  Gauge* series_metric_ = nullptr;
};

}  // namespace envmon::obs
