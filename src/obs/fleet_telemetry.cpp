#include "obs/fleet_telemetry.hpp"

#include <algorithm>

namespace envmon::obs {

namespace {

// Key order shared by every Snapshot row type (the registry's map order).
template <typename Row>
bool row_less(const Row& a, const Row& b) {
  if (a.name != b.name) return a.name < b.name;
  return a.labels < b.labels;
}

// Sorted two-way merge of `from` into `into`; `accumulate(into_row,
// from_row)` folds matching keys and returns false to skip (mismatched
// histogram layouts).
template <typename Row, typename Accumulate>
std::size_t merge_rows(std::vector<Row>& into, const std::vector<Row>& from,
                       Accumulate accumulate) {
  std::size_t skipped = 0;
  std::vector<Row> merged;
  merged.reserve(into.size() + from.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < into.size() && j < from.size()) {
    if (row_less(into[i], from[j])) {
      merged.push_back(std::move(into[i++]));
    } else if (row_less(from[j], into[i])) {
      merged.push_back(from[j++]);
    } else {
      if (!accumulate(into[i], from[j])) ++skipped;
      merged.push_back(std::move(into[i++]));
      ++j;
    }
  }
  for (; i < into.size(); ++i) merged.push_back(std::move(into[i]));
  for (; j < from.size(); ++j) merged.push_back(from[j]);
  into = std::move(merged);
  return skipped;
}

// Zeroes every value while keeping the row structure (names, labels,
// bounds) intact, so re-folding into the persistent rollup adds
// position by position instead of rebuilding strings each epoch.
void zero_values(Snapshot& snapshot) {
  for (auto& c : snapshot.counters) c.value = 0;
  for (auto& g : snapshot.gauges) g.value = 0.0;
  for (auto& h : snapshot.histograms) {
    std::fill(h.bucket_counts.begin(), h.bucket_counts.end(), 0);
    h.count = 0;
    h.sum = 0.0;
  }
}

std::size_t row_count(const Snapshot& snapshot) {
  return snapshot.counters.size() + snapshot.gauges.size() + snapshot.histograms.size();
}

}  // namespace

std::size_t merge_snapshot(Snapshot& into, const Snapshot& from) {
  std::size_t skipped = 0;
  skipped += merge_rows(into.counters, from.counters,
                        [](Snapshot::CounterRow& a, const Snapshot::CounterRow& b) {
                          a.value += b.value;
                          return true;
                        });
  skipped += merge_rows(into.gauges, from.gauges,
                        [](Snapshot::GaugeRow& a, const Snapshot::GaugeRow& b) {
                          a.value += b.value;
                          return true;
                        });
  skipped += merge_rows(into.histograms, from.histograms,
                        [](Snapshot::HistogramRow& a, const Snapshot::HistogramRow& b) {
                          if (a.bounds != b.bounds) return false;
                          for (std::size_t k = 0; k < a.bucket_counts.size(); ++k) {
                            a.bucket_counts[k] += b.bucket_counts[k];
                          }
                          a.count += b.count;
                          a.sum += b.sum;
                          return true;
                        });
  return skipped;
}

FleetTelemetry::FleetTelemetry(int nodes) {
  const auto node_count = static_cast<std::size_t>(std::max(nodes, 1));
  node_registries_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    node_registries_.push_back(std::make_unique<Registry>());
  }
  matched_.resize(node_count);
  if (enabled()) {
    auto& registry = default_registry();
    folds_metric_ = &registry.counter("envmon_fleet_rollup_folds_total",
                                      "Fleet telemetry rollups performed");
    series_metric_ = &registry.gauge("envmon_fleet_rollup_series",
                                     "Series in the latest fleet-wide rollup");
  }
}

void FleetTelemetry::fold_node(std::size_t rank, const SnapshotValues& values) {
  const Registry& registry = *node_registries_[rank];
  Matched& matched = matched_[rank];
  const bool known = matched.source == values.layout_source &&
                     matched.version == values.layout_version && matched.shape == shape_;
  if (!known) ++key_checks_;
  if (!known && !registry.keys_match(values, fleet_)) {
    // A different or stale layout: merge by key, as for any two
    // snapshots.  A keyed merge only ever adds rows, so the rollup's
    // keys changed exactly when its row count did.
    const std::size_t before = row_count(fleet_);
    merge_skipped_ += merge_snapshot(fleet_, registry.snapshot_of(values));
    if (row_count(fleet_) != before) ++shape_;
    return;
  }
  matched = {values.layout_source, values.layout_version, shape_};
  // The same accumulation per row as merge_snapshot()'s.
  for (std::size_t i = 0; i < fleet_.counters.size(); ++i) {
    fleet_.counters[i].value += values.counters[i];
  }
  for (std::size_t i = 0; i < fleet_.gauges.size(); ++i) fleet_.gauges[i].value += values.gauges[i];
  std::size_t slot = 0;
  for (std::size_t i = 0; i < fleet_.histograms.size(); ++i) {
    Snapshot::HistogramRow& h = fleet_.histograms[i];
    for (auto& count : h.bucket_counts) count += values.histogram_counts[slot++];
    h.count += values.histogram_counts[slot++];
    h.sum += values.histogram_sums[i];
  }
}

void FleetTelemetry::fold(std::span<const SnapshotValues* const> nodes) {
  // The rollup persists across folds: zero the values, keep the
  // structure, and let the positional path do the accumulation.
  // (Registries never remove series, so stale rows cannot linger.)
  zero_values(fleet_);
  const std::size_t end = std::min(nodes.size(), node_registries_.size());
  for (std::size_t n = 0; n < end; ++n) {
    if (nodes[n] != nullptr) fold_node(n, *nodes[n]);
  }
  ++folds_;
  if (folds_metric_ != nullptr) folds_metric_->inc();
  if (series_metric_ != nullptr) {
    series_metric_->set(static_cast<double>(row_count(fleet_)));
  }
}

}  // namespace envmon::obs
