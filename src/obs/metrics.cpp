#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace envmon::obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be ascending");
  }
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double p) const {
  const std::uint64_t total = count();
  if (total == 0 || bounds_.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const double in_bucket =
        static_cast<double>(counts_[i].load(std::memory_order_relaxed));
    if (cumulative + in_bucket >= rank && in_bucket > 0.0) {
      const double lower = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
      const double upper = bounds_[i];
      return lower + (upper - lower) * (rank - cumulative) / in_bucket;
    }
    cumulative += in_bucket;
  }
  // Rank lands in the +Inf bucket: the best bounded estimate is the
  // largest finite bound.
  return bounds_.back();
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_bounds(double start, double factor, int n) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(n));
  double b = start;
  for (int i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

const std::vector<double>& Histogram::latency_bounds_ms() {
  static const std::vector<double> kBounds = {0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
                                              1.0,  2.0,  5.0,  10.0, 20.0, 50.0};
  return kBounds;
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           std::string_view labels) {
  const std::scoped_lock lock(mutex_);
  auto& entry = counters_[Key{std::string(name), std::string(labels)}];
  if (!entry.metric) {
    entry.help = std::string(help);
    entry.metric = &counter_arena_.emplace_back();
    entry.since = ++layout_version_;
    build_plan();
  }
  return *entry.metric;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       std::string_view labels) {
  const std::scoped_lock lock(mutex_);
  auto& entry = gauges_[Key{std::string(name), std::string(labels)}];
  if (!entry.metric) {
    entry.help = std::string(help);
    entry.metric = &gauge_arena_.emplace_back();
    entry.since = ++layout_version_;
    build_plan();
  }
  return *entry.metric;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds, std::string_view labels) {
  const std::scoped_lock lock(mutex_);
  auto& entry = histograms_[Key{std::string(name), std::string(labels)}];
  if (!entry.metric) {
    entry.help = std::string(help);
    entry.metric = &histogram_arena_.emplace_back(std::move(bounds));
    entry.since = ++layout_version_;
    build_plan();
  }
  return *entry.metric;
}

void Registry::build_plan() {
  plan_counters_.clear();
  for (const auto& [key, entry] : counters_) plan_counters_.push_back(entry.metric);
  plan_gauges_.clear();
  for (const auto& [key, entry] : gauges_) plan_gauges_.push_back(entry.metric);
  plan_histograms_.clear();
  plan_histogram_slots_ = 0;
  for (const auto& [key, entry] : histograms_) {
    plan_histograms_.push_back(entry.metric);
    plan_histogram_slots_ += entry.metric->bounds().size() + 2;
  }
}

Snapshot Registry::snapshot() const {
  SnapshotValues values;
  values_into(values);
  return snapshot_of(values);
}

void Registry::values_into(SnapshotValues& out) const {
  const std::scoped_lock lock(mutex_);
  out.counters.resize(plan_counters_.size());
  for (std::size_t i = 0; i < plan_counters_.size(); ++i) {
    out.counters[i] = plan_counters_[i]->value();
  }
  out.gauges.resize(plan_gauges_.size());
  for (std::size_t i = 0; i < plan_gauges_.size(); ++i) out.gauges[i] = plan_gauges_[i]->value();
  out.histogram_counts.resize(plan_histogram_slots_);
  out.histogram_sums.resize(plan_histograms_.size());
  std::size_t slot = 0;
  for (std::size_t i = 0; i < plan_histograms_.size(); ++i) {
    const Histogram* h = plan_histograms_[i];
    for (std::size_t b = 0; b <= h->bounds().size(); ++b) {
      out.histogram_counts[slot++] = h->bucket_count(b);
    }
    out.histogram_counts[slot++] = h->count();
    out.histogram_sums[i] = h->sum();
  }
  out.layout_source = this;
  out.layout_version = layout_version_;
}

namespace {

// True when `rows` mirrors the map's key sequence.
template <typename Row, typename Map>
bool rows_match(const std::vector<Row>& rows, const Map& entries) {
  if (rows.size() != entries.size()) return false;
  std::size_t i = 0;
  for (const auto& [key, entry] : entries) {
    if (rows[i].name != key.first || rows[i].labels != key.second) return false;
    ++i;
  }
  return true;
}

}  // namespace

bool Registry::keys_match(const SnapshotValues& values, const Snapshot& rows) const {
  if (values.layout_source != this) return false;
  const std::scoped_lock lock(mutex_);
  if (values.layout_version != layout_version_ || !rows_match(rows.counters, counters_) ||
      !rows_match(rows.gauges, gauges_) || !rows_match(rows.histograms, histograms_)) {
    return false;
  }
  for (std::size_t i = 0; i < plan_histograms_.size(); ++i) {
    if (rows.histograms[i].bounds != plan_histograms_[i]->bounds()) return false;
  }
  return true;
}

Snapshot Registry::snapshot_of(const SnapshotValues& values) const {
  Snapshot out;
  if (values.layout_source != this) return out;
  const std::scoped_lock lock(mutex_);
  const std::uint64_t version = values.layout_version;
  for (const auto& [key, entry] : counters_) {
    if (entry.since > version) continue;
    out.counters.push_back(
        {key.first, key.second, entry.help, values.counters.at(out.counters.size())});
  }
  for (const auto& [key, entry] : gauges_) {
    if (entry.since > version) continue;
    out.gauges.push_back({key.first, key.second, entry.help, values.gauges.at(out.gauges.size())});
  }
  std::size_t slot = 0;
  for (const auto& [key, entry] : histograms_) {
    if (entry.since > version) continue;
    Snapshot::HistogramRow row;
    row.name = key.first;
    row.labels = key.second;
    row.help = entry.help;
    row.bounds = entry.metric->bounds();
    for (std::size_t b = 0; b <= row.bounds.size(); ++b) {
      row.bucket_counts.push_back(values.histogram_counts.at(slot++));
    }
    row.count = values.histogram_counts.at(slot++);
    row.sum = values.histogram_sums.at(out.histograms.size());
    out.histograms.push_back(std::move(row));
  }
  return out;
}

void Registry::reset_values() {
  const std::scoped_lock lock(mutex_);
  for (auto& [key, entry] : counters_) entry.metric->reset();
  for (auto& [key, entry] : gauges_) entry.metric->reset();
  for (auto& [key, entry] : histograms_) entry.metric->reset();
}

Registry& default_registry() {
  static Registry* registry = new Registry();  // leaked: outlives static dtors
  return *registry;
}

}  // namespace envmon::obs
