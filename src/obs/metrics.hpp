#pragma once
// Self-observability: the metrics registry.
//
// The paper is an observability study — it measures what monitoring
// costs (EMON 1.10 ms, MSR 0.03 ms, NVML 1.3 ms, SCIF 14.2 ms per
// query).  This module turns the same lens on the reproduction itself:
// counters, gauges, and fixed-bucket latency histograms record what the
// engine, backends, profiler, and tsdb actually did during a run.
//
// Design constraints, in order:
//   1. The observation fast path is lock-free: one relaxed atomic RMW
//      per counter increment / histogram observation, so instrumentation
//      is cheap enough to leave enabled in benches (the claim
//      bench/overhead_observability.cpp checks).
//   2. Registration (cold path) takes a mutex and is idempotent: asking
//      for an already-registered (name, labels) pair returns the same
//      metric, so independent components share series safely.
//   3. Export order is deterministic (sorted by name then labels) so
//      exporter output can be golden-tested.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace envmon::obs {

// Global kill switch consulted by instrumented components when they
// acquire their metric handles (construction/initialize time).  Observing
// through an already-acquired handle is never gated — the switch exists
// so an uninstrumented baseline can be measured, not to make every
// increment pay for a branch.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written value, with an atomic-max variant for high-water marks.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  // Raises the gauge to `v` if below it (buffer high-water marks).
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram.  Bounds are ascending upper bounds (Prometheus
// `le` semantics: a value lands in the first bucket whose bound is >= it);
// an implicit +Inf bucket catches the rest.  Bucket layout is fixed at
// registration, so observation is a bounded search plus one atomic add.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket (non-cumulative) count; index bounds_.size() is +Inf.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const;
  // Estimated p-quantile (p in [0, 1]) with linear interpolation inside
  // the bucket where the rank lands — histogram_quantile() semantics, so
  // benches read p99 straight off their latency histograms instead of
  // re-deriving it from raw sample vectors.  The first bucket
  // interpolates from 0 (or its bound, if negative); a rank landing in
  // the +Inf bucket clamps to the largest finite bound.  0 when empty.
  [[nodiscard]] double quantile(double p) const;
  void reset();

  // {start, start*factor, ...}, n bounds total.
  [[nodiscard]] static std::vector<double> exponential_bounds(double start, double factor,
                                                              int n);
  // Default bounds for per-query latencies in milliseconds, spanning the
  // paper's range: 0.03 ms (MSR) up past 14.2 ms (SCIF API).
  [[nodiscard]] static const std::vector<double>& latency_bounds_ms();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Point-in-time copy of every registered metric, for exporters and tests.
struct Snapshot {
  struct CounterRow {
    std::string name, labels, help;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name, labels, help;
    double value = 0.0;
  };
  struct HistogramRow {
    std::string name, labels, help;
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_counts;  // non-cumulative, +Inf last
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
};

// A capture's values without its keys, in the registry's key order.
// The fleet rollup captures every node's registry each epoch; keyed rows
// would copy every name and help string per node (about 2.5 KB of fresh
// heap per node on the first capture), while these are four vectors
// whose capacity later captures reuse.  Registry::snapshot_of() turns
// one back into rows.
struct SnapshotValues {
  std::vector<std::uint64_t> counters;
  std::vector<double> gauges;
  // Per histogram: its bucket counts (+Inf last), then its count.
  std::vector<std::uint64_t> histogram_counts;
  std::vector<double> histogram_sums;
  // Which registry, at which layout version (see Registry): the keys
  // these values belong to.
  const void* layout_source = nullptr;
  std::uint64_t layout_version = 0;
};

// Thread-safe metric store.  `labels` is a pre-rendered Prometheus label
// body, e.g. `backend="rapl_msr"` (empty for none); (name, labels)
// identifies a series.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, std::string_view help, std::string_view labels = "");
  Gauge& gauge(std::string_view name, std::string_view help, std::string_view labels = "");
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds, std::string_view labels = "");

  [[nodiscard]] Snapshot snapshot() const;

  // Every value, in key order, into a caller-owned buffer: no map walk
  // and no strings, and no allocation once `out` has the capacity.  The
  // fleet telemetry layer leans on this to stay inside its overhead
  // budget (DESIGN.md §11).
  void values_into(SnapshotValues& out) const;

  // True when `values` was captured from this registry at its current
  // layout and `rows` has exactly that layout's keys (and histogram
  // bounds) in key order, so `values` adds to `rows` position by
  // position.
  [[nodiscard]] bool keys_match(const SnapshotValues& values, const Snapshot& rows) const;

  // The rows `values` was captured as: every series registered at or
  // before its layout version, with its captured value.  Empty when
  // `values` was not captured from this registry.
  [[nodiscard]] Snapshot snapshot_of(const SnapshotValues& values) const;

  // Zeroes every registered value (handles held by instrumented code
  // stay valid).  Lets a bench isolate phases on the shared registry.
  void reset_values();

 private:
  template <typename T>
  struct Entry {
    std::string help;
    T* metric = nullptr;  // points into the matching arena below
    // layout_version_ right after this series registered: the series
    // belongs to every capture stamped with this version or a later one.
    std::uint64_t since = 0;
  };
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  mutable std::mutex mutex_;
  std::map<Key, Entry<Counter>> counters_;
  std::map<Key, Entry<Gauge>> gauges_;
  std::map<Key, Entry<Histogram>> histograms_;
  // Metric storage.  A deque never moves elements, so handles stay valid
  // forever, and it packs same-kind metrics into contiguous chunks: a
  // registry's counters share a cache line or two instead of one heap
  // allocation each.  Fleet telemetry captures 100k registries back to
  // back, all cold in cache, so the lines touched per registry — not
  // instruction count — bound capture time.
  std::deque<Counter> counter_arena_;
  std::deque<Gauge> gauge_arena_;
  std::deque<Histogram> histogram_arena_;

  // Bumped on every new registration; value captures are stamped with
  // it.  Registries never remove a series, so the keys of a capture
  // stamped v are the series whose `since` is at most v.
  std::uint64_t layout_version_ = 1;
  // Flat key-order metric pointers, rebuilt at each new registration
  // while the maps are in cache.  A fleet epoch captures 100k registries
  // back to back — every one a cold-cache visit — and walking three
  // node-based maps per registry is what used to dominate telemetry
  // capture time.  values_into() touches only these contiguous arrays
  // and the metric atomics.
  void build_plan();  // mutex_ held
  std::vector<const Counter*> plan_counters_;
  std::vector<const Gauge*> plan_gauges_;
  std::vector<const Histogram*> plan_histograms_;
  std::size_t plan_histogram_slots_ = 0;  // bucket counts + count, summed
};

// The process-wide registry instrumented components default to.
[[nodiscard]] Registry& default_registry();

}  // namespace envmon::obs
