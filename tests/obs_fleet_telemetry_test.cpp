// The observability layer's contracts (DESIGN.md §11):
//
//   * Prometheus export escapes label values and HELP text, so a value
//     carrying backslashes, quotes, or newlines cannot corrupt the
//     exposition format.
//   * Histogram::quantile interpolates like histogram_quantile(), so the
//     benches can read p99 straight off their latency histograms.
//   * merge_snapshot / FleetTelemetry fold per-node registry partitions
//     into one fleet rollup in rank order: the rollup is bit-identical
//     to a rank-order merge of the node snapshots, and its JSON
//     rendering is byte-identical at 1, 2, and 8 worker threads.
//   * FlightRecorder is a bounded ring (per event class), its post-mortem
//     dump is golden-testable, the injector and profiler hooks record
//     fault and health events with their node and virtual time, and a
//     scripted quarantine produces the same dump at any worker count.
//   * Self-scrape rows land in the environmental database each epoch
//     under the reserved envmon.self.* namespace, queryable like any
//     other series but exempt from the modeled ingest-rate ceiling.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fleet/api.hpp"
#include "moneq/backend_rapl.hpp"
#include "moneq/output.hpp"
#include "moneq/profiler.hpp"
#include "obs/export.hpp"
#include "obs/fleet_telemetry.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "rapl/reader.hpp"
#include "sim/engine.hpp"
#include "tsdb/database.hpp"

namespace envmon {
namespace {

using fleet::FleetConfig;
using fleet::FleetRunner;
using sim::Duration;
using sim::SimTime;

// ---------------------------------------------------------------------------
// Prometheus label-value escaping (regression: values used to be pasted
// into the label body verbatim).

TEST(PrometheusEscaping, EscapeLabelValue) {
  EXPECT_EQ(obs::escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::escape_label_value("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(obs::escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PrometheusEscaping, LabelHelperRendersEscapedPair) {
  EXPECT_EQ(obs::label("backend", "rapl_msr"), "backend=\"rapl_msr\"");
  EXPECT_EQ(obs::label("path", "C:\\msr"), "path=\"C:\\\\msr\"");
}

TEST(PrometheusEscaping, ExportSurvivesHostileValues) {
  obs::Registry registry;
  registry.counter("evil_total", "help with\nnewline and \\ backslash",
                   obs::label("path", "a\\b\"c\nd"))
      .inc(3);
  const std::string text = obs::export_prometheus(registry.snapshot());

  // HELP text is escaped per the exposition spec.
  EXPECT_NE(text.find("# HELP evil_total help with\\nnewline and \\\\ backslash"),
            std::string::npos);
  // The label value round-trips with \\, \", and \n escapes.
  EXPECT_NE(text.find("evil_total{path=\"a\\\\b\\\"c\\nd\"} 3"), std::string::npos);
  // No line of the output is a bare continuation of a broken series line:
  // every line starts with '#' or the metric name.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!line.empty()) {
      EXPECT_TRUE(line[0] == '#' || line.rfind("evil_total", 0) == 0)
          << "corrupted exposition line: " << line;
    }
    start = end + 1;
  }
}

// ---------------------------------------------------------------------------
// Histogram::quantile — histogram_quantile() semantics.

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
  obs::Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.5, 3.0, 8.0}) h.observe(v);

  // rank 0.5 of 4 lands mid-way through the first bucket [0, 1).
  EXPECT_DOUBLE_EQ(h.quantile(0.125), 0.5);
  // rank 1.0 is exactly the first bucket's upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
  // rank 2.0 exhausts bucket (1, 2].
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  // rank 3.0 exhausts bucket (2, 4].
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 4.0);
  // rank 4.0 lands in the +Inf bucket: clamp to the largest finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  // p is clamped to [0, 1].
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(HistogramQuantile, EmptyHistogramReturnsZero) {
  obs::Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  h.observe(1.5);
  EXPECT_GT(h.quantile(0.99), 0.0);
  h.reset();
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

// ---------------------------------------------------------------------------
// merge_snapshot — the fleet rollup's keyed merge.

TEST(MergeSnapshot, SumsSharedSeriesAndUnionsDisjointOnes) {
  obs::Registry a;
  a.counter("polls_total", "h").inc(1);
  a.gauge("fill", "h").set(2.5);
  obs::Registry b;
  b.counter("polls_total", "h").inc(41);
  b.counter("drops_total", "h").inc(7);
  b.gauge("fill", "h").set(1.5);

  obs::Snapshot into = a.snapshot();
  EXPECT_EQ(obs::merge_snapshot(into, b.snapshot()), 0u);

  ASSERT_EQ(into.counters.size(), 2u);  // sorted: drops_total, polls_total
  EXPECT_EQ(into.counters[0].name, "drops_total");
  EXPECT_EQ(into.counters[0].value, 7u);
  EXPECT_EQ(into.counters[1].name, "polls_total");
  EXPECT_EQ(into.counters[1].value, 42u);
  ASSERT_EQ(into.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(into.gauges[0].value, 4.0);  // fleet gauge = sum over nodes
}

TEST(MergeSnapshot, HistogramBucketsAddAndMismatchedBoundsAreSkipped) {
  obs::Registry a;
  a.histogram("lat_ms", "h", {1.0, 2.0}).observe(0.5);
  a.histogram("other_ms", "h", {1.0}).observe(0.5);
  obs::Registry b;
  b.histogram("lat_ms", "h", {1.0, 2.0}).observe(1.5);
  b.histogram("other_ms", "h", {8.0}).observe(0.5);  // mismatched layout

  obs::Snapshot into = a.snapshot();
  EXPECT_EQ(obs::merge_snapshot(into, b.snapshot()), 1u);

  ASSERT_EQ(into.histograms.size(), 2u);
  const auto& lat = into.histograms[0];
  EXPECT_EQ(lat.name, "lat_ms");
  EXPECT_EQ(lat.count, 2u);
  EXPECT_DOUBLE_EQ(lat.sum, 2.0);
  EXPECT_EQ(lat.bucket_counts[0], 1u);  // 0.5 in (.., 1]
  EXPECT_EQ(lat.bucket_counts[1], 1u);  // 1.5 in (1, 2]
  // The mismatched series keeps the first-seen layout untouched.
  EXPECT_EQ(into.histograms[1].count, 1u);
  EXPECT_EQ(into.histograms[1].bounds, std::vector<double>{1.0});
}

// ---------------------------------------------------------------------------
// FlightRecorder — bounded rings per event class.

TEST(FlightRecorder, RingWraparoundKeepsNewestWindow) {
  obs::FlightRecorder recorder(4);
  for (int i = 0; i < 7; ++i) {
    recorder.record(SimTime::from_seconds(i), i, "fault", "fault.inject");
  }
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.recorded(), 7u);
  EXPECT_EQ(recorder.dropped(), 3u);

  const auto window = recorder.events();
  ASSERT_EQ(window.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(window[static_cast<std::size_t>(i)].node, 3 + i);  // oldest first
    EXPECT_EQ(window[static_cast<std::size_t>(i)].seq, static_cast<std::uint64_t>(3 + i));
  }
}

TEST(FlightRecorder, TimingEventsLiveInTheirOwnRing) {
  obs::FlightRecorder recorder(2);
  recorder.record(SimTime::from_seconds(1), 0, "health", "backend.health");
  recorder.record(SimTime::from_seconds(2), -1, "queue", "queue.stall", "",
                  obs::EventClass::kTiming);
  recorder.record(SimTime::from_seconds(3), -1, "queue", "queue.stall", "",
                  obs::EventClass::kTiming);
  recorder.record(SimTime::from_seconds(4), -1, "queue", "queue.stall", "",
                  obs::EventClass::kTiming);

  // Three timing events through a capacity-2 ring evict one timing event —
  // and cannot touch the deterministic record.
  EXPECT_EQ(recorder.recorded(), 1u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.timing_recorded(), 3u);
  EXPECT_EQ(recorder.timing_dropped(), 1u);
  EXPECT_EQ(recorder.events().size(), 1u);
  EXPECT_EQ(recorder.timing_events().size(), 2u);
}

TEST(FlightRecorder, PostMortemGoldenOutput) {
  obs::FlightRecorder node0(8);
  obs::FlightRecorder fleetwide(8);
  node0.record(SimTime::from_seconds(1), 0, "fault", "fault.inject", "rapl_msr: kill \"hard\"");
  fleetwide.record(SimTime::from_seconds(2), -1, "tsdb", "tsdb.seal", "epoch 2: sealed 3 blocks");
  node0.record(SimTime::from_seconds(2), 0, "health", "backend.health",
               "rapl_msr: degraded -> quarantined");
  // Timing events are excluded from the dump by default.
  fleetwide.record(SimTime::from_seconds(3), -1, "queue", "queue.stall", "epoch 3",
                   obs::EventClass::kTiming);

  const obs::FlightRecorder* recorders[] = {&node0, &fleetwide};
  const std::string dump = obs::dump_post_mortem("manual", recorders);
  const std::string golden =
      "{\n"
      "  \"trigger\": \"manual\",\n"
      "  \"events\": [\n"
      "    {\"t_ns\": 1000000000, \"node\": 0, \"category\": \"fault\", "
      "\"name\": \"fault.inject\", \"detail\": \"rapl_msr: kill \\\"hard\\\"\"},\n"
      "    {\"t_ns\": 2000000000, \"node\": -1, \"category\": \"tsdb\", "
      "\"name\": \"tsdb.seal\", \"detail\": \"epoch 2: sealed 3 blocks\"},\n"
      "    {\"t_ns\": 2000000000, \"node\": 0, \"category\": \"health\", "
      "\"name\": \"backend.health\", \"detail\": \"rapl_msr: degraded -> quarantined\"}\n"
      "  ],\n"
      "  \"recorded\": 3,\n"
      "  \"dropped\": 0\n"
      "}\n";
  EXPECT_EQ(dump, golden);

  const std::string empty_dump = obs::dump_post_mortem("manual", {});
  EXPECT_EQ(empty_dump,
            "{\n  \"trigger\": \"manual\",\n  \"events\": [],\n"
            "  \"recorded\": 0,\n  \"dropped\": 0\n}\n");
}

// The two hooks that feed a recorder outside the fleet: the injector's
// fault.inject events and the profiler's backend.health transitions,
// each tagged with the caller's node and stamped on the virtual clock.
TEST(FlightRecorder, InjectorAndProfilerHooksRecordFaultsAndHealth) {
  constexpr int kNode = 7;
  sim::Engine engine;
  obs::FlightRecorder recorder;
  fault::Injector injector(engine);
  injector.attach_recorder(&recorder, kNode);
  injector.fail_between(fault::sites::kRaplMsr, SimTime::from_seconds(1),
                        SimTime::from_seconds(10), StatusCode::kUnavailable, "msr gone");

  rapl::CpuPackage package(engine);
  rapl::MsrRaplReader reader(package, rapl::Credentials{true, 0});
  reader.attach_fault_hook(injector);
  moneq::RaplBackend backend(reader);

  // No retries and quarantine after two failed polls: the polls at 1.0 s
  // and 1.1 s fail once each, and the 1 s backoff outlasts the run.
  moneq::ProfilerOptions options;
  options.recorder = &recorder;
  options.recorder_node = kNode;
  options.degradation.retries_per_poll = 0;
  options.degradation.polls_to_quarantine = 2;
  options.degradation.backoff_base = Duration::seconds(1);
  smpi::World world(1);
  moneq::NodeProfiler profiler(engine, world, 0, options);
  ASSERT_TRUE(profiler.add_backend(backend).is_ok());
  ASSERT_TRUE(profiler.set_polling_interval(Duration::millis(100)).is_ok());
  ASSERT_TRUE(profiler.initialize().is_ok());
  engine.run_until(SimTime::from_seconds(1.5));
  ASSERT_EQ(profiler.backend_health(0).state(), moneq::BackendState::kQuarantined);

  struct Expected {
    double t;
    const char* category;
    const char* name;
    const char* detail;
  };
  const Expected expected[] = {
      {1.0, "fault", "fault.inject", "rapl_msr: window"},
      {1.0, "health", "backend.health", "rapl_msr: healthy -> degraded"},
      {1.1, "fault", "fault.inject", "rapl_msr: window"},
      {1.1, "health", "backend.health", "rapl_msr: degraded -> quarantined"},
  };
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), std::size(expected));
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(events[i].t, SimTime::from_seconds(expected[i].t));
    EXPECT_EQ(events[i].node, kNode);
    EXPECT_EQ(events[i].category, expected[i].category);
    EXPECT_EQ(events[i].name, expected[i].name);
    EXPECT_EQ(events[i].detail, expected[i].detail);
  }
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(injector.injected(fault::sites::kRaplMsr), 2u);
}

// ---------------------------------------------------------------------------
// The fleet-level contracts: rollup + post-mortem determinism across
// worker counts, and the envmon.self.* self-scrape.

struct TelemetryRun {
  std::string rollup_json;
  std::string post_mortem;
  fleet::FleetReport report;
};

// Same storm as tests/fleet_test.cpp: every third node loses its RAPL
// MSR for good at t=2s, which forces healthy -> degraded -> quarantined
// after polls_to_quarantine consecutive failures — a deterministic
// post-mortem trigger.
TelemetryRun run_storm_fleet(int threads) {
  FleetConfig config;
  config.nodes = 12;
  config.threads = threads;
  config.capabilities = {moneq::Capability::kBgqEmon, moneq::Capability::kRaplMsr};
  config.epoch = Duration::seconds(1);
  config.horizon = Duration::seconds(6);
  config.polling_interval = Duration::millis(500);
  config.seed = 0xfee7f1ee7ull;
  config.ingest = fleet::IngestMode::kNodePower;
  config.database.max_insert_rate_per_second = 1u << 20;
  config.fault_script = [](fault::Injector& injector, int node) {
    if (node % 3 == 0) {
      injector.kill_at(fault::sites::kRaplMsr, SimTime::from_seconds(2));
    }
  };
  moneq::MemoryOutput output;
  config.output = &output;

  FleetRunner runner;
  EXPECT_TRUE(runner.configure(std::move(config)).is_ok());
  EXPECT_TRUE(runner.run().is_ok());

  TelemetryRun out;
  out.rollup_json = obs::export_json(runner.telemetry().fleet_rollup());
  out.post_mortem = runner.post_mortem();
  const auto report = runner.report();
  EXPECT_TRUE(report.is_ok());
  out.report = report.value();
  return out;
}

// Captures every node's registry into `values` and points `ptrs` at them.
void capture_all(obs::FleetTelemetry& telemetry, std::vector<obs::SnapshotValues>& values,
                 std::vector<const obs::SnapshotValues*>& ptrs) {
  values.resize(static_cast<std::size_t>(telemetry.node_count()));
  ptrs.resize(values.size());
  for (std::size_t rank = 0; rank < values.size(); ++rank) {
    telemetry.node_registry(static_cast<int>(rank)).values_into(values[rank]);
    ptrs[rank] = &values[rank];
  }
}

// The oracle: the node captures' rows merged by key, in rank order.
obs::Snapshot rank_order_merge(const obs::FleetTelemetry& telemetry,
                               const std::vector<obs::SnapshotValues>& values,
                               std::size_t* skipped = nullptr) {
  obs::Snapshot fleet;
  for (std::size_t rank = 0; rank < values.size(); ++rank) {
    const std::size_t s = obs::merge_snapshot(
        fleet, telemetry.node_registry(static_cast<int>(rank)).snapshot_of(values[rank]));
    if (skipped != nullptr) *skipped += s;
  }
  return fleet;
}

TEST(FleetTelemetry, FoldOfValueCapturesEqualsMergeOfSnapshots) {
  // 40 mostly identical registries, plus the cases the
  // position-by-position fold must hand to the keyed merge: an extra
  // series (ranks 5 and 34), mismatched histogram bounds (rank 7), and a
  // series registered between capture and fold (rank 34).  That last
  // registry's keys then equal the rollup's (rank 33 has the series from
  // the start, rank 5 the extra one), but the capture's do not: it
  // predates the series.
  obs::FleetTelemetry telemetry(40);
  for (int rank = 0; rank < 40; ++rank) {
    obs::Registry& r = telemetry.node_registry(rank);
    r.counter("polls_total", "h").inc(static_cast<std::uint64_t>(rank));
    r.gauge("fill", "h").set(0.5 * rank);
    r.histogram("lat_ms", "h", rank == 7 ? std::vector<double>{8.0} : std::vector<double>{1.0, 2.0})
        .observe(rank % 3);
    if (rank == 5 || rank == 34) r.counter("drops_total", "h").inc(3);
    if (rank == 33) r.counter("late_total", "h").inc(5);
  }
  std::vector<obs::SnapshotValues> values;
  std::vector<const obs::SnapshotValues*> ptrs;
  for (int epoch = 0; epoch < 2; ++epoch) {
    capture_all(telemetry, values, ptrs);
    // Not part of this epoch's capture: a new series, a later count.
    telemetry.node_registry(34).counter("late_total", "h").inc(1);
    telemetry.node_registry(0).counter("polls_total", "h").inc(100);
    telemetry.fold(ptrs);

    std::size_t skipped = 0;
    const obs::Snapshot fleet = rank_order_merge(telemetry, values, &skipped);
    EXPECT_EQ(obs::export_json(telemetry.fleet_rollup()), obs::export_json(fleet));
    EXPECT_EQ(telemetry.merge_skipped(), skipped * static_cast<std::size_t>(epoch + 1));
  }
  // The late series joined rank 34's second capture, with its count then.
  const obs::Snapshot late = telemetry.node_registry(34).snapshot_of(values[34]);
  ASSERT_EQ(late.counters.size(), 3u);
  EXPECT_EQ(late.counters[1].name, "late_total");
  EXPECT_EQ(late.counters[1].value, 1u);
}

TEST(FleetTelemetry, FoldComparesKeysOnlyWhenALayoutChanges) {
  // Identical registries except rank 7's histogram bounds, which never
  // match the rollup's.
  obs::FleetTelemetry telemetry(64);
  for (int rank = 0; rank < 64; ++rank) {
    obs::Registry& r = telemetry.node_registry(rank);
    r.counter("polls_total", "h").inc(static_cast<std::uint64_t>(rank));
    r.histogram("lat_ms", "h", rank == 7 ? std::vector<double>{8.0} : std::vector<double>{1.0, 2.0})
        .observe(rank % 3);
  }
  std::vector<obs::SnapshotValues> values;
  std::vector<const obs::SnapshotValues*> ptrs;
  const auto fold_checks = [&] {
    capture_all(telemetry, values, ptrs);
    const std::uint64_t before = telemetry.key_checks();
    telemetry.fold(ptrs);
    return telemetry.key_checks() - before;
  };
  // Every node once; then rank 0, which met empty rows, and rank 7;
  // then rank 7 alone, whose skipped merge leaves the rollup's keys as
  // they were.
  EXPECT_EQ(fold_checks(), 64u);
  EXPECT_EQ(fold_checks(), 2u);
  EXPECT_EQ(fold_checks(), 1u);
  EXPECT_EQ(fold_checks(), 1u);
  // A new series on rank 40 changes the rollup's keys: rank 40 and every
  // node after it are compared at once, every node the fold after; then
  // the 62 others without the series, which can never match the rollup
  // again, stay on the keyed merge.
  telemetry.node_registry(40).gauge("fill", "h").set(1.0);
  EXPECT_EQ(fold_checks(), 1u + 24u);
  EXPECT_EQ(fold_checks(), 1u + 63u);
  EXPECT_EQ(fold_checks(), 1u + 62u);
  EXPECT_EQ(obs::export_json(telemetry.fleet_rollup()),
            obs::export_json(rank_order_merge(telemetry, values)));
}

TEST(FleetTelemetry, EmptyRegistriesMatchAnEmptyRollup) {
  std::vector<obs::SnapshotValues> values;
  std::vector<const obs::SnapshotValues*> ptrs;
  const auto fold_checks = [&](obs::FleetTelemetry& telemetry) {
    capture_all(telemetry, values, ptrs);
    const std::uint64_t before = telemetry.key_checks();
    telemetry.fold(ptrs);
    return telemetry.key_checks() - before;
  };
  // No node registers a series: each capture matches the empty rollup
  // once and keeps that match.
  obs::FleetTelemetry empty(4);
  EXPECT_EQ(fold_checks(empty), 4u);
  EXPECT_EQ(fold_checks(empty), 0u);
  EXPECT_EQ(fold_checks(empty), 0u);
  EXPECT_EQ(obs::export_json(empty.fleet_rollup()), obs::export_json(obs::Snapshot{}));

  // Empty ranks before the first registration match the empty rollup on
  // the first fold only; once rank 2's series joins it, their keys
  // differ and they stay on the keyed merge, which adds nothing.
  obs::FleetTelemetry mixed(4);
  mixed.node_registry(2).counter("polls_total", "h").inc(2);
  mixed.node_registry(3).counter("polls_total", "h").inc(3);
  EXPECT_EQ(fold_checks(mixed), 4u);
  EXPECT_EQ(fold_checks(mixed), 3u);
  EXPECT_EQ(fold_checks(mixed), 2u);
  EXPECT_EQ(mixed.merge_skipped(), 0u);
  ASSERT_EQ(mixed.fleet_rollup().counters.size(), 1u);
  EXPECT_EQ(mixed.fleet_rollup().counters[0].value, 5u);
  EXPECT_EQ(obs::export_json(mixed.fleet_rollup()),
            obs::export_json(rank_order_merge(mixed, values)));
}

TEST(FleetTelemetry, FoldSumsInRankOrderBitForBit) {
  // More nodes than a 32-node board of a 32-board rack, with values that
  // are not dyadic, so a different summation order (by board, then by
  // rack) shows in the last bits.  (0.1 * rank alone sums to the same
  // bits in both orders at this size.)
  constexpr int kNodes = 1100;
  obs::FleetTelemetry telemetry(kNodes);
  for (int rank = 0; rank < kNodes; ++rank) {
    obs::Registry& r = telemetry.node_registry(rank);
    const double value = 0.1 * rank + 0.01;
    r.gauge("fill", "h").set(value);
    r.histogram("lat_ms", "h", {1.0, 2.0}).observe(value);
  }
  std::vector<obs::SnapshotValues> values;
  std::vector<const obs::SnapshotValues*> ptrs;
  capture_all(telemetry, values, ptrs);
  telemetry.fold(ptrs);
  telemetry.fold(ptrs);  // positional after the first fold, same sums

  const obs::Snapshot fleet = rank_order_merge(telemetry, values);
  const obs::Snapshot& rollup = telemetry.fleet_rollup();
  ASSERT_EQ(rollup.gauges.size(), 1u);
  ASSERT_EQ(rollup.histograms.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rollup.gauges[0].value),
            std::bit_cast<std::uint64_t>(fleet.gauges[0].value));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rollup.histograms[0].sum),
            std::bit_cast<std::uint64_t>(fleet.histograms[0].sum));
  EXPECT_EQ(rollup.histograms[0].count, static_cast<std::uint64_t>(kNodes));
  EXPECT_EQ(rollup.histograms[0].bucket_counts, fleet.histograms[0].bucket_counts);
}

TEST(FleetTelemetry, RollupAndPostMortemAreByteIdenticalAcrossThreadCounts) {
  const TelemetryRun one = run_storm_fleet(1);

  // The storm quarantined backends, so the run produced a post-mortem.
  EXPECT_TRUE(one.report.post_mortem_triggered);
  EXPECT_NE(one.report.post_mortem_trigger.find("backend quarantined"), std::string::npos);
  EXPECT_NE(one.post_mortem.find("-> quarantined"), std::string::npos);
  EXPECT_NE(one.post_mortem.find("fault.inject"), std::string::npos);
  EXPECT_GT(one.report.recorder_events, 0u);
  EXPECT_GT(one.rollup_json.size(), 2u);

  for (const int threads : {2, 8}) {
    const TelemetryRun many = run_storm_fleet(threads);
    EXPECT_EQ(one.rollup_json, many.rollup_json)
        << threads << " threads: fleet rollup diverged";
    EXPECT_EQ(one.post_mortem, many.post_mortem)
        << threads << " threads: post-mortem diverged";
    EXPECT_EQ(one.report.post_mortem_trigger, many.report.post_mortem_trigger);
    EXPECT_EQ(one.report.recorder_events, many.report.recorder_events);
  }
}

TEST(FleetTelemetry, FleetRollupIsTheRankOrderMergeOfNodeRegistries) {
  FleetConfig config;
  config.nodes = 12;
  config.capabilities = {moneq::Capability::kBgqEmon};
  config.epoch = Duration::seconds(1);
  config.horizon = Duration::seconds(4);
  config.polling_interval = Duration::millis(500);
  config.ingest = fleet::IngestMode::kNodePower;
  config.database.max_insert_rate_per_second = 0.0;
  moneq::MemoryOutput output;
  config.output = &output;

  FleetRunner runner;
  ASSERT_TRUE(runner.configure(std::move(config)).is_ok());
  ASSERT_TRUE(runner.run().is_ok());
  const obs::FleetTelemetry& telemetry = runner.telemetry();

  EXPECT_EQ(telemetry.node_count(), 12);
  EXPECT_EQ(telemetry.folds(), 4u);  // one fold per epoch
  EXPECT_EQ(telemetry.merge_skipped(), 0u);

  // The last fold read the node registries as they stand after the run,
  // so the rollup is their rank-order merge.
  obs::Snapshot fleet;
  for (int rank = 0; rank < telemetry.node_count(); ++rank) {
    obs::merge_snapshot(fleet, telemetry.node_registry(rank).snapshot());
  }
  EXPECT_EQ(obs::export_json(telemetry.fleet_rollup()), obs::export_json(fleet));

  // The fleet counter is the sum of the per-node registries: per-node
  // attribution survives the rollup.
  std::uint64_t node_sum = 0;
  for (int rank = 0; rank < telemetry.node_count(); ++rank) {
    for (const auto& c : telemetry.node_registry(rank).snapshot().counters) {
      if (c.name == "envmon_profiler_polls_total") node_sum += c.value;
    }
  }
  EXPECT_GT(node_sum, 0u);
  std::uint64_t fleet_value = 0;
  for (const auto& c : telemetry.fleet_rollup().counters) {
    if (c.name == "envmon_profiler_polls_total") fleet_value = c.value;
  }
  EXPECT_EQ(fleet_value, node_sum);
}

TEST(FleetTelemetry, FleetRunnerNodesFoldPositionallyAfterTheFirstFold) {
  // Every node gets the same capabilities and registers all of its
  // series at configure time, so only rank 0's first fold into empty
  // rows is keyed: each node's keys are compared once, rank 0's twice.
  // A lazily registered per-node series would add checks here.
  FleetConfig config;
  config.nodes = 40;
  config.capabilities = {moneq::Capability::kBgqEmon, moneq::Capability::kRaplMsr,
                         moneq::Capability::kNvml, moneq::Capability::kMicDaemon};
  config.epoch = Duration::seconds(1);
  config.horizon = Duration::seconds(3);
  config.polling_interval = Duration::millis(500);
  config.ingest = fleet::IngestMode::kNodePower;
  config.database.max_insert_rate_per_second = 0.0;

  FleetRunner runner;
  ASSERT_TRUE(runner.configure(std::move(config)).is_ok());
  ASSERT_TRUE(runner.run().is_ok());
  const obs::FleetTelemetry& telemetry = runner.telemetry();
  EXPECT_EQ(telemetry.folds(), 3u);
  EXPECT_EQ(telemetry.key_checks(), 40u + 1u);
  EXPECT_EQ(telemetry.merge_skipped(), 0u);
}

TEST(FleetTelemetry, SelfScrapeRowsAreQueryableAndBypassRateCeiling) {
  FleetConfig config;
  config.nodes = 4;
  config.capabilities = {moneq::Capability::kBgqEmon};
  config.epoch = Duration::seconds(1);
  config.horizon = Duration::seconds(4);
  config.polling_interval = Duration::millis(500);
  // Per-sample ingest against a starved rate ceiling: most node rows get
  // rate-limited, while every self-scrape row must still land.
  config.ingest = fleet::IngestMode::kPerSample;
  config.database.max_insert_rate_per_second = 1.0;
  moneq::MemoryOutput output;
  config.output = &output;

  FleetRunner runner;
  ASSERT_TRUE(runner.configure(std::move(config)).is_ok());
  ASSERT_TRUE(runner.run().is_ok());
  const auto report = runner.report().value();
  ASSERT_GT(report.self_scrape_rows, 0u);
  // The ceiling bit: real node traffic was rejected, self rows were not.
  EXPECT_GT(report.rejected_rate_limited, 0u);

  // One row per epoch for a fleet-level counter, at the reserved rack.
  tsdb::QueryFilter filter;
  filter.metric = "envmon.self.envmon_profiler_polls_total";
  const auto rows = runner.database().query(filter);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(report.epochs));
  std::uint64_t epoch = 1;
  double previous = -1.0;
  for (const auto& row : rows) {
    EXPECT_EQ(row.location, tsdb::rack_location(fleet::kSelfTelemetryRack));
    EXPECT_EQ(row.timestamp, SimTime::from_seconds(static_cast<double>(epoch)));
    EXPECT_GE(row.value, previous);  // counters only grow
    previous = row.value;
    ++epoch;
  }
  // The last scrape equals the final fleet rollup: the scrape *is* the
  // rollup, rendered as records.
  std::uint64_t fleet_value = 0;
  for (const auto& c : runner.telemetry().fleet_rollup().counters) {
    if (c.name == "envmon_profiler_polls_total") fleet_value = c.value;
  }
  EXPECT_GT(fleet_value, 0u);
  EXPECT_DOUBLE_EQ(rows.back().value, static_cast<double>(fleet_value));

  // Flat-scan oracle: the aggregate over the same filter sees exactly the
  // rows query() returned, and a location-ranged scan under the reserved
  // rack returns only envmon.self.* series.
  const auto agg = runner.database().aggregate(filter);
  EXPECT_EQ(agg.count, rows.size());
  EXPECT_DOUBLE_EQ(agg.max, rows.back().value);
  tsdb::QueryFilter rack_filter;
  rack_filter.location_prefix = tsdb::rack_location(fleet::kSelfTelemetryRack);
  const auto self_rows = runner.database().query(rack_filter);
  EXPECT_EQ(self_rows.size(), report.self_scrape_rows);
  for (const auto& row : self_rows) {
    EXPECT_TRUE(tsdb::is_self_metric(row.metric)) << row.metric;
  }
}

// ---------------------------------------------------------------------------
// The tsdb end of the reserved namespace, in isolation.

TEST(SelfNamespace, RecordsBypassAndDoNotConsumeRateBudget) {
  EXPECT_TRUE(tsdb::is_self_metric("envmon.self.envmon_profiler_polls_total"));
  EXPECT_FALSE(tsdb::is_self_metric("input_power_watts"));
  EXPECT_FALSE(tsdb::is_self_metric("envmon.selfish"));

  tsdb::DatabaseOptions options;
  options.max_insert_rate_per_second = 1.0;  // budget: 60 rows / 60 s window
  tsdb::EnvDatabase db(options);
  const tsdb::Location loc = tsdb::card_location(0, 0, 0, 0);

  // 200 self rows sail past a ceiling that allows only 60 normal rows.
  for (int i = 0; i < 200; ++i) {
    const tsdb::Record record{SimTime::from_ns((i) * 1'000'000), loc, "envmon.self.test_total",
                              static_cast<double>(i)};
    ASSERT_TRUE(db.insert(record).is_ok()) << "self row " << i << " rejected";
  }
  // ...and consumed none of the budget: 30 normal rows still fit.
  for (int i = 0; i < 30; ++i) {
    const tsdb::Record record{SimTime::from_ns((200 + i) * 1'000'000), loc, "input_power_watts",
                              1.0};
    ASSERT_TRUE(db.insert(record).is_ok()) << "normal row " << i << " rejected";
  }
  // The ceiling still applies to normal traffic: pushing well past the
  // window budget gets rejected with kResourceExhausted.
  std::size_t rejected = 0;
  for (int i = 0; i < 60; ++i) {
    const tsdb::Record record{SimTime::from_ns((230 + i) * 1'000'000), loc, "input_power_watts",
                              1.0};
    const Status status = db.insert(record);
    if (!status.is_ok()) {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(db.size(), 200u + 30u + (60u - rejected));

  // Batch path: a mixed batch rate-limits only the normal rows.
  std::vector<tsdb::Record> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back({SimTime::from_ns((300 + i) * 1'000'000), loc, "envmon.self.test_total", 1.0});
  }
  for (int i = 0; i < 10; ++i) {
    batch.push_back({SimTime::from_ns((310 + i) * 1'000'000), loc, "input_power_watts", 1.0});
  }
  const auto result = db.insert_batch(batch);
  EXPECT_GE(result.accepted, 10u);  // every self row landed
  EXPECT_EQ(result.accepted + result.rejected_rate_limited, 20u);
  EXPECT_GT(result.rejected_rate_limited, 0u);
}

}  // namespace
}  // namespace envmon
