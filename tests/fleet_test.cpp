// The fleet engine's contract: same seed → byte-identical output no
// matter how many worker threads advanced the fleet.  These tests are
// also the TSan workload for the engine (ctest -L fleet with
// -DENVMON_TSAN=ON): every assertion doubles as a data-race probe on the
// epoch barrier, the staging buffers, and the ingest queue.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fleet/api.hpp"
#include "moneq/factory.hpp"
#include "moneq/output.hpp"
#include "obs/metrics.hpp"
#include "tsdb/export.hpp"

namespace envmon {
namespace {

using fleet::FleetConfig;
using fleet::FleetRunner;
using sim::Duration;
using sim::SimTime;

// One complete fleet run; returns {concatenated node files, db csv}.
struct RunOutput {
  std::string files;
  std::string db_csv;
  fleet::FleetReport report;
};

RunOutput run_fleet(FleetConfig config) {
  moneq::MemoryOutput output;
  config.output = &output;
  FleetRunner runner;
  EXPECT_TRUE(runner.configure(std::move(config)).is_ok());
  EXPECT_TRUE(runner.run().is_ok());
  RunOutput out;
  for (const auto& [name, content] : output.files()) {
    out.files += "== " + name + "\n" + content;
  }
  out.db_csv = tsdb::export_csv(runner.database());
  const auto report = runner.report();
  EXPECT_TRUE(report.is_ok());
  out.report = report.value();
  return out;
}

FleetConfig small_fleet() {
  FleetConfig config;
  config.nodes = 12;
  config.capabilities = {moneq::Capability::kBgqEmon, moneq::Capability::kRaplMsr};
  config.epoch = Duration::seconds(1);
  config.horizon = Duration::seconds(8);
  config.polling_interval = Duration::millis(500);
  config.seed = 0xfee7f1ee7ull;
  // Per-sample ingest exercises the heaviest merge path.
  config.ingest = fleet::IngestMode::kPerSample;
  config.database.max_insert_rate_per_second = 1u << 20;  // not under test here
  return config;
}

TEST(Fleet, OneThreadRunProducesData) {
  const RunOutput out = run_fleet(small_fleet());
  EXPECT_EQ(out.report.nodes, 12);
  EXPECT_EQ(out.report.threads, 1);
  EXPECT_EQ(out.report.epochs, 8u);
  EXPECT_GT(out.report.polls, 0u);
  EXPECT_GT(out.report.samples, 0u);
  EXPECT_GT(out.report.records_staged, 0u);
  // Every staged record must land: per-node streams are time-ordered and
  // the barrier merge sorts across nodes, so nothing is out of order.
  EXPECT_EQ(out.report.records_applied, out.report.records_staged);
  EXPECT_EQ(out.report.rejected_out_of_order, 0u);
  EXPECT_EQ(out.report.database_rows, out.report.records_applied);
  EXPECT_NE(out.files.find("== moneq_node_00000.csv"), std::string::npos);
  EXPECT_NE(out.db_csv.find("moneq_"), std::string::npos);
}

TEST(Fleet, DeterministicAcrossThreadCounts) {
  const RunOutput one = run_fleet(small_fleet());
  for (const int threads : {2, 8}) {
    FleetConfig config = small_fleet();
    config.threads = threads;
    const RunOutput many = run_fleet(std::move(config));
    EXPECT_EQ(one.files, many.files) << threads << " threads: node files diverged";
    EXPECT_EQ(one.db_csv, many.db_csv) << threads << " threads: database diverged";
    EXPECT_EQ(one.report.samples, many.report.samples);
    EXPECT_EQ(one.report.records_applied, many.report.records_applied);
  }
}

TEST(Fleet, NodePowerIngestIsDeterministicToo) {
  FleetConfig base = small_fleet();
  base.ingest = fleet::IngestMode::kNodePower;
  const RunOutput one = run_fleet(base);
  EXPECT_GT(one.report.records_applied, 0u);
  // Aggregate mode stages far fewer records than per-sample mode.
  EXPECT_LT(one.report.records_applied, run_fleet(small_fleet()).report.records_applied);
  FleetConfig eight = small_fleet();
  eight.ingest = fleet::IngestMode::kNodePower;
  eight.threads = 8;
  const RunOutput many = run_fleet(std::move(eight));
  EXPECT_EQ(one.db_csv, many.db_csv);
}

TEST(Fleet, FaultStormIsDeterministicUnderEightThreads) {
  // Storm: every third node loses its RAPL MSR for good mid-run, every
  // fourth sees a transient EMON outage.  Schedules are per-node virtual
  // time, so the storm replays identically at any worker count.
  auto storm = [](fault::Injector& injector, int node) {
    if (node % 3 == 0) {
      injector.kill_at(fault::sites::kRaplMsr, SimTime::from_seconds(3));
    }
    if (node % 4 == 0) {
      injector.fail_between(fault::sites::kEmon, SimTime::from_seconds(2),
                            SimTime::from_seconds(5), StatusCode::kUnavailable,
                            "emon generation stalled");
    }
  };
  FleetConfig base = small_fleet();
  base.nodes = 16;
  base.fault_script = storm;
  const RunOutput two = [&] {
    FleetConfig config = base;
    config.threads = 2;
    return run_fleet(std::move(config));
  }();
  const RunOutput eight = [&] {
    FleetConfig config = base;
    config.threads = 8;
    return run_fleet(std::move(config));
  }();
  EXPECT_GT(two.report.degraded_polls, 0u);
  EXPECT_GT(two.report.gap_markers, 0u);
  EXPECT_EQ(two.files, eight.files);
  EXPECT_EQ(two.db_csv, eight.db_csv);
  EXPECT_EQ(two.report.degraded_polls, eight.report.degraded_polls);
  EXPECT_EQ(two.report.gap_markers, eight.report.gap_markers);
}

// FNV-1a over the whole output: cheap to compare across runs without
// holding three copies of a multi-thousand-node fleet's files.
std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

TEST(Fleet, LargeFleetIsByteIdenticalAcrossThreadCounts) {
  // The 100k-scale oracle at test size: >= 4096 nodes under the PR-3
  // fault storm, work-stealing scheduler with real epoch skew, node
  // files + database digests byte-identical at 1, 2, and 8 threads.
  auto storm = [](fault::Injector& injector, int node) {
    if (node % 3 == 0) {
      injector.kill_at(fault::sites::kRaplMsr, SimTime::from_seconds(1));
    }
    if (node % 4 == 0) {
      injector.fail_between(fault::sites::kEmon, SimTime::from_seconds(1),
                            SimTime::from_seconds(2), StatusCode::kUnavailable,
                            "emon generation stalled");
    }
  };
  auto config_for = [&](int threads) {
    FleetConfig config;
    config.nodes = 4096;
    config.threads = threads;
    config.capabilities = {moneq::Capability::kBgqEmon, moneq::Capability::kRaplMsr};
    config.epoch = Duration::seconds(1);
    config.horizon = Duration::seconds(3);
    config.polling_interval = Duration::millis(500);
    config.seed = 0xfee7f1ee7ull;
    config.ingest = fleet::IngestMode::kNodePower;
    config.database.max_insert_rate_per_second = 1u << 20;
    config.fault_script = storm;
    return config;
  };

  std::uint64_t file_digest = 0;
  std::uint64_t db_digest = 0;
  fleet::FleetReport baseline;
  for (const int threads : {1, 2, 8}) {
    const RunOutput out = run_fleet(config_for(threads));
    EXPECT_EQ(out.report.threads, threads);
    if (threads == 1) {
      EXPECT_EQ(out.report.shards, 1);
      file_digest = fnv1a(out.files);
      db_digest = fnv1a(out.db_csv);
      baseline = out.report;
      EXPECT_GT(baseline.degraded_polls, 0u);
      EXPECT_GT(baseline.gap_markers, 0u);
      continue;
    }
    // Multi-thread runs over-partition so idle workers can steal.
    EXPECT_GT(out.report.shards, threads);
    EXPECT_EQ(fnv1a(out.files), file_digest) << threads << " threads: node files diverged";
    EXPECT_EQ(fnv1a(out.db_csv), db_digest) << threads << " threads: database diverged";
    EXPECT_EQ(out.report.samples, baseline.samples);
    EXPECT_EQ(out.report.degraded_polls, baseline.degraded_polls);
    EXPECT_EQ(out.report.gap_markers, baseline.gap_markers);
    EXPECT_EQ(out.report.liveness_transitions, baseline.liveness_transitions);
    EXPECT_EQ(out.report.nodes_alive, baseline.nodes_alive);
  }
  // The storm quarantines backends, never whole nodes: each node keeps a
  // live backend, so the detector holds the entire fleet Alive.
  EXPECT_EQ(baseline.nodes_alive, 4096);
  EXPECT_EQ(baseline.nodes_dead, 0);
  EXPECT_EQ(baseline.liveness_transitions, 4096u);
}

TEST(Fleet, ReportCarriesSchedulerAndMemoryAccounting) {
  // The shard count is automatic: min(nodes, 4 x threads).
  FleetConfig config = small_fleet();
  config.threads = 2;
  EXPECT_EQ(run_fleet(config).report.shards, 8);
  config.threads = 4;
  const RunOutput out = run_fleet(std::move(config));
  EXPECT_EQ(out.report.shards, 12);
  EXPECT_EQ(out.report.nodes_alive, 12);
  EXPECT_EQ(out.report.liveness_transitions, 12u);
  // Linux hosts report RSS; the per-node share derives from it.
  if (out.report.rss_bytes > 0) {
    EXPECT_GE(out.report.peak_rss_bytes, out.report.rss_bytes);
    EXPECT_GT(out.report.bytes_per_node, 0.0);
  }
}

TEST(Fleet, EpochTimerObservesOnlyMergeToMergeIntervals) {
  // The epoch histogram is process-global; read this run's share as a
  // delta.  The first merge starts the clock, so E epochs give E - 1
  // samples and none of them covers building the nodes.
  ASSERT_TRUE(obs::enabled());
  const obs::Histogram& epoch_seconds = obs::default_registry().histogram(
      "envmon_fleet_epoch_seconds", "Wall time between fleet epoch merges",
      obs::Histogram::exponential_bounds(1e-5, 4.0, 12));
  const std::uint64_t before = epoch_seconds.count();
  const RunOutput out = run_fleet(small_fleet());
  ASSERT_EQ(out.report.epochs, 8u);
  EXPECT_EQ(epoch_seconds.count() - before, 7u);
}

// A durable fleet store: open() between configure() and run(), over a
// horizon long enough for the ingest thread's 64-batch seal/flush
// schedule to fire.  Returns the store's CSV as the run left it; the
// runner is destroyed on return, after close() or — the crash model —
// without it.
std::string run_durable_fleet(const std::string& dir, bool close) {
  FleetConfig config;
  config.nodes = 4;
  config.capabilities = {moneq::Capability::kBgqEmon};
  config.epoch = Duration::seconds(1);
  config.horizon = Duration::seconds(72);
  config.ingest = fleet::IngestMode::kNodePower;
  config.database.max_insert_rate_per_second = 0.0;
  FleetRunner runner;
  EXPECT_TRUE(runner.configure(std::move(config)).is_ok());
  EXPECT_TRUE(runner.database().open(dir).is_ok());
  EXPECT_TRUE(runner.run().is_ok());
  EXPECT_GT(runner.report().value().epochs, fleet::IngestWorker::kSealInterval);
  std::string csv = tsdb::export_csv(runner.database());
  if (close) {
    EXPECT_TRUE(runner.database().close().is_ok());
  }
  return csv;
}

TEST(Fleet, DurableStoreReopensByteIdenticalAfterCloseAndCrash) {
  for (const bool close : {true, false}) {
    SCOPED_TRACE(close ? "after close()" : "after a crash");
    char tmpl[] = "/tmp/envmon_fleet_XXXXXX";
    const std::string dir = ::mkdtemp(tmpl);
    const std::string live = run_durable_fleet(dir, close);
    EXPECT_NE(live.find("moneq_node_power_watts"), std::string::npos);
    EXPECT_NE(live.find("envmon.self."), std::string::npos);
    {
      tsdb::EnvDatabase reopened;
      ASSERT_TRUE(reopened.open(dir).is_ok());
      EXPECT_TRUE(reopened.recovery_info().recovered);
      EXPECT_EQ(tsdb::export_csv(reopened), live);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

TEST(Fleet, IngestQueueBackpressureBlocksProducer) {
  fleet::IngestQueue queue(1);
  ASSERT_TRUE(queue.push({.epoch = 0, .nodes = {}, .rows = 0}));
  std::atomic<bool> second_push_done{false};
  std::thread producer([&] {
    ASSERT_TRUE(queue.push({.epoch = 1, .nodes = {}, .rows = 0}));
    second_push_done.store(true);
  });
  // The queue is full: the producer must park until we pop.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_push_done.load());
  EXPECT_EQ(queue.depth(), 1u);
  auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->epoch, 0u);
  producer.join();
  EXPECT_TRUE(second_push_done.load());
  EXPECT_EQ(queue.stalls(), 1u);
  EXPECT_GT(queue.stall_seconds(), 0.0);
}

TEST(Fleet, IngestQueueCloseDrainsThenEnds) {
  fleet::IngestQueue queue(4);
  ASSERT_TRUE(queue.push({.epoch = 7, .nodes = {}, .rows = 0}));
  queue.close();
  EXPECT_FALSE(queue.push({.epoch = 8, .nodes = {}, .rows = 0}));
  auto drained = queue.pop();
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->epoch, 7u);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(Fleet, RunnerLifecycleIsEnforced) {
  FleetRunner runner;
  EXPECT_EQ(runner.run().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(runner.report().status().code(), StatusCode::kFailedPrecondition);
  FleetConfig config = small_fleet();
  config.horizon = Duration::seconds(1);
  ASSERT_TRUE(runner.configure(config).is_ok());
  EXPECT_EQ(runner.configure(config).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(runner.run().is_ok());
  EXPECT_EQ(runner.run().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(runner.report().is_ok());
}

TEST(Fleet, ConfigValidationRejectsNonsense) {
  auto expect_invalid = [](FleetConfig config) {
    FleetRunner runner;
    EXPECT_EQ(runner.configure(std::move(config)).code(), StatusCode::kInvalidArgument);
  };
  {
    FleetConfig config;
    config.nodes = 0;
    expect_invalid(std::move(config));
  }
  {
    FleetConfig config;
    config.threads = 0;
    expect_invalid(std::move(config));
  }
  {
    FleetConfig config;
    config.epoch = Duration::nanos(0);
    expect_invalid(std::move(config));
  }
  {
    FleetConfig config;
    config.capabilities.clear();
    expect_invalid(std::move(config));
  }
}

TEST(Fleet, FactoryRejectsMissingSubstrate) {
  const moneq::BackendConfig empty;
  for (const auto capability :
       {moneq::Capability::kBgqEmon, moneq::Capability::kRaplMsr, moneq::Capability::kNvml,
        moneq::Capability::kMicSysMgmt, moneq::Capability::kMicDaemon}) {
    const auto result = moneq::make_backend(capability, empty);
    EXPECT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Fleet, ApiVersionIsV2) {
  EXPECT_EQ(fleet::api_version_string(), "envmon.fleet/v2.1");
  EXPECT_EQ(fleet::kApiVersionMajor, 2);
  EXPECT_EQ(fleet::kApiVersionMinor, 1);
}

}  // namespace
}  // namespace envmon
