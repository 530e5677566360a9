// Graceful degradation under injected faults: the health state machine's
// transitions, the bounded retry budget, gap markers surviving the
// round trip through the node-file CSV, each instrumented surface
// honoring its fault hook, and a seeded fault storm that kills one
// backend of three while the survivors keep collecting.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bgq/emon.hpp"
#include "bgq/machine.hpp"
#include "fault/injector.hpp"
#include "ipmi/bmc.hpp"
#include "mic/micras.hpp"
#include "moneq/backend_bgq.hpp"
#include "moneq/backend_mic.hpp"
#include "moneq/backend_nvml.hpp"
#include "moneq/csv_reader.hpp"
#include "moneq/health.hpp"
#include "moneq/output.hpp"
#include "moneq/profiler.hpp"
#include "nvml/api.hpp"
#include "rapl/reader.hpp"
#include "tsdb/database.hpp"
#include "workloads/library.hpp"

namespace envmon {
namespace {

using sim::Duration;
using sim::SimTime;
using moneq::BackendHealth;
using moneq::BackendState;
using moneq::DegradationPolicy;

DegradationPolicy tight_policy() {
  DegradationPolicy policy;
  policy.retries_per_poll = 0;
  policy.polls_to_quarantine = 2;
  policy.backoff_base = Duration::seconds(1);
  policy.backoff_factor = 2.0;
  policy.backoff_cap = Duration::seconds(4);
  return policy;
}

TEST(BackendHealth, TransitionsThroughQuarantineAndRecovery) {
  BackendHealth health(tight_policy());
  EXPECT_EQ(health.state(), BackendState::kHealthy);

  health.on_poll_failure(SimTime::from_seconds(0.0));
  EXPECT_EQ(health.state(), BackendState::kDegraded);
  EXPECT_EQ(health.consecutive_failures(), 1);

  health.on_poll_failure(SimTime::from_seconds(0.1));
  EXPECT_EQ(health.state(), BackendState::kQuarantined);
  EXPECT_EQ(health.quarantined_until(), SimTime::from_seconds(1.1));
  EXPECT_FALSE(health.should_poll(SimTime::from_seconds(1.0)));
  EXPECT_TRUE(health.should_poll(SimTime::from_seconds(1.1)));  // the probe

  // Probe fails: re-quarantine with doubled backoff.
  health.on_poll_failure(SimTime::from_seconds(1.1));
  EXPECT_EQ(health.state(), BackendState::kQuarantined);
  EXPECT_EQ(health.quarantined_until(), SimTime::from_seconds(3.1));

  // Probe answers: recovered, then healthy on the next success — and the
  // backoff resets, so a fresh quarantine starts at the base again.
  health.on_poll_success(SimTime::from_seconds(3.1));
  EXPECT_EQ(health.state(), BackendState::kRecovered);
  health.on_poll_success(SimTime::from_seconds(3.2));
  EXPECT_EQ(health.state(), BackendState::kHealthy);
  health.on_poll_failure(SimTime::from_seconds(5.0));
  health.on_poll_failure(SimTime::from_seconds(5.1));
  EXPECT_EQ(health.quarantined_until(), SimTime::from_seconds(6.1));
}

TEST(BackendHealth, BackoffDoublesUpToCap) {
  BackendHealth health(tight_policy());
  health.on_poll_failure(SimTime::from_seconds(0.0));
  health.on_poll_failure(SimTime::from_seconds(0.1));  // quarantine, 1 s
  SimTime probe = health.quarantined_until();
  std::vector<double> windows;
  for (int i = 0; i < 4; ++i) {
    health.on_poll_failure(probe);  // failed probe
    windows.push_back((health.quarantined_until() - probe).to_seconds());
    probe = health.quarantined_until();
  }
  EXPECT_EQ(windows, (std::vector<double>{2.0, 4.0, 4.0, 4.0}));  // capped at 4 s
}

TEST(BackendHealth, RetryBudgetExhaustionStopsRetries) {
  DegradationPolicy policy;
  policy.retries_per_poll = 3;
  policy.retry_budget = Duration::millis(10);
  BackendHealth health(policy);

  EXPECT_TRUE(health.may_retry(0));
  EXPECT_FALSE(health.may_retry(3));  // per-poll bound
  health.spend_retry(Duration::millis(6));
  EXPECT_TRUE(health.may_retry(0));  // 6 ms < 10 ms: room left
  health.spend_retry(Duration::millis(6));
  EXPECT_FALSE(health.may_retry(0));  // budget gone, for good
  EXPECT_EQ(health.retries(), 2u);
  EXPECT_EQ(health.retry_budget_spent(), Duration::millis(12));
}

TEST(Resilience, ProfilerQuarantinesAndRecoversAroundFaultWindow) {
  sim::Engine engine;
  fault::Injector injector(engine);
  mic::PhiCard card(engine);
  mic::MicrasDaemon daemon(card);
  daemon.start();
  daemon.attach_fault_hook(injector);
  injector.fail_between(fault::sites::kMicras, SimTime::from_seconds(2),
                        SimTime::from_seconds(4), StatusCode::kUnavailable,
                        "daemon restarting");

  moneq::MicDaemonBackend backend(daemon);
  smpi::World world(1);
  moneq::NodeProfiler profiler(engine, world, 0);
  ASSERT_TRUE(profiler.add_backend(backend).is_ok());
  ASSERT_TRUE(profiler.set_polling_interval(Duration::millis(200)).is_ok());
  ASSERT_TRUE(profiler.initialize().is_ok());

  // Defaults: quarantine after 3 failed polls (2.0, 2.2, 2.4 s), probe
  // at 3.4 s still lands in the window, so backoff doubles; the probe at
  // 5.4 s answers and collection resumes.
  engine.run_until(SimTime::from_seconds(3));
  EXPECT_EQ(profiler.backend_health(0).state(), BackendState::kQuarantined);
  const std::size_t during_outage = profiler.samples().size();

  engine.run_until(SimTime::from_seconds(7));
  ASSERT_TRUE(profiler.finalize().is_ok());
  EXPECT_EQ(profiler.backend_health(0).state(), BackendState::kHealthy);
  EXPECT_GT(profiler.samples().size(), during_outage);
  EXPECT_GT(profiler.degraded_polls(), 0u);

  // One contiguous gap: opened at the first failed poll, closed when the
  // successful probe at 5.4 s brought the backend back.
  ASSERT_EQ(profiler.gaps().size(), 2u);
  EXPECT_TRUE(profiler.gaps()[0].is_start);
  EXPECT_EQ(profiler.gaps()[0].backend, "mic_micras_daemon");
  EXPECT_EQ(profiler.gaps()[0].reason, "daemon restarting");
  EXPECT_DOUBLE_EQ(profiler.gaps()[0].t.to_seconds(), 2.0);
  EXPECT_FALSE(profiler.gaps()[1].is_start);
  EXPECT_DOUBLE_EQ(profiler.gaps()[1].t.to_seconds(), 5.4);
}

TEST(Resilience, GapMarkersRoundTripThroughCsvReader) {
  sim::Engine engine;
  fault::Injector injector(engine);
  mic::PhiCard card(engine);
  mic::MicrasDaemon daemon(card);
  daemon.start();
  daemon.attach_fault_hook(injector);
  // The outage outlives the run: finalize() must close the open gap so
  // the file stays balanced.
  injector.fail_between(fault::sites::kMicras, SimTime::from_seconds(1),
                        SimTime::from_seconds(100), StatusCode::kUnavailable,
                        "card fell off the bus");

  moneq::MicDaemonBackend backend(daemon);
  smpi::World world(1);
  moneq::NodeProfiler profiler(engine, world, 0);
  ASSERT_TRUE(profiler.add_backend(backend).is_ok());
  ASSERT_TRUE(profiler.set_polling_interval(Duration::millis(200)).is_ok());
  ASSERT_TRUE(profiler.initialize().is_ok());
  engine.run_until(SimTime::from_seconds(3));

  moneq::MemoryOutput out;
  ASSERT_TRUE(profiler.finalize(nullptr, &out).is_ok());
  const auto parsed = moneq::parse_node_file(out.files().at(moneq::node_file_name(0)));
  ASSERT_TRUE(parsed.is_ok());

  const auto& gaps = parsed.value().gaps;
  ASSERT_EQ(gaps.size(), profiler.gaps().size());
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_TRUE(gaps[0].is_start);
  EXPECT_EQ(gaps[0].backend, "mic_micras_daemon");
  EXPECT_EQ(gaps[0].reason, "card fell off the bus");
  EXPECT_DOUBLE_EQ(gaps[0].t.to_seconds(), 1.0);
  EXPECT_FALSE(gaps[1].is_start);
  EXPECT_DOUBLE_EQ(gaps[1].t.to_seconds(), 3.0);  // closed at finalize
  // The samples before the outage parsed back too: a gap marks missing
  // data, it does not eat the data that exists.
  EXPECT_EQ(parsed.value().samples.size(), profiler.samples().size());
}

TEST(Resilience, RaplMsrHookFailsDelaysAndCorrupts) {
  sim::Engine engine;
  fault::Injector injector(engine);
  rapl::CpuPackage package(engine);
  rapl::MsrRaplReader reader(package, rapl::Credentials{true, 0});
  reader.attach_fault_hook(injector);

  ASSERT_TRUE(reader.read_energy(rapl::RaplDomain::kPackage, engine.now()).is_ok());

  injector.fail_next(fault::sites::kRaplMsr, StatusCode::kPermissionDenied,
                     "msr mode reverted");
  const auto denied = reader.read_energy(rapl::RaplDomain::kPackage, engine.now());
  ASSERT_FALSE(denied.is_ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);

  // A latency spike is charged to the reader's meter even though the
  // read succeeds.
  const Duration before = reader.cost().total();
  injector.delay_between(fault::sites::kRaplMsr, engine.now(),
                         engine.now() + Duration::seconds(1), Duration::millis(5));
  ASSERT_TRUE(reader.read_energy(rapl::RaplDomain::kPackage, engine.now()).is_ok());
  EXPECT_GE((reader.cost().total() - before).to_millis(), 5.0);
  engine.run_until(engine.now() + Duration::seconds(2));

  // Stuck-at-zero corruption lands on the raw counter.
  injector.corrupt_between(fault::sites::kRaplMsr, engine.now(),
                           engine.now() + Duration::seconds(1), 0.0);
  const auto stuck = reader.read_energy(rapl::RaplDomain::kPackage, engine.now());
  ASSERT_TRUE(stuck.is_ok());
  EXPECT_EQ(stuck.value().raw, 0u);
}

TEST(Resilience, NvmlHookMapsInjectedStatusToNvmlReturns) {
  sim::Engine engine;
  fault::Injector injector(engine);
  nvml::NvmlLibrary library(engine);
  library.attach_device(std::make_shared<nvml::GpuDevice>(nvml::k20_spec()));
  library.attach_fault_hook(injector);
  ASSERT_EQ(library.init(), nvml::NvmlReturn::kSuccess);
  nvml::NvmlDeviceHandle handle;
  ASSERT_EQ(library.device_get_handle_by_index(0, &handle), nvml::NvmlReturn::kSuccess);

  unsigned mw = 0;
  injector.fail_next(fault::sites::kNvml, StatusCode::kUnsupported, "no such counter");
  EXPECT_EQ(library.device_get_power_usage(handle, &mw), nvml::NvmlReturn::kNotSupported);
  injector.fail_next(fault::sites::kNvml, StatusCode::kUnavailable, "fell off the bus");
  EXPECT_EQ(library.device_get_power_usage(handle, &mw), nvml::NvmlReturn::kGpuIsLost);
  EXPECT_EQ(library.device_get_power_usage(handle, &mw), nvml::NvmlReturn::kSuccess);
  EXPECT_GT(mw, 0u);
}

TEST(Resilience, TsdbHookRejectsInsertsDuringOutage) {
  sim::Engine engine;
  fault::Injector injector(engine);
  tsdb::EnvDatabase db;
  db.attach_fault_hook(injector);
  const tsdb::Location loc{0, 0, 4, 17};

  ASSERT_TRUE(db.insert({SimTime::from_seconds(1), loc, "input_power_watts", 100.0}).is_ok());

  injector.fail_next(fault::sites::kTsdb, StatusCode::kUnavailable, "db2 server down");
  const Status rejected =
      db.insert({SimTime::from_seconds(2), loc, "input_power_watts", 101.0});
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(db.rejected_inserts(), 1u);
  EXPECT_EQ(db.size(), 1u);

  // A whole batch is lost to one outage window: the bulk INSERT fails as
  // a unit, not row by row.
  std::vector<tsdb::Record> batch{
      {SimTime::from_seconds(3), loc, "input_power_watts", 102.0},
      {SimTime::from_seconds(3), loc, "coolant_flow_lpm", 7.0},
  };
  injector.fail_next(fault::sites::kTsdb, StatusCode::kUnavailable, "db2 server down");
  const auto result = db.insert_batch(batch);
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_EQ(result.rejected_unavailable, 2u);
  EXPECT_FALSE(result.all_accepted());
  EXPECT_EQ(db.size(), 1u);
}

// --- Fault storm: three backends, NVML killed mid-run ------------------
//
// The storm exercises every fault kind the injector scripts: a transient
// error on the first poll, seeded flapping, latency spikes, corrupt
// readings, then permanent device loss.  Everything runs on virtual
// time, so every gate below is deterministic.

constexpr double kStormRunSeconds = 30.0;
constexpr std::uint64_t kStormSeed = 42;

struct StormRun {
  std::string file;  // rendered node file
  std::vector<moneq::GapMarker> gaps;
  Duration collection{};
  std::uint64_t degraded_polls = 0;
  std::uint64_t injected_total = 0;
  BackendState nvml_state = BackendState::kHealthy;
};

StormRun run_storm_node(bool storm) {
  sim::Engine engine;
  fault::Injector injector(engine, kStormSeed);

  // Survivors: the EMON session and the MICRAS daemon.
  bgq::BgqMachine machine;
  bgq::EmonSession emon(machine.board(0));
  moneq::BgqBackend bgq_backend(emon);
  mic::PhiCard card(engine);
  mic::MicrasDaemon daemon(card);
  daemon.start();
  moneq::MicDaemonBackend mic_backend(daemon);

  // The victim: an NVML board.
  nvml::NvmlLibrary library(engine);
  library.attach_device(std::make_shared<nvml::GpuDevice>(nvml::k20_spec()));
  (void)library.init();
  nvml::NvmlDeviceHandle handle;
  (void)library.device_get_handle_by_index(0, &handle);
  moneq::NvmlBackend nvml_backend(library, handle);

  if (storm) {
    // Survivors keep their hooks attached with nothing scripted — an
    // attached-but-clean site must behave exactly like a detached one.
    emon.attach_fault_hook(injector);
    daemon.attach_fault_hook(injector);
    library.attach_fault_hook(injector);

    injector.fail_next(fault::sites::kNvml, StatusCode::kUnavailable,
                       "transient driver hiccup");
    injector.flap_between(fault::sites::kNvml, SimTime::from_seconds(3),
                          SimTime::from_seconds(8), 0.35, StatusCode::kUnavailable,
                          "flaky driver");
    injector.delay_between(fault::sites::kNvml, SimTime::from_seconds(4),
                           SimTime::from_seconds(7), Duration::millis(2));
    injector.corrupt_between(fault::sites::kNvml, SimTime::from_seconds(8.4),
                             SimTime::from_seconds(9.6), 1.05);
    injector.kill_at(fault::sites::kNvml, SimTime::from_seconds(10),
                     "XID 79: GPU fell off the bus");
  }

  smpi::World world(1);
  moneq::NodeProfiler profiler(engine, world, 0);
  EXPECT_TRUE(profiler.add_backend(bgq_backend).is_ok());
  EXPECT_TRUE(profiler.add_backend(mic_backend).is_ok());
  EXPECT_TRUE(profiler.add_backend(nvml_backend).is_ok());
  EXPECT_TRUE(profiler.set_polling_interval(Duration::millis(600)).is_ok());
  EXPECT_TRUE(profiler.initialize().is_ok());

  engine.run_until(SimTime::from_seconds(kStormRunSeconds));
  moneq::MemoryOutput out;
  EXPECT_TRUE(profiler.finalize(nullptr, &out).is_ok());

  StormRun result;
  result.file = out.files().at(moneq::node_file_name(0));
  result.gaps = profiler.gaps();
  result.collection = profiler.overhead().collection;
  result.degraded_polls = profiler.degraded_polls();
  result.injected_total = injector.injected_total();
  result.nvml_state = profiler.backend_health(2).state();
  return result;
}

// Sample rows of the surviving backends: every data row whose domain is
// not one the NVML backend emits, excluding #TAG/#GAP sentinel rows.
// (The MICRAS die_temp rows share the NVML domain name, so they sit out
// the comparison; its seven other domains stay in.)
std::string surviving_rows(const std::string& file) {
  static const std::set<std::string> nvml_domains = {"board", "die_temp", "mem_used",
                                                     "mem_free", "fan"};
  std::ostringstream kept;
  std::istringstream lines(file);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string t, domain, quantity;
    if (!std::getline(fields, t, ',') || !std::getline(fields, domain, ',') ||
        !std::getline(fields, quantity, ',')) {
      continue;
    }
    if (!quantity.empty() && quantity.front() == '#') continue;  // tag / gap marker
    if (nvml_domains.contains(domain)) continue;
    kept << line << '\n';
  }
  return kept.str();
}

bool same_gaps(const std::vector<moneq::GapMarker>& a, const std::vector<moneq::GapMarker>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t || a[i].backend != b[i].backend || a[i].is_start != b[i].is_start ||
        a[i].reason != b[i].reason) {
      return false;
    }
  }
  return true;
}

TEST(Resilience, NvmlStormReplaysExactlyAndSparesSurvivors) {
  const StormRun clean = run_storm_node(false);
  const StormRun storm_a = run_storm_node(true);
  const StormRun storm_b = run_storm_node(true);  // same seed: must replay exactly

  // Deterministic replay: byte-identical node file, same gap markers.
  EXPECT_EQ(storm_a.file, storm_b.file);
  EXPECT_TRUE(same_gaps(storm_a.gaps, storm_b.gaps));

  // Blast-radius isolation: the survivors' rows match a fault-free run.
  const std::string clean_rows = surviving_rows(clean.file);
  EXPECT_FALSE(clean_rows.empty());
  EXPECT_EQ(clean_rows, surviving_rows(storm_a.file));

  // The storm actually bit: faults injected, gaps marked, the victim
  // still dark at shutdown.
  EXPECT_GT(storm_a.injected_total, 0u);
  EXPECT_FALSE(storm_a.gaps.empty());
  EXPECT_GT(storm_a.degraded_polls, 0u);
  EXPECT_EQ(moneq::to_string(storm_a.nvml_state), moneq::to_string(BackendState::kQuarantined));

  // Bounded overhead: the degradation policy's lifetime retry budget
  // plus every scripted stall (5 delayed polls x up to 5 NVML calls x
  // 2 ms) over the fault-free cost, and under 1% of the run.
  const Duration budget = DegradationPolicy{}.retry_budget + Duration::millis(50);
  EXPECT_LE(storm_a.collection.to_millis(), clean.collection.to_millis() + budget.to_millis());
  EXPECT_LT(storm_a.collection.to_seconds() / kStormRunSeconds, 0.01);
}

TEST(Resilience, IpmbHookDropsFrames) {
  sim::Engine engine;
  fault::Injector injector(engine);
  ipmi::Bmc bmc;
  bmc.attach_fault_hook(injector);

  injector.fail_next(fault::sites::kIpmb, StatusCode::kUnavailable, "bus stuck");
  const auto dropped = bmc.submit({0x01, 0x02});
  ASSERT_FALSE(dropped.is_ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(dropped.status().message(), "bus stuck");

  // With the fault spent, the same garbage frame reaches the BMC and is
  // rejected for what it is — malformed — not for the bus.
  const auto malformed = bmc.submit({0x01, 0x02});
  ASSERT_FALSE(malformed.is_ok());
  EXPECT_NE(malformed.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace envmon
