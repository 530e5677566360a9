// Workload `collect`: FleetRunner over a BG/Q-shaped fleet whose every
// node carries all four vendor mechanisms (BG/Q EMON, RAPL MSR, NVML and
// the Xeon Phi MICRAS daemon), board-level power records into an
// in-memory store, nproc - 1 workers so the ingest thread keeps a core.
//
// Why: the simulator itself does almost all the work here — sim, power,
// the four mechanisms, moneq polling and render, the fleet scheduler and
// merge.  tsdb does little and the daemon is not used.
//
// Closed loop: one fleet run after another, the same fleet every time,
// each waiting for the previous one to finish, as many as fit in each
// slice.  End-to-end numbers: collect_node_s_per_s (median over the runs,
// each timed around run() only) and collect_overhead_pct (the paper's
// overhead metric in simulated time, identical in every run).  Every
// run's files and database digests must equal a single-worker run of the
// same fleet.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "fleet/api.hpp"
#include "moneq/output.hpp"
#include "smpi/smpi.hpp"
#include "tsdb/export.hpp"
#include "workloads/library.hpp"

namespace envbench {
namespace {

namespace fleet = envmon::fleet;
namespace moneq = envmon::moneq;
namespace tsdb = envmon::tsdb;
using envmon::sim::Duration;
using envmon::sim::SimTime;

constexpr int kNodes = 384;
constexpr std::int64_t kHorizonS = 60;
constexpr std::int64_t kEpochS = 10;
constexpr std::int64_t kPollingS = 1;
// Nodes per single-capability fleet in the traced probe.
constexpr int kProbeNodes = 32;

const std::vector<moneq::Capability> kCapabilities = {
    moneq::Capability::kBgqEmon, moneq::Capability::kRaplMsr, moneq::Capability::kNvml,
    moneq::Capability::kMicDaemon};

const char* layer_name(moneq::Capability c) {
  switch (c) {
    case moneq::Capability::kBgqEmon: return "bgq.node_advance";
    case moneq::Capability::kRaplMsr: return "rapl.node_advance";
    case moneq::Capability::kNvml: return "nvml.node_advance";
    default: return "mic.node_advance";
  }
}

// Hashes node files as the runner writes them, in rank order.
class DigestOutput final : public moneq::OutputTarget {
 public:
  envmon::Status write(const std::string& filename, const std::string& content) override {
    digest_.mix_str(filename);
    digest_.mix_str(content);
    return envmon::Status::ok();
  }
  [[nodiscard]] std::uint64_t value() const { return digest_.value(); }

 private:
  Digest digest_;
};

struct FleetRun {
  bool ok = false;
  std::string error;
  double configure_s = 0.0;
  double run_s = 0.0;
  fleet::FleetReport report;
  std::uint64_t files_digest = 0;
  std::uint64_t db_digest = 0;
};

FleetRun run_fleet(std::uint64_t seed, int threads) {
  FleetRun r;
  DigestOutput output;
  fleet::FleetConfig config;
  config.nodes = kNodes;
  config.capabilities = kCapabilities;
  config.threads = threads;
  config.epoch = Duration::seconds(kEpochS);
  config.horizon = Duration::seconds(kHorizonS);
  config.polling_interval = Duration::seconds(kPollingS);
  config.seed = seed;
  config.ingest = fleet::IngestMode::kNodePower;
  config.database.max_insert_rate_per_second = 0.0;  // no modeled DB2 ceiling
  config.output = &output;

  fleet::FleetRunner runner;
  const auto t0 = Clock::now();
  if (const auto s = runner.configure(std::move(config)); !s.is_ok()) {
    r.error = "configure: " + s.to_string();
    return r;
  }
  r.configure_s = seconds_since(t0);
  const auto t1 = Clock::now();
  if (const auto s = runner.run(); !s.is_ok()) {
    r.error = "run: " + s.to_string();
    return r;
  }
  r.run_s = seconds_since(t1);
  r.report = runner.report().value();
  r.files_digest = output.value();
  Digest db;
  db.mix_str(tsdb::export_csv(runner.database()));
  r.db_digest = db.value();
  r.ok = true;
  return r;
}

double overhead_pct(const fleet::FleetReport& rep) {
  const auto total = rep.initialize_total + rep.collection_total + rep.finalize_total;
  const double app_ns = static_cast<double>(kNodes) * static_cast<double>(kHorizonS) * 1e9;
  return 100.0 * static_cast<double>(total.ns()) / app_ns;
}

// The traced probe: kProbeNodes nodes of each single-capability fleet
// driven through FleetNode directly, epoch by epoch, with each epoch's
// drained rows stable-sorted by timestamp (the ingest worker's order)
// and inserted into a store.  Returns the wall time of the driving loop
// (node configure excluded); `log` == nullptr is the untraced pass.
double probe(std::uint64_t seed, SpanLog* log, Report& report) {
  double wall = 0.0;
  const auto profile = envmon::workloads::mmps({.total = Duration::seconds(kHorizonS)});
  for (const moneq::Capability cap : kCapabilities) {
    fleet::NodeDefaults defaults;
    defaults.capabilities = {cap};
    defaults.polling_interval = Duration::seconds(kPollingS);
    defaults.workload = &profile;
    defaults.ingest = fleet::IngestMode::kNodePower;
    const envmon::smpi::World world(kProbeNodes);
    std::vector<std::unique_ptr<fleet::FleetNode>> nodes;
    for (int rank = 0; rank < kProbeNodes; ++rank) {
      fleet::NodeOptions options;
      options.rank = rank;
      options.seed = mix64(seed + static_cast<std::uint64_t>(rank));
      options.defaults = &defaults;
      nodes.push_back(std::make_unique<fleet::FleetNode>(world, options));
      if (const auto s = nodes.back()->configure(); !s.is_ok()) {
        report.mismatch("probe configure: " + s.to_string());
        return 0.0;
      }
    }
    tsdb::DatabaseOptions db_options;
    db_options.max_insert_rate_per_second = 0.0;
    tsdb::EnvDatabase store(db_options);
    std::vector<tsdb::Record> rows;

    const auto t0 = Clock::now();
    const std::int64_t epochs = kHorizonS / kEpochS;
    for (std::int64_t e = 1; e <= epochs; ++e) {
      const Scope epoch_span(log, "bench.collect_epoch", static_cast<std::uint64_t>(e));
      const SimTime target = SimTime::zero() + Duration::seconds(e * kEpochS);
      rows.clear();
      for (auto& node : nodes) {
        {
          const Scope s(log, layer_name(cap), static_cast<std::uint64_t>(node->rank()));
          node->advance_to(target);
        }
        const Scope s(log, "moneq.drain", static_cast<std::uint64_t>(node->rank()));
        node->drain(rows);
      }
      std::stable_sort(rows.begin(), rows.end(), [](const tsdb::Record& a, const tsdb::Record& b) {
        return a.timestamp < b.timestamp;
      });
      const Scope s(log, "tsdb.collect_insert_batch", static_cast<std::uint64_t>(e));
      const auto result = store.insert_batch(rows);
      report.attempted += rows.size();
      report.failed += result.rejected();
    }
    for (auto& node : nodes) {
      const Scope s(log, "moneq.render", static_cast<std::uint64_t>(node->rank()));
      if (const auto st = node->finalize(nullptr, true); !st.is_ok()) {
        report.mismatch("probe finalize: " + st.to_string());
      }
    }
    wall += seconds_since(t0);
  }
  return wall;
}

}  // namespace

void run_collect(const Args& args, Slices& slices, Report& report) {
  const std::uint64_t seed = mix64(args.seed);
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  // The trace run spends half its budget on the untraced fleet runs and
  // the rest on the probe pair.
  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;

  std::vector<FleetRun> runs;
  std::vector<double> configure_s;
  std::vector<double> rates;
  double measured_s = 0.0;
  bool complete = false;
  slices.ready();
  while (slices.next(complete)) {
    const auto t0 = Clock::now();
    do {
      runs.push_back(run_fleet(seed, threads));
      const FleetRun& r = runs.back();
      if (!r.ok) {
        report.mismatch("fleet " + r.error);
        return;
      }
      configure_s.push_back(r.configure_s);
      // Peak RSS of one fleet run: later runs in the same process only
      // add allocator retention from the runs before them.
      if (runs.size() == 1) report.snapshot_rss();
      rates.push_back(static_cast<double>(kNodes) * static_cast<double>(kHorizonS) / r.run_s);
    } while (seconds_since(t0) < kSliceSeconds);
    measured_s += seconds_since(t0);
    complete = runs.size() >= 3 && measured_s >= budget;
  }
  if (runs.empty()) {
    report.mismatch("collect: no fleet run was measured");
    return;
  }

  // Output checks, outside every timed region: each run against one
  // single-worker run of the same fleet.
  const FleetRun reference = run_fleet(seed, 1);
  if (!reference.ok) {
    report.mismatch("reference fleet " + reference.error);
    return;
  }
  const double overhead = overhead_pct(reference.report);
  std::uint64_t staged = 0;
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const FleetRun& r = runs[i];
    if (r.files_digest != reference.files_digest) {
      report.mismatch(format("collect run %zu: files digest differs from 1 worker", i));
    }
    if (r.db_digest != reference.db_digest) {
      report.mismatch(format("collect run %zu: database digest differs from 1 worker", i));
    }
    if (overhead_pct(r.report) != overhead ||
        r.report.records_applied != reference.report.records_applied) {
      report.mismatch(format("collect run %zu: overhead or records_applied changed", i));
    }
    staged += r.report.records_staged;
    rejected += r.report.rejected_out_of_order + r.report.rejected_rate_limited +
                r.report.rejected_unavailable;
  }
  report.attempted += staged;
  report.failed += rejected;
  report.note(format("collect: %d nodes x %lld s, capabilities bgq+rapl+nvml+mic, %d workers, "
                     "%zu fleet runs (seed %llu)",
                     kNodes, static_cast<long long>(kHorizonS), threads, runs.size(),
                     static_cast<unsigned long long>(args.seed)));
  report.note(format("collect: error_ratio %.6g (%llu rejected / %llu records staged)",
                     staged > 0 ? static_cast<double>(rejected) / static_cast<double>(staged)
                                : 0.0,
                     static_cast<unsigned long long>(rejected),
                     static_cast<unsigned long long>(staged)));
  report.note(format("collect: outputs of %zu runs match a 1-worker run (files %016llx, db %016llx)",
                     runs.size(), static_cast<unsigned long long>(reference.files_digest),
                     static_cast<unsigned long long>(reference.db_digest)));

  std::uint64_t stalls = 0;
  double stall_s = 0.0;
  for (const FleetRun& r : runs) {
    stalls += r.report.ingest_stalls;
    stall_s += r.report.ingest_stall_seconds;
  }
  report.note(format("collect: rate median %.1f best %.1f node-s/s over %zu runs", median(rates),
                     *std::max_element(rates.begin(), rates.end()), rates.size()));
  report.note(format("collect: ingest-queue stalls over all runs: %llu, %.6f s",
                     static_cast<unsigned long long>(stalls), stall_s));
  if (!args.trace) {
    report.metric("setup_s", median(configure_s), "s");
    report.metric("collect_node_s_per_s", median(rates), "node-s/s");
    report.metric("collect_overhead_pct", overhead, "%");
    return;
  }

  // Per-layer: scheduler and telemetry figures from the untraced fleet
  // runs (medians), exact counts from the reference run.
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const FleetRun& r : runs) v.push_back(static_cast<double>(field(r.report)));
    return median(v);
  };
  using R = fleet::FleetReport;
  report.metric("fleet.window_wait_s", med([](const R& r) { return r.window_wait_seconds; }), "s");
  report.metric("fleet.shard_steals", med([](const R& r) { return r.shard_steals; }), "count");
  report.metric("fleet.ingest_stalls", med([](const R& r) { return r.ingest_stalls; }), "count");
  report.metric("obs.telemetry_s", med([](const R& r) { return r.telemetry_seconds; }), "s");
  report.metric("fleet.bytes_per_node", med([](const R& r) { return r.bytes_per_node; }), "B");
  const R& ref = reference.report;
  report.metric("fleet.records_applied", static_cast<double>(ref.records_applied), "count");
  report.metric("moneq.polls", static_cast<double>(ref.polls), "count");
  report.metric("moneq.samples", static_cast<double>(ref.samples), "count");
  report.metric("moneq.degraded_polls", static_cast<double>(ref.degraded_polls), "count");
  report.metric("moneq.collection_sim_s", ref.collection_total.to_seconds(), "sim_s");

  // Probe: a warm-up pass, then the same work untraced and traced, so
  // the two compared passes start equally warm.
  (void)probe(seed, nullptr, report);
  const double untraced = probe(seed, nullptr, report);
  SpanLog log(0);
  const double traced = probe(seed, &log, report);
  write_spans("spans-collect.jsonl", "collect", {&log});
  auto self = log.self_seconds();
  for (const moneq::Capability cap : kCapabilities) {
    const std::string name = layer_name(cap);
    report.metric(name + "_s", self[name], "s");
  }
  report.metric("moneq.drain_s", self["moneq.drain"], "s");
  report.metric("moneq.render_s", self["moneq.render"], "s");
  report.metric("tsdb.collect_insert_batch_s", self["tsdb.collect_insert_batch"], "s");
  report_trace(report, "collect", self, untraced, traced);
}

}  // namespace envbench
