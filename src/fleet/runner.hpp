#pragma once
// FleetRunner — parallel fleet collection behind the v2 lifecycle.
//
// Execution model (the determinism contract, DESIGN.md §12):
//
//   * The fleet's N nodes are N independent virtual-clock partitions
//     (FleetNode), built lazily from one shared NodeDefaults block the
//     first time their shard is advanced.  A node is a pure function of
//     (rank, seed, defaults, workload) — neither construction order nor
//     the thread that constructs it can change what it simulates.
//   * run() over-partitions the nodes into S >= threads contiguous
//     shards and hands them to the ShardScheduler (scheduler.hpp):
//     workers advance whole shards epoch-by-epoch independently,
//     stealing lagging shards instead of parking at a barrier.  A shard
//     may run up to kEpochWindow (4) epochs ahead of the oldest unmerged
//     epoch; within an epoch it drains each node's new samples into a
//     shard-local deposit (records + telemetry snapshots + heartbeats).
//   * The scheduler's merge point is the sole barrier-like construct:
//     when every shard has deposited epoch E, exactly one worker merges
//     it — deposits concatenate in shard order (= node order), the
//     telemetry rollup folds from the deposited snapshots, the failure
//     detector consumes the heartbeats, and one EpochBatch goes to the
//     bounded ingest queue.  The dedicated ingest thread stable-sorts
//     each batch by timestamp (ties keep node order) and applies it.
//     Apply order is thus a pure function of (epoch, node, sample) —
//     identical for 1, 2, or 64 workers.
//   * A shard that deposits its final epoch finalizes its nodes
//     immediately (rendering files shard-parallel); the files are then
//     written to the output target in rank order on the caller's thread.
//   * Observability is always on (DESIGN.md §11): every node gets its own
//     registry partition and flight recorder, the merge folds them into
//     one fleet rollup in rank order, inserts it into the store
//     under envmon.self.*, and feeds the heartbeat failure detector.
//
// Shared mutable state during run() is limited to: obs metrics
// (atomics), the ingest queue and scheduler (mutex + condvars), and the
// record-buffer pool.  Everything a worker simulates is shard-private,
// and a shard is owned by exactly one worker at a time.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fleet/failure_detector.hpp"
#include "fleet/ingest.hpp"
#include "fleet/node.hpp"
#include "moneq/output.hpp"
#include "obs/fleet_telemetry.hpp"
#include "obs/recorder.hpp"
#include "power/profile.hpp"
#include "smpi/smpi.hpp"
#include "tsdb/database.hpp"
#include "workloads/library.hpp"

namespace envmon::fleet {
inline namespace v2 {

struct FleetConfig {
  // Fleet shape.  Homogeneous nodes, as on Mira: every node carries the
  // same capability list (paper: "if every node in a system has two
  // GPUs, then every node will spend the same amount of time
  // collecting data").
  int nodes = 32;
  std::vector<moneq::Capability> capabilities{moneq::Capability::kBgqEmon};

  // Parallelism.  `threads` is clamped to `nodes`; 1 reproduces the
  // sequential engine exactly.  The scheduler over-partitions into
  // min(nodes, 4 x threads) work-stealing shards (one when
  // single-threaded) and lets a shard run up to 4 epochs ahead of the
  // oldest unmerged one.
  int threads = 1;
  sim::Duration epoch = sim::Duration::seconds(1);
  sim::Duration horizon = sim::Duration::seconds(60);

  // Collection: every node runs the built-in MMPS workload profile under
  // the default moneq::DegradationPolicy.
  std::optional<sim::Duration> polling_interval;  // default: hardware floor
  std::uint64_t seed = 0x5eedf1ee7ull;

  // Ingest into the environmental database.
  IngestMode ingest = IngestMode::kPerSample;
  tsdb::DatabaseOptions database;

  // Output files (nullptr discards them).
  moneq::OutputTarget* output = nullptr;

  // Fault scripting, applied to each node's injector at configure()
  // time.  Schedules are per-node and on the node's own clock, so fault
  // storms replay identically at any worker count.
  std::function<void(fault::Injector&, int node)> fault_script;
};

struct FleetReport {
  int nodes = 0;
  int threads = 0;
  int shards = 0;
  std::uint64_t epochs = 0;

  // Collection totals across the fleet.
  std::uint64_t polls = 0;
  std::uint64_t samples = 0;
  std::uint64_t dropped_samples = 0;
  std::uint64_t degraded_polls = 0;
  std::uint64_t gap_markers = 0;
  sim::Duration initialize_total;
  sim::Duration collection_total;
  sim::Duration finalize_total;

  // Ingest path.
  std::size_t records_staged = 0;
  std::size_t records_applied = 0;
  std::size_t rejected_out_of_order = 0;
  std::size_t rejected_rate_limited = 0;
  std::size_t rejected_unavailable = 0;
  std::size_t database_rows = 0;
  std::uint64_t ingest_stalls = 0;
  double ingest_stall_seconds = 0.0;

  // Scheduler behaviour: shard claims that crossed worker homes, and
  // total worker time parked on the epoch-skew window (the only wait
  // left — there is no barrier).
  std::uint64_t shard_steals = 0;
  double window_wait_seconds = 0.0;

  // Fleet liveness at the end of the run (failure detector).
  int nodes_unknown = 0;
  int nodes_alive = 0;
  int nodes_suspect = 0;
  int nodes_dead = 0;
  std::uint64_t liveness_transitions = 0;

  // Memory footprint: resident set sampled right after the last epoch
  // merged (nodes, telemetry, and database all still live), the process
  // peak, and the per-node share of the run's RSS growth — the second
  // gate (after throughput) bench/fleet_scale applies at 100k nodes.
  std::uint64_t rss_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  double bytes_per_node = 0.0;

  // Observability self-overhead: wall time spent capturing node
  // snapshots, folding them into the fleet rollup, and rendering
  // self-scrape rows.
  // bench/overhead_observability gates telemetry_seconds / wall_seconds.
  double telemetry_seconds = 0.0;
  std::size_t self_scrape_rows = 0;
  std::uint64_t recorder_events = 0;   // deterministic events captured
  std::uint64_t recorder_dropped = 0;  // evicted by ring wraparound
  bool post_mortem_triggered = false;
  std::string post_mortem_trigger;

  // Real time and throughput.
  double wall_seconds = 0.0;
  // Node-virtual-seconds simulated per real second: the fleet-scaling
  // figure of merit (bench/fleet_scale gates its thread scaling).
  double node_seconds_per_second = 0.0;
};

class FleetRunner {
 public:
  FleetRunner();
  ~FleetRunner();
  FleetRunner(const FleetRunner&) = delete;
  FleetRunner& operator=(const FleetRunner&) = delete;

  // Validates the config, builds the shared substrate and node 0 (the
  // validation canary); the remaining nodes are built lazily by the
  // worker that first advances their shard.  Single-use: a runner drives
  // exactly one fleet run.
  Status configure(FleetConfig config);

  // Simulates the fleet to the horizon.  Blocking; spawns the worker
  // pool and the ingest thread internally.
  Status run();

  // The run's aggregate report; kFailedPrecondition before run().
  [[nodiscard]] Result<FleetReport> report() const;

  // Valid after configure().
  [[nodiscard]] tsdb::EnvDatabase& database();
  // The telemetry hierarchy; valid after configure().
  [[nodiscard]] const obs::FleetTelemetry& telemetry() const { return *telemetry_; }
  // The post-mortem JSON dumped after run() when a backend quarantined
  // or the detector declared a node dead (empty otherwise).
  // Deterministic: only kDeterministic events are included.
  [[nodiscard]] const std::string& post_mortem() const { return post_mortem_; }

 private:
  enum class State { kIdle, kConfigured, kRan };

  // Builds rank's node (registry partition, recorder, substrate, fault
  // script) if it does not exist yet.  Called under exclusive shard
  // ownership — at most one thread ever builds a given rank.
  Status build_node(int rank);

  // Epochs a shard may run ahead of the oldest unmerged epoch: bounds
  // staged records and capture snapshots in flight.
  static constexpr std::uint64_t kEpochWindow = 4;
  // Epochs of backpressure headroom in the ingest queue.
  static constexpr std::size_t kIngestQueueCapacity = 4;
  // Events per flight-recorder ring.
  static constexpr std::size_t kRecorderCapacity = 256;

  State state_ = State::kIdle;
  FleetConfig config_;
  power::UtilizationProfile workload_;
  NodeDefaults defaults_;  // shared read-only per-node config
  std::unique_ptr<smpi::World> world_;
  std::unique_ptr<tsdb::EnvDatabase> db_;
  std::vector<std::unique_ptr<FleetNode>> nodes_;
  std::vector<int> shard_bounds_;  // shard s owns ranks [b[s], b[s+1])
  std::unique_ptr<obs::FleetTelemetry> telemetry_;
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders_;  // per node
  obs::FlightRecorder fleet_recorder_{kRecorderCapacity};
  std::unique_ptr<FailureDetector> detector_;
  RecordBufferPool pool_;
  std::uint64_t rss_before_bytes_ = 0;
  std::string post_mortem_;
  FleetReport report_;

  obs::Counter* self_rows_metric_ = nullptr;
  obs::Histogram* epoch_seconds_metric_ = nullptr;
  obs::Counter* epochs_metric_ = nullptr;
  obs::Counter* staged_metric_ = nullptr;
  obs::Counter* steals_metric_ = nullptr;
  obs::Gauge* window_wait_metric_ = nullptr;
  obs::Gauge* bytes_per_node_metric_ = nullptr;
  obs::Gauge* nodes_alive_metric_ = nullptr;
  obs::Gauge* nodes_suspect_metric_ = nullptr;
  obs::Gauge* nodes_dead_metric_ = nullptr;
  obs::Counter* liveness_transitions_metric_ = nullptr;
};

// Reserved rack index for the fleet's own telemetry rows: far above any
// real BG/Q rack, so self-scrape series never collide with node data in
// location-ranged queries.
inline constexpr int kSelfTelemetryRack = 9999;

// Renders a rolled-up snapshot as environmental-database records at `t`
// under the reserved envmon.self.* namespace (tsdb::kSelfMetricPrefix):
// counters and gauges become one row each, histograms become `.count`
// and `.sum` rows, and label bodies fold into the metric name with
// quotes dropped and '='/',' mapped to '.' (e.g.
// envmon.self.envmon_backend_queries_total.backend.rapl_msr).  Rows
// inherit the snapshot's sorted order, so equal-timestamp inserts are
// deterministic.
[[nodiscard]] std::vector<tsdb::Record> self_scrape_records(const obs::Snapshot& snapshot,
                                                            sim::SimTime t);

}  // namespace v2
}  // namespace envmon::fleet
