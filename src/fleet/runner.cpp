#include "fleet/runner.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/meminfo.hpp"
#include "fleet/scheduler.hpp"
#include "obs/export.hpp"

namespace envmon::fleet {
inline namespace v2 {

namespace {

// splitmix64: decorrelates per-node seeds from the fleet seed so that
// neighbouring ranks don't draw neighbouring RNG streams.
std::uint64_t mix_seed(std::uint64_t fleet_seed, int rank) {
  std::uint64_t z =
      fleet_seed + std::uint64_t{0x9e3779b97f4a7c15} * (static_cast<std::uint64_t>(rank) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Auto shard count: over-partition 4x so a fast worker always finds a
// laggard to steal; one shard when single-threaded (no one to steal).
int auto_shards(int threads, int nodes) {
  if (threads <= 1) return 1;
  return std::min(nodes, threads * 4);
}

}  // namespace

FleetRunner::FleetRunner() = default;
FleetRunner::~FleetRunner() = default;

Status FleetRunner::configure(FleetConfig config) {
  if (state_ != State::kIdle) {
    return Status::failed_precondition("fleet runner already configured");
  }
  if (config.nodes <= 0) {
    return Status::invalid_argument("fleet needs at least one node");
  }
  if (config.threads <= 0) {
    return Status::invalid_argument("fleet needs at least one worker thread");
  }
  if (config.epoch.ns() <= 0) {
    return Status::invalid_argument("epoch must be positive");
  }
  if (config.horizon.ns() <= 0) {
    return Status::invalid_argument("horizon must be positive");
  }
  if (config.capabilities.empty()) {
    return Status::invalid_argument("fleet nodes need at least one capability");
  }
  // Baseline for bytes_per_node: everything the fleet allocates from here
  // on (nodes, telemetry, database, staged batches) is the run's growth.
  rss_before_bytes_ = common::current_rss_bytes();

  config_ = std::move(config);
  config_.threads = std::min(config_.threads, config_.nodes);
  const int shards = auto_shards(config_.threads, config_.nodes);

  workload_ = workloads::mmps({.total = config_.horizon});
  defaults_.capabilities = config_.capabilities;
  defaults_.polling_interval = config_.polling_interval;
  defaults_.workload = &workload_;
  defaults_.ingest = config_.ingest;
  // Size each node's sample spool once, up front.  An over-estimate
  // costs nothing resident (reserved pages are untouched until written);
  // under-estimates fall back to geometric growth.
  {
    const double polling_s =
        config_.polling_interval.value_or(sim::Duration::seconds(1)).to_seconds();
    const double polls =
        polling_s > 0.0 ? config_.horizon.to_seconds() / polling_s + 2.0 : 2.0;
    constexpr double kSamplesPerPollPerBackend = 24.0;
    constexpr double kBytesPerRow = 40.0;
    defaults_.spool_reserve_bytes = static_cast<std::size_t>(
        polls * kSamplesPerPollPerBackend * kBytesPerRow *
        static_cast<double>(config_.capabilities.size()));
  }

  world_ = std::make_unique<smpi::World>(config_.nodes);
  db_ = std::make_unique<tsdb::EnvDatabase>(config_.database);

  telemetry_ = std::make_unique<obs::FleetTelemetry>(config_.nodes);
  recorders_.reserve(static_cast<std::size_t>(config_.nodes));
  for (int rank = 0; rank < config_.nodes; ++rank) {
    recorders_.push_back(std::make_unique<obs::FlightRecorder>(kRecorderCapacity));
  }
  detector_ = std::make_unique<FailureDetector>(config_.nodes, DetectorPolicy{}, &fleet_recorder_);

  // Contiguous shards: shard s owns ranks [bounds[s], bounds[s+1]).
  shard_bounds_.assign(static_cast<std::size_t>(shards) + 1, 0);
  const int base = config_.nodes / shards;
  const int extra = config_.nodes % shards;
  for (int s = 0; s < shards; ++s) {
    shard_bounds_[static_cast<std::size_t>(s) + 1] =
        shard_bounds_[static_cast<std::size_t>(s)] + base + (s < extra ? 1 : 0);
  }

  // Nodes build lazily on the worker that first advances their shard;
  // node 0 builds eagerly so configuration errors (bad capability,
  // substrate init failure) surface here, not mid-run on a worker.
  nodes_.resize(static_cast<std::size_t>(config_.nodes));
  if (const Status s = build_node(0); !s.is_ok()) return s;

  if (obs::enabled()) {
    auto& registry = obs::default_registry();
    epoch_seconds_metric_ = &registry.histogram(
        "envmon_fleet_epoch_seconds", "Wall time between fleet epoch merges",
        obs::Histogram::exponential_bounds(1e-5, 4.0, 12));
    epochs_metric_ = &registry.counter("envmon_fleet_epochs_total", "Fleet epochs merged");
    staged_metric_ = &registry.counter("envmon_fleet_records_staged_total",
                                       "Records staged at the epoch merge point");
    self_rows_metric_ =
        &registry.counter("envmon_fleet_rollup_self_rows_total",
                          "Self-scrape rows inserted under envmon.self.*");
    steals_metric_ = &registry.counter(
        "envmon_fleet_shard_steals_total",
        "Shard claims that crossed worker homes (work stealing)");
    window_wait_metric_ =
        &registry.gauge("envmon_fleet_window_wait_seconds",
                        "Cumulative worker wall time parked on the epoch-skew window");
    bytes_per_node_metric_ =
        &registry.gauge("envmon_fleet_bytes_per_node",
                        "Resident-set growth per simulated node over the run");
    nodes_alive_metric_ =
        &registry.gauge("envmon_fleet_nodes_alive", "Nodes the failure detector holds Alive");
    nodes_suspect_metric_ = &registry.gauge("envmon_fleet_nodes_suspect",
                                            "Nodes the failure detector holds Suspect");
    nodes_dead_metric_ =
        &registry.gauge("envmon_fleet_nodes_dead", "Nodes the failure detector holds Dead");
    liveness_transitions_metric_ = &registry.counter("envmon_fleet_liveness_transitions_total",
                                                     "Node liveness state transitions");
  }

  state_ = State::kConfigured;
  return Status::ok();
}

Status FleetRunner::build_node(int rank) {
  std::unique_ptr<FleetNode>& slot = nodes_[static_cast<std::size_t>(rank)];
  if (slot != nullptr) return Status::ok();
  NodeOptions options;
  options.rank = rank;
  options.seed = mix_seed(config_.seed, rank);
  options.defaults = &defaults_;
  options.registry = &telemetry_->node_registry(rank);
  options.recorder = recorders_[static_cast<std::size_t>(rank)].get();
  auto node = std::make_unique<FleetNode>(*world_, std::move(options));
  if (const Status s = node->configure(); !s.is_ok()) {
    return Status(s.code(), "node " + std::to_string(rank) + ": " + std::string(s.message()));
  }
  if (config_.fault_script) config_.fault_script(node->injector(), rank);
  slot = std::move(node);
  return Status::ok();
}

Status FleetRunner::run() {
  if (state_ != State::kConfigured) {
    return Status::failed_precondition(state_ == State::kRan ? "fleet runner already ran"
                                        : "fleet runner not configured");
  }
  const auto t0 = std::chrono::steady_clock::now();

  const int threads = config_.threads;
  const int shards = static_cast<int>(shard_bounds_.size()) - 1;
  const std::uint64_t epoch_count = static_cast<std::uint64_t>(
      (config_.horizon.ns() + config_.epoch.ns() - 1) / config_.epoch.ns());
  const std::uint64_t ring = kEpochWindow + 1;

  IngestQueue queue(kIngestQueueCapacity, &fleet_recorder_);
  IngestWorker ingest(*db_, queue, pool_, fleet_recorder_);
  std::thread ingest_thread([&ingest] { ingest.run(); });

  // One deposit slot per (shard, epoch % ring).  A slot is written under
  // exclusive shard ownership and read by the single merger; the skew
  // window guarantees an unmerged slot is never rewritten (epochs that
  // share a slot are `ring` apart, but a shard can only be `window`
  // epochs past the oldest unmerged one).
  struct ShardDeposit {
    std::vector<NodeBatch> nodes;        // staged records, node order
    std::vector<obs::SnapshotValues> snaps;  // telemetry capture per rank
    std::vector<std::uint8_t> beats;     // heartbeat per rank
    std::size_t rows = 0;
    std::uint64_t epoch = 0;             // last epoch deposited here
  };
  std::vector<std::vector<ShardDeposit>> deposits(
      static_cast<std::size_t>(shards), std::vector<ShardDeposit>(ring));
  // Last epoch complete_epoch() finished with, for snapshot recycling:
  // slots holding epochs <= this are no longer read by any merger.
  std::atomic<std::uint64_t> last_merged{0};
  std::vector<double> shard_capture_seconds(static_cast<std::size_t>(shards), 0.0);

  const sim::SimTime start = sim::SimTime::zero();
  auto epoch_boundary = [&](std::uint64_t epoch) {
    return epoch == epoch_count
               ? start + config_.horizon
               : start + config_.epoch * static_cast<std::int64_t>(epoch);
  };

  // Worker side: advance one shard exactly one epoch and deposit the
  // result.  Everything touched is shard-private (the scheduler grants
  // exclusive ownership) or a one-lock pool round trip.
  auto advance_shard = [&](int shard, std::uint64_t epoch) -> Status {
    const int begin = shard_bounds_[static_cast<std::size_t>(shard)];
    const int end = shard_bounds_[static_cast<std::size_t>(shard) + 1];
    ShardDeposit& dep = deposits[static_cast<std::size_t>(shard)][epoch % ring];
    dep.nodes.clear();
    dep.rows = 0;
    const sim::SimTime target = epoch_boundary(epoch);

    std::vector<std::vector<tsdb::Record>> scratch;
    scratch.reserve(static_cast<std::size_t>(end - begin));
    pool_.take(scratch, static_cast<std::size_t>(end - begin));

    for (int rank = begin; rank < end; ++rank) {
      if (nodes_[static_cast<std::size_t>(rank)] == nullptr) {
        if (const Status s = build_node(rank); !s.is_ok()) return s;
      }
      FleetNode& node = *nodes_[static_cast<std::size_t>(rank)];
      node.advance_to(target);
      NodeBatch batch;
      batch.node = rank;
      if (!scratch.empty()) {
        batch.records = std::move(scratch.back());
        scratch.pop_back();
      }
      node.drain(batch.records);
      if (batch.records.empty()) {
        scratch.push_back(std::move(batch.records));  // reuse for the next rank
      } else {
        dep.rows += batch.records.size();
        dep.nodes.push_back(std::move(batch));
      }
    }
    if (!scratch.empty()) pool_.put(std::move(scratch));

    const auto capture_began = std::chrono::steady_clock::now();
    if (dep.snaps.empty()) {
      // Cold slot: adopt the warm captures (their vector capacity) of
      // an already-merged sibling slot instead of allocating afresh.  This bounds cold captures per shard by the
      // run's *actual* epoch skew — 1 in a sequential run — rather
      // than by the window.  Safe: this worker owns every slot of the
      // shard, and the merger never rereads epochs <= last_merged
      // (the release store below happens after its last read).
      const std::uint64_t merged = last_merged.load(std::memory_order_acquire);
      for (ShardDeposit& other : deposits[static_cast<std::size_t>(shard)]) {
        if (&other != &dep && !other.snaps.empty() && other.epoch <= merged) {
          dep.snaps.swap(other.snaps);
          break;
        }
      }
    }
    dep.snaps.resize(static_cast<std::size_t>(end - begin));
    for (int rank = begin; rank < end; ++rank) {
      telemetry_->node_registry(rank).values_into(
          dep.snaps[static_cast<std::size_t>(rank - begin)]);
    }
    shard_capture_seconds[static_cast<std::size_t>(shard)] += seconds_since(capture_began);
    dep.beats.resize(static_cast<std::size_t>(end - begin));
    for (int rank = begin; rank < end; ++rank) {
      dep.beats[static_cast<std::size_t>(rank - begin)] =
          nodes_[static_cast<std::size_t>(rank)]->heartbeat() ? 1 : 0;
    }
    dep.epoch = epoch;
    return Status::ok();
  };

  // Merge side: the scheduler guarantees complete() runs exactly once per
  // epoch, in order, never concurrently — so this state needs no locking
  // (sequential calls are synchronized through the scheduler mutex).
  std::size_t staged_rows = 0;
  std::size_t self_rows = 0;
  double fold_seconds = 0.0;
  std::uint64_t transitions_seen = 0;
  // Epoch wall time is merge to merge: the first merge only starts the
  // clock, so no sample covers the lazy construction of the nodes.
  std::optional<std::chrono::steady_clock::time_point> last_merge;
  std::vector<const obs::SnapshotValues*> snapshot_ptrs(
      static_cast<std::size_t>(config_.nodes), nullptr);
  std::vector<std::uint8_t> heartbeats(static_cast<std::size_t>(config_.nodes), 0);

  auto complete_epoch = [&](std::uint64_t epoch) -> Status {
    const sim::SimTime boundary = epoch_boundary(epoch);
    EpochBatch batch;
    batch.epoch = epoch - 1;
    batch.boundary = boundary;
    batch.nodes.reserve(nodes_.size() + 1);
    for (int s = 0; s < shards; ++s) {
      ShardDeposit& dep = deposits[static_cast<std::size_t>(s)][epoch % ring];
      batch.rows += dep.rows;
      for (NodeBatch& node : dep.nodes) batch.nodes.push_back(std::move(node));
      dep.nodes.clear();
      const auto begin = static_cast<std::size_t>(shard_bounds_[static_cast<std::size_t>(s)]);
      for (std::size_t i = 0; i < dep.snaps.size(); ++i) {
        snapshot_ptrs[begin + i] = &dep.snaps[i];
        heartbeats[begin + i] = dep.beats[i];
      }
    }
    // Fold the deposited node snapshots into the fleet rollup and append
    // it as one more "node" — index `nodes` places its rows after
    // every real rank in the stable sort's tie order.
    const auto fold_began = std::chrono::steady_clock::now();
    telemetry_->fold(snapshot_ptrs);
    NodeBatch self;
    self.node = config_.nodes;
    self.records = self_scrape_records(telemetry_->fleet_rollup(), boundary);
    self_rows += self.records.size();
    if (self_rows_metric_ != nullptr) self_rows_metric_->inc(self.records.size());
    batch.rows += self.records.size();
    batch.nodes.push_back(std::move(self));
    fold_seconds += seconds_since(fold_began);

    detector_->observe_epoch(boundary, heartbeats);
    const FailureDetector::Counts& counts = detector_->counts();
    if (nodes_alive_metric_ != nullptr) {
      nodes_alive_metric_->set(static_cast<double>(counts.alive));
      nodes_suspect_metric_->set(static_cast<double>(counts.suspect));
      nodes_dead_metric_->set(static_cast<double>(counts.dead));
      liveness_transitions_metric_->inc(detector_->transitions() - transitions_seen);
    }
    transitions_seen = detector_->transitions();
    staged_rows += batch.rows;
    if (staged_metric_ != nullptr) staged_metric_->inc(batch.rows);
    if (batch.rows > 0) queue.push(std::move(batch));
    if (epochs_metric_ != nullptr) epochs_metric_->inc();
    if (epoch_seconds_metric_ != nullptr && last_merge.has_value()) {
      epoch_seconds_metric_->observe(seconds_since(*last_merge));
    }
    last_merge = std::chrono::steady_clock::now();
    last_merged.store(epoch, std::memory_order_release);
    return Status::ok();
  };

  // A shard that deposited its last epoch finalizes immediately — file
  // rendering runs shard-parallel while other shards still simulate.
  auto finalize_shard = [&](int shard) -> Status {
    const int begin = shard_bounds_[static_cast<std::size_t>(shard)];
    const int end = shard_bounds_[static_cast<std::size_t>(shard) + 1];
    for (int rank = begin; rank < end; ++rank) {
      const Status s =
          nodes_[static_cast<std::size_t>(rank)]->finalize(nullptr, config_.output != nullptr);
      if (!s.is_ok()) return s;
    }
    return Status::ok();
  };

  ShardScheduler::Options scheduler_options;
  scheduler_options.shards = shards;
  scheduler_options.workers = threads;
  scheduler_options.epochs = epoch_count;
  scheduler_options.window = kEpochWindow;
  ShardScheduler scheduler(scheduler_options,
                           {advance_shard, complete_epoch, finalize_shard});
  const Status scheduled = scheduler.run();

  // Sample the footprint while everything the run allocated is still
  // live: nodes, telemetry, staged deposits, and the database.
  report_.rss_bytes = common::current_rss_bytes();
  report_.peak_rss_bytes = common::peak_rss_bytes();

  queue.close();
  ingest_thread.join();
  if (!scheduled.is_ok()) return scheduled;
  if (!ingest.status().is_ok()) return ingest.status();

  // Deterministic output: files land in rank order regardless of which
  // shard rendered them first.  Each file is released right after its
  // write, so the rendered-text peak drains across the loop instead of
  // holding the whole fleet's CSV at once.
  if (config_.output != nullptr) {
    for (const std::unique_ptr<FleetNode>& node : nodes_) {
      const Status s = config_.output->write(node->file_name(), node->file_content());
      if (!s.is_ok()) return s;
      node->release_file_content();
    }
  }

  report_.nodes = config_.nodes;
  report_.threads = threads;
  report_.shards = shards;
  report_.epochs = epoch_count;
  for (const std::unique_ptr<FleetNode>& node : nodes_) {
    const moneq::NodeProfiler& profiler = node->profiler();
    const moneq::OverheadReport overhead = profiler.overhead();
    report_.polls += overhead.polls;
    report_.samples += profiler.total_samples();
    report_.dropped_samples += profiler.dropped_samples();
    report_.degraded_polls += profiler.degraded_polls();
    report_.gap_markers += profiler.gaps().size();
    report_.initialize_total += overhead.initialize;
    report_.collection_total += overhead.collection;
    report_.finalize_total += overhead.finalize;
  }

  const ShardScheduler::Stats& sched_stats = scheduler.stats();
  report_.shard_steals = sched_stats.steals;
  report_.window_wait_seconds = sched_stats.window_wait_seconds;
  if (steals_metric_ != nullptr) steals_metric_->inc(sched_stats.steals);
  if (window_wait_metric_ != nullptr) window_wait_metric_->set(sched_stats.window_wait_seconds);

  const FailureDetector::Counts& counts = detector_->counts();
  report_.nodes_unknown = counts.unknown;
  report_.nodes_alive = counts.alive;
  report_.nodes_suspect = counts.suspect;
  report_.nodes_dead = counts.dead;
  report_.liveness_transitions = detector_->transitions();

  if (report_.rss_bytes > rss_before_bytes_ && config_.nodes > 0) {
    report_.bytes_per_node = static_cast<double>(report_.rss_bytes - rss_before_bytes_) /
                             static_cast<double>(config_.nodes);
  }
  if (bytes_per_node_metric_ != nullptr) bytes_per_node_metric_->set(report_.bytes_per_node);

  // Post-mortem triggers, most diagnostic first: the earliest quarantine
  // transition on the merged deterministic timeline, else the first node
  // the detector declared Dead.  The dump contains only deterministic
  // events.
  std::vector<const obs::FlightRecorder*> all;
  all.reserve(recorders_.size() + 1);
  for (const auto& r : recorders_) all.push_back(r.get());
  all.push_back(&fleet_recorder_);
  std::string trigger;
  for (const obs::RecorderEvent& event : obs::merge_events(all)) {
    if (event.name == "backend.health" &&
        event.detail.find("-> quarantined") != std::string::npos) {
      trigger =
          "backend quarantined: node " + std::to_string(event.node) + ", " + event.detail;
      break;
    }
    if (trigger.empty() && event.name == "liveness.transition" &&
        event.detail.find("-> dead") != std::string::npos) {
      trigger = "node declared dead: node " + std::to_string(event.node) + ", " + event.detail;
      // Keep scanning: a quarantine anywhere on the timeline outranks
      // a dead declaration (it names the failing backend).
    }
  }
  if (!trigger.empty()) {
    post_mortem_ = obs::dump_post_mortem(trigger, all);
    report_.post_mortem_triggered = true;
    report_.post_mortem_trigger = std::move(trigger);
  }
  for (const obs::FlightRecorder* r : all) {
    report_.recorder_events += r->recorded();
    report_.recorder_dropped += r->dropped();
  }

  report_.telemetry_seconds = fold_seconds;
  for (const double s : shard_capture_seconds) report_.telemetry_seconds += s;
  report_.self_scrape_rows = self_rows;

  const IngestWorker::Stats& ingest_stats = ingest.stats();
  report_.records_staged = staged_rows;
  report_.records_applied = ingest_stats.accepted;
  report_.rejected_out_of_order = ingest_stats.rejected_out_of_order;
  report_.rejected_rate_limited = ingest_stats.rejected_rate_limited;
  report_.rejected_unavailable = ingest_stats.rejected_unavailable;
  report_.database_rows = db_->size();
  report_.ingest_stalls = queue.stalls();
  report_.ingest_stall_seconds = queue.stall_seconds();
  report_.wall_seconds = seconds_since(t0);
  if (report_.wall_seconds > 0.0) {
    report_.node_seconds_per_second =
        config_.horizon.to_seconds() * static_cast<double>(config_.nodes) / report_.wall_seconds;
  }

  state_ = State::kRan;
  return Status::ok();
}

Result<FleetReport> FleetRunner::report() const {
  if (state_ != State::kRan) {
    return Status::failed_precondition("fleet has not run");
  }
  return report_;
}

tsdb::EnvDatabase& FleetRunner::database() { return *db_; }

namespace {

// Folds a pre-rendered label body into a metric-name suffix: quotes are
// dropped, '=' and ',' become '.', everything else passes through —
// readable, collision-free for the label alphabets we emit, and stable
// under CSV export.
std::string self_metric_name(const std::string& name, const std::string& labels) {
  std::string out(tsdb::kSelfMetricPrefix);
  out += name;
  if (!labels.empty()) {
    out += '.';
    for (const char c : labels) {
      if (c == '"') continue;
      out += (c == '=' || c == ',') ? '.' : c;
    }
  }
  return out;
}

}  // namespace

std::vector<tsdb::Record> self_scrape_records(const obs::Snapshot& snapshot, sim::SimTime t) {
  const tsdb::Location location = tsdb::rack_location(kSelfTelemetryRack);
  std::vector<tsdb::Record> records;
  records.reserve(snapshot.counters.size() + snapshot.gauges.size() +
                  2 * snapshot.histograms.size());
  for (const auto& c : snapshot.counters) {
    records.push_back(
        {t, location, self_metric_name(c.name, c.labels), static_cast<double>(c.value)});
  }
  for (const auto& g : snapshot.gauges) {
    records.push_back({t, location, self_metric_name(g.name, g.labels), g.value});
  }
  for (const auto& h : snapshot.histograms) {
    records.push_back({t, location, self_metric_name(h.name + ".count", h.labels),
                       static_cast<double>(h.count)});
    records.push_back({t, location, self_metric_name(h.name + ".sum", h.labels), h.sum});
  }
  return records;
}

}  // namespace v2
}  // namespace envmon::fleet
