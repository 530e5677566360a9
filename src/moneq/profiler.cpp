#include "moneq/profiler.hpp"

#include <algorithm>
#include <cmath>

#include "obs/export.hpp"

namespace envmon::moneq {

NodeProfiler::NodeProfiler(sim::Engine& engine, const smpi::World& world, int rank,
                           ProfilerOptions options)
    : engine_(&engine), world_(&world), rank_(rank), options_(options) {}

Status NodeProfiler::add_backend(Backend& backend) {
  if (initialized_) {
    return Status::failed_precondition("backends must be attached before initialize()");
  }
  backends_.push_back(&backend);
  return Status::ok();
}

sim::Duration NodeProfiler::effective_interval() const {
  if (options_.polling_interval) return *options_.polling_interval;
  // Default mode: "the lowest polling interval possible for the given
  // hardware" — across everything attached, the largest minimum wins so
  // no backend is polled below its floor.
  sim::Duration floor = sim::Duration::millis(1);
  for (const Backend* b : backends_) {
    floor = std::max(floor, b->min_polling_interval());
  }
  return floor;
}

Status NodeProfiler::set_polling_interval(sim::Duration interval) {
  if (initialized_) {
    return Status::failed_precondition("polling interval must be set before initialize()");
  }
  if (interval.ns() <= 0) {
    return Status::invalid_argument("polling interval must be positive");
  }
  for (const Backend* b : backends_) {
    if (interval < b->min_polling_interval()) {
      return Status::out_of_range(std::string(b->name()) + ": interval below the hardware floor of " +
                        std::to_string(b->min_polling_interval().to_millis()) + " ms");
    }
    const sim::Duration max = b->max_polling_interval();
    if (max.ns() > 0 && interval > max) {
      return Status::out_of_range(std::string(b->name()) + ": interval above " +
                        std::to_string(max.to_seconds()) +
                        " s would corrupt the data (counter overfill)");
    }
  }
  options_.polling_interval = interval;
  return Status::ok();
}

Status NodeProfiler::initialize() {
  if (initialized_) {
    return Status::failed_precondition("profiler already initialized");
  }
  if (backends_.empty()) {
    return Status::failed_precondition("no collection backend attached");
  }
  interval_ = effective_interval();

  // Memory overhead is constant with respect to scale: the whole sample
  // array is allocated here, once.  In spool mode the buffer drains
  // every release_samples(), so it only ever holds one drain interval's
  // worth — pre-reserving max_samples would defeat the point.
  if (!options_.spool_samples) samples_.reserve(options_.max_samples);
  if (options_.spool_samples) {
    if (options_.spool_reserve_bytes > 0) spool_.reserve(options_.spool_reserve_bytes);
    // The spool starts with the CSV header so take_file() can hand the
    // whole thing over by move, never copying the sample text.
    append_node_file_header(spool_);
  }

  int levels = 0;
  for (int n = world_->size() - 1; n > 0; n >>= 1) ++levels;
  init_cost_ = options_.init_base_cost + levels * options_.init_per_level_cost;

  if (obs::enabled()) {
    auto& registry =
        options_.registry != nullptr ? *options_.registry : obs::default_registry();
    polls_metric_ = &registry.counter("envmon_profiler_polls_total",
                                      "MonEQ profiler poll ticks executed");
    samples_metric_ = &registry.counter("envmon_profiler_samples_total",
                                        "Samples recorded into the profiler buffer");
    dropped_metric_ = &registry.counter("envmon_profiler_dropped_samples_total",
                                        "Samples dropped because the buffer was full");
    degraded_polls_metric_ =
        &registry.counter("envmon_profiler_degraded_polls_total",
                          "Poll ticks where at least one backend delivered nothing");
    buffer_hwm_metric_ = &registry.gauge("envmon_profiler_buffer_high_water",
                                         "Highest profiler buffer fill level seen");
    backend_metrics_.reserve(backends_.size());
    for (const Backend* backend : backends_) {
      const std::string labels = obs::label("backend", backend->name());
      BackendMetrics m;
      m.queries = &registry.counter("envmon_backend_queries_total",
                                    "Vendor-mechanism queries issued", labels);
      m.errors = &registry.counter("envmon_backend_query_errors_total",
                                   "Vendor-mechanism queries that failed", labels);
      m.latency_ms = &registry.histogram("envmon_backend_query_latency_ms",
                                         "Per-query collection cost in virtual ms",
                                         obs::Histogram::latency_bounds_ms(), labels);
      m.health = &registry.gauge(
          "envmon_backend_health",
          "Backend health state (0 healthy, 1 degraded, 2 quarantined, 3 recovered)",
          labels);
      m.retries = &registry.counter("envmon_backend_retries_total",
                                    "Bounded retry attempts after failed collects", labels);
      backend_metrics_.push_back(m);
    }
  } else {
    backend_metrics_.assign(backends_.size(), BackendMetrics{});
  }
  health_.assign(backends_.size(), BackendHealth(options_.degradation));
  gap_open_.assign(backends_.size(), false);

  timer_ = engine_->schedule_periodic(interval_, [this] { collect_now(); });
  initialized_ = true;
  return Status::ok();
}

void NodeProfiler::collect_now() {
  ++polls_;
  if (polls_metric_ != nullptr) polls_metric_->inc();
  bool all_delivered = true;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!poll_backend(i)) all_delivered = false;
  }
  if (!all_delivered) {
    ++degraded_polls_;
    if (degraded_polls_metric_ != nullptr) degraded_polls_metric_->inc();
  }
  if (buffer_hwm_metric_ != nullptr) {
    buffer_hwm_metric_->set_max(static_cast<double>(samples_.size()));
  }
}

void NodeProfiler::open_gap(std::size_t i, const std::string& reason) {
  gaps_.push_back(GapMarker{engine_->now(), std::string(backends_[i]->name()), true, reason});
  gap_open_[i] = true;
}

void NodeProfiler::close_gap(std::size_t i) {
  gaps_.push_back(GapMarker{engine_->now(), std::string(backends_[i]->name()), false, {}});
  gap_open_[i] = false;
}

bool NodeProfiler::poll_backend(std::size_t i) {
  Backend* backend = backends_[i];
  BackendHealth& health = health_[i];
  const BackendMetrics& metrics = backend_metrics_[i];
  const sim::SimTime now = engine_->now();
  const BackendState before = health.state();

  if (!health.should_poll(now)) {
    // Quarantined: the poll is suppressed outright — no query, no cost,
    // no error spam.  The gap opened when the failures began.
    if (metrics.health != nullptr) {
      metrics.health->set(static_cast<double>(health.state()));
    }
    return false;
  }

  bool delivered = false;
  std::string failure_reason;
  int retries_used = 0;
  for (;;) {
    const sim::Duration cost_before = collect_cost_.total();
    auto result = backend->collect(now, collect_cost_);
    const sim::Duration attempt_cost = collect_cost_.total() - cost_before;
    if (metrics.queries != nullptr) {
      metrics.queries->inc();
      metrics.latency_ms->observe(attempt_cost.to_millis());
    }
    if (retries_used > 0) health.spend_retry(attempt_cost);
    if (result) {
      for (auto& sample : result.value()) {
        // The cap is on lifetime samples, not buffer occupancy, so spool
        // mode drops at exactly the same point the unspooled path does.
        if (total_samples() >= options_.max_samples) {
          ++dropped_;
          if (dropped_metric_ != nullptr) dropped_metric_->inc();
          continue;
        }
        samples_.push_back(std::move(sample));
        if (samples_metric_ != nullptr) samples_metric_->inc();
      }
      delivered = true;
      break;
    }
    if (metrics.errors != nullptr) metrics.errors->inc();
    failure_reason = result.status().message();
    if (!health.may_retry(retries_used)) break;
    ++retries_used;
    if (metrics.retries != nullptr) metrics.retries->inc();
  }

  if (delivered) {
    health.on_poll_success(now);
    if (gap_open_[i]) close_gap(i);
  } else {
    health.on_poll_failure(now);
    if (!gap_open_[i]) open_gap(i, failure_reason);
  }
  if (health.state() != before && options_.recorder != nullptr) {
    options_.recorder->record(now, options_.recorder_node, "health", "backend.health",
                              std::string(backend->name()) + ": " +
                                  std::string(to_string(before)) + " -> " +
                                  std::string(to_string(health.state())));
  }
  if (metrics.health != nullptr) {
    metrics.health->set(static_cast<double>(health.state()));
  }
  return delivered;
}

Status NodeProfiler::start_tag(const std::string& name) {
  if (!initialized_ || finalized_) {
    return Status::failed_precondition("tagging requires an active profiler");
  }
  tags_.push_back(TagMarker{engine_->now(), name, true});
  return Status::ok();
}

Status NodeProfiler::end_tag(const std::string& name) {
  if (!initialized_ || finalized_) {
    return Status::failed_precondition("tagging requires an active profiler");
  }
  // An end tag must close an open start tag of the same name.
  const auto open = std::count_if(tags_.begin(), tags_.end(), [&](const TagMarker& t) {
    return t.name == name && t.is_start;
  });
  const auto closed = std::count_if(tags_.begin(), tags_.end(), [&](const TagMarker& t) {
    return t.name == name && !t.is_start;
  });
  if (open <= closed) {
    return Status::failed_precondition("end tag without start: " + name);
  }
  tags_.push_back(TagMarker{engine_->now(), name, false});
  return Status::ok();
}

Status NodeProfiler::finalize(const smpi::FileSystemModel* fs, OutputTarget* target) {
  if (!initialized_) {
    return Status::failed_precondition("MonEQ_Finalize before initialize()");
  }
  if (finalized_) {
    return Status::failed_precondition("MonEQ already finalized");
  }
  timer_.cancel();
  finalized_ = true;

  // A backend still dark at shutdown leaves its gap open; close it at
  // the run's end so every GAP_START has a matching GAP_END on disk.
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (gap_open_[i]) close_gap(i);
  }

  // Every node writes its own file; the collective completes when the
  // slowest write does, so the same duration lands on every rank.
  const Bytes file_bytes{static_cast<double>(total_samples()) * options_.bytes_per_sample};
  finalize_cost_ = world_->barrier_cost();
  if (fs != nullptr) {
    finalize_cost_ += fs->time_to_write(world_->size(), file_bytes);
  }
  if (target != nullptr) {
    const Status s = target->write(node_file_name(rank_), render_file());
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

void NodeProfiler::release_samples() {
  if (samples_.empty()) return;
  append_sample_rows(spool_, samples_);
  released_samples_ += samples_.size();
  samples_.clear();
}

std::string NodeProfiler::render_file() const {
  std::string out;
  // In spool mode the header is already the spool's first row.
  if (!options_.spool_samples || spool_.empty()) append_node_file_header(out);
  out += spool_;
  append_sample_rows(out, samples_);
  append_marker_rows(out, tags_, gaps_);
  return out;
}

std::string NodeProfiler::take_file() {
  if (!options_.spool_samples || spool_.empty()) return render_file();
  release_samples();
  std::string out = std::move(spool_);
  spool_ = std::string();
  append_marker_rows(out, tags_, gaps_);
  return out;
}

OverheadReport NodeProfiler::overhead() const {
  OverheadReport report;
  report.initialize = init_cost_;
  report.collection = collect_cost_.total();
  report.finalize = finalize_cost_;
  report.polls = polls_;
  return report;
}

}  // namespace envmon::moneq
