#pragma once
// The MonEQ profiler.
//
// Lifecycle mirrors the paper's Listing 1:
//
//   MonEQ_Initialize()  — allocates the sample array up front (memory
//                         overhead is a scale-independent constant),
//                         registers the SIGALRM-equivalent periodic
//                         timer at the chosen polling interval;
//   <user code>         — the only runtime overhead is the periodic
//                         collection call into the vendor mechanism;
//   MonEQ_Finalize()    — cancels the timer, gathers, and writes one
//                         file per node through the shared filesystem
//                         (the only phase whose cost scales with nodes,
//                         Table III).
//
// In its default mode the profiler polls at the lowest interval the
// attached backends support; users may set any valid interval.  Tagging
// wraps code regions with markers injected into the output post-run.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "moneq/backend.hpp"
#include "moneq/health.hpp"
#include "moneq/output.hpp"
#include "moneq/sample.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sim/cost.hpp"
#include "sim/engine.hpp"
#include "smpi/smpi.hpp"

namespace envmon::moneq {

struct ProfilerOptions {
  // Default: the minimum across attached backends.
  std::optional<sim::Duration> polling_interval;
  // The pre-allocated sample buffer ("allocated to a reasonably large
  // number", §III) — when full, further samples are dropped and counted.
  std::size_t max_samples = 1u << 20;
  // Initialization cost model: set up data structures and register
  // timers, plus a small per-tree-level term for the collective that
  // agrees on start time (fits Table III's 2.7 -> 3.3 ms growth).
  sim::Duration init_base_cost = sim::Duration::micros(2200);
  sim::Duration init_per_level_cost = sim::Duration::micros(100);
  // Estimated bytes per recorded sample in the output file (sizing the
  // finalize write).
  double bytes_per_sample = 34.0;
  // Registry receiving the profiler's self-observability series; nullptr
  // means the process-global default registry.  Fleet nodes pass their
  // own partition so the fleet rollup stays deterministic.
  obs::Registry* registry = nullptr;
  // When set, backend health transitions land on the flight recorder as
  // deterministic "health"/"backend.health" events tagged recorder_node.
  obs::FlightRecorder* recorder = nullptr;
  int recorder_node = -1;
  // Graceful-degradation knobs: bounded retries, quarantine threshold,
  // and backoff shape shared by every attached backend (each backend
  // still tracks its own state).  See moneq/health.hpp.
  DegradationPolicy degradation;
  // Spool mode (the fleet engine sets this): the caller periodically
  // calls release_samples(), which renders buffered samples into the
  // node-file spool and frees the structs, so per-node memory scales
  // with rendered CSV text instead of retained Sample objects — and the
  // buffer is not pre-reserved to max_samples.  The max_samples drop cap
  // still applies to the lifetime total, and render_file() produces
  // bytes identical to the unspooled path.
  bool spool_samples = false;
  // Pre-reserve for the spool (0 = geometric growth).  The fleet engine
  // sizes this from horizon/polling: 100k node spools growing by
  // doubling in lockstep strand every freed half-size block in the
  // allocator, roughly doubling resident memory per node.
  std::size_t spool_reserve_bytes = 0;
};

struct OverheadReport {
  sim::Duration initialize;
  sim::Duration collection;
  sim::Duration finalize;
  std::uint64_t polls = 0;

  [[nodiscard]] sim::Duration total() const { return initialize + collection + finalize; }
  [[nodiscard]] double overhead_fraction(sim::Duration app_runtime) const {
    if (app_runtime.ns() <= 0) return 0.0;
    return static_cast<double>(total().ns()) / static_cast<double>(app_runtime.ns());
  }
};

class NodeProfiler {
 public:
  // `world` scales the init/finalize cost models; `rank` names the
  // output file.  The engine drives the virtual clock.
  NodeProfiler(sim::Engine& engine, const smpi::World& world, int rank,
               ProfilerOptions options = {});

  // Backends are non-owning: the vendor sessions they wrap belong to the
  // caller (you "link with the appropriate libraries").  Must be called
  // before initialize().
  Status add_backend(Backend& backend);

  // Must be called before initialize(); validated against every attached
  // backend's min/max interval.
  Status set_polling_interval(sim::Duration interval);

  Status initialize();
  [[nodiscard]] bool initialized() const { return initialized_; }

  // Tagging (6 lines of code for 3 work loops, per the paper).
  Status start_tag(const std::string& name);
  Status end_tag(const std::string& name);

  // Finalize: stop collection, account the write-out, render the file.
  // `fs` models the shared filesystem (nullptr = free writes); `target`
  // receives the rendered file (nullptr = discard).
  Status finalize(const smpi::FileSystemModel* fs = nullptr, OutputTarget* target = nullptr);

  // The buffered (not yet released) samples.  Without spool mode this is
  // the full history; with it, the tail since the last release_samples().
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  // Lifetime sample count, released or not — what samples().size() was
  // before spool mode existed.
  [[nodiscard]] std::uint64_t total_samples() const {
    return released_samples_ + samples_.size();
  }
  // Renders buffered samples into the node-file spool and clears the
  // buffer (keeping its capacity).  Cheap no-op when nothing is buffered.
  void release_samples();
  // The complete node file: header, spooled + buffered sample rows in
  // collection order, then tag and gap markers.
  [[nodiscard]] std::string render_file() const;
  // Destructive render_file(): in spool mode the spool is moved into the
  // result instead of copied, leaving the profiler without its sample
  // text.  At 100k nodes the non-destructive copy would briefly double
  // the dominant per-node allocation; call this once, at write-out.
  [[nodiscard]] std::string take_file();
  [[nodiscard]] const std::vector<TagMarker>& tags() const { return tags_; }
  [[nodiscard]] std::size_t dropped_samples() const { return dropped_; }
  [[nodiscard]] sim::Duration polling_interval() const { return interval_; }
  [[nodiscard]] OverheadReport overhead() const;

  // The health state machine of the i-th attached backend (attachment
  // order).  Valid after initialize().
  [[nodiscard]] const BackendHealth& backend_health(std::size_t i) const {
    return health_[i];
  }
  // Collection gaps observed so far: one start/end marker pair per
  // contiguous stretch of polls where a backend delivered nothing.
  // Still-open gaps are closed at finalize() time.
  [[nodiscard]] const std::vector<GapMarker>& gaps() const { return gaps_; }
  // Poll ticks where at least one backend failed or was quarantined.
  // (The old collection_errors() flat log is gone: backend_health(i)
  // gives per-backend liveness and failure counts, gaps() gives the
  // coverage holes with reasons.)
  [[nodiscard]] std::uint64_t degraded_polls() const { return degraded_polls_; }

 private:
  void collect_now();
  [[nodiscard]] sim::Duration effective_interval() const;
  // One backend's slice of a poll: attempt + bounded retries, health
  // transition, gap bookkeeping.  Returns whether samples were recorded.
  bool poll_backend(std::size_t i);
  void open_gap(std::size_t i, const std::string& reason);
  void close_gap(std::size_t i);

  // Per-backend self-observability series, labeled backend="<name>".
  // Null handles when obs was disabled at initialize().
  struct BackendMetrics {
    obs::Counter* queries = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency_ms = nullptr;
    obs::Gauge* health = nullptr;
    obs::Counter* retries = nullptr;
  };

  sim::Engine* engine_;
  const smpi::World* world_;
  int rank_;
  ProfilerOptions options_;

  std::vector<Backend*> backends_;
  std::vector<BackendMetrics> backend_metrics_;
  obs::Counter* polls_metric_ = nullptr;
  obs::Counter* samples_metric_ = nullptr;
  obs::Counter* dropped_metric_ = nullptr;
  obs::Counter* degraded_polls_metric_ = nullptr;
  obs::Gauge* buffer_hwm_metric_ = nullptr;
  std::vector<Sample> samples_;
  std::string spool_;  // CSV rows of released samples, in order
  std::uint64_t released_samples_ = 0;
  std::vector<TagMarker> tags_;
  std::size_t dropped_ = 0;

  std::vector<BackendHealth> health_;
  std::vector<bool> gap_open_;  // per backend: a GAP_START awaits its end
  std::vector<GapMarker> gaps_;
  std::uint64_t degraded_polls_ = 0;

  bool initialized_ = false;
  bool finalized_ = false;
  sim::Duration interval_{};
  sim::TimerHandle timer_;

  sim::Duration init_cost_{};
  sim::CostMeter collect_cost_;
  sim::Duration finalize_cost_{};
  std::uint64_t polls_ = 0;
};

}  // namespace envmon::moneq
