#pragma once
// The fault flight recorder: a bounded ring buffer of structured events
// on the virtual clock, dumped as a deterministic post-mortem when
// something goes wrong.
//
// The paper's study had no answer to "which node caused that gap" once
// a run was over; the fleet engine needs one.  Each FleetNode owns a
// FlightRecorder fed by its injector (fault injections) and profiler
// (health transitions); the runner owns one more for fleet-level events
// (epoch seals, retention drops, ingest-queue stalls).  Because every
// per-node recorder is advanced only by the worker that owns its node,
// and fleet-level deterministic events come from single-threaded code
// (the ingest thread, the barrier completion step), the merged timeline
// is a pure function of (seed, config) — byte-identical at any worker
// count, the property tests/obs_fleet_telemetry_test.cpp gates.
//
// Events carry an EventClass: kDeterministic events replay exactly;
// kTiming events (queue stalls) depend on wall-clock
// scheduling and live in a separate ring so they can never evict — or
// perturb — the deterministic record.  dump_post_mortem() excludes them
// unless explicitly asked.

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace envmon::obs {

enum class EventClass : std::uint8_t {
  kDeterministic = 0,  // pure function of (seed, config); safe to golden-test
  kTiming = 1,         // wall-clock dependent (queue stalls)
};

struct RecorderEvent {
  sim::SimTime t;        // virtual time (fleet-level events use the epoch boundary)
  int node = -1;         // fleet rank; -1 for fleet-level events
  std::string category;  // "fault", "health", "seal", "retention", "queue", ...
  std::string name;
  std::string detail;
  std::uint64_t seq = 0;  // per-recorder monotonic; breaks (t, node) ties
};

// Bounded ring of events.  Thread-safe (a mutex on the record path — the
// recorder is a cold path by design: faults, transitions, and seals are
// rare next to samples), but deterministic content requires the caller
// discipline described above.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 256);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(sim::SimTime t, int node, std::string_view category, std::string_view name,
              std::string_view detail = "", EventClass event_class = EventClass::kDeterministic);

  // Surviving window of each ring, oldest first.
  [[nodiscard]] std::vector<RecorderEvent> events() const;
  [[nodiscard]] std::vector<RecorderEvent> timing_events() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Events recorded / evicted by ring wraparound, per class.
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::uint64_t timing_recorded() const;
  [[nodiscard]] std::uint64_t timing_dropped() const;

 private:
  struct Ring {
    std::vector<RecorderEvent> events;
    std::size_t next = 0;  // insertion point once full
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t next_seq = 0;
  };

  void push(Ring& ring, sim::SimTime t, int node, std::string_view category,
            std::string_view name, std::string_view detail);
  [[nodiscard]] static std::vector<RecorderEvent> window(const Ring& ring);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  Ring deterministic_;
  Ring timing_;

  Counter* events_metric_ = nullptr;
  Counter* dropped_metric_ = nullptr;
};

// Merges the surviving events of several recorders into one timeline
// ordered by (virtual time, node, per-recorder seq) — deterministic as
// long as each recorder's own content is.
[[nodiscard]] std::vector<RecorderEvent> merge_events(
    std::span<const FlightRecorder* const> recorders, bool include_timing = false);

// Renders the merged timeline as the post-mortem JSON document:
//   {"trigger": ..., "events": [{"t_ns": ..., "node": ..., ...}, ...],
//    "recorded": N, "dropped": M}
// Timestamps are integer nanoseconds, so the output is byte-exact.
// `trigger` says why the dump exists ("backend quarantined: ...",
// "node declared dead: ...", or "manual").
[[nodiscard]] std::string dump_post_mortem(std::string_view trigger,
                                           std::span<const FlightRecorder* const> recorders,
                                           bool include_timing = false);

}  // namespace envmon::obs
