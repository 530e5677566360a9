#pragma once
// Deterministic fault injection for backend-facing surfaces.
//
// The paper's §IV "stated limitations" are a catalogue of the ways each
// vendor mechanism fails in the field: EMON returns nothing before its
// first generation, /dev/cpu/*/msr vanishes without root, NVML boards
// fall off the bus, the Phi's in-band path can stall for tens of
// milliseconds, daemons get oom-killed.  This module makes those failure
// modes *schedulable*: an Injector holds per-site fault scripts on the
// virtual clock, and every instrumented surface (RAPL MSR reads, NVML
// calls, SCIF round trips, MICRAS pseudo-file reads, EMON snapshots,
// IPMB frames, tsdb inserts) asks it before completing an operation.
//
// Everything is deterministic: schedules are explicit, intermittent
// flapping draws from a per-site RNG forked from one seed by a stable
// hash of the site name, and time comes from the discrete-event engine —
// so a fault storm replays bit-identically given the same seed
// (the property Resilience.NvmlStormReplaysExactlyAndSparesSurvivors
// gates on).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace envmon::fault {

/// Canonical site names used by the built-in hooks.  Sites are free-form
/// strings; these constants just keep callers and schedules in agreement.
namespace sites {
inline constexpr std::string_view kRaplMsr = "rapl_msr";
inline constexpr std::string_view kNvml = "nvml";
inline constexpr std::string_view kMicScif = "mic_scif";
inline constexpr std::string_view kMicras = "mic_micras";
inline constexpr std::string_view kEmon = "bgq_emon";
inline constexpr std::string_view kIpmb = "ipmb";
inline constexpr std::string_view kTsdb = "tsdb";
}  // namespace sites

/// What one intercepted operation must do, decided by the Injector.
///
/// `status` is OK unless a failure fired; `extra_latency` models stalls
/// and timeouts and should be charged to the surface's cost meter even
/// when the operation otherwise succeeds; `corrupted` flags that the
/// surface should pass its reading through corrupt_value() before
/// returning it.
struct Outcome {
  Status status;
  sim::Duration extra_latency{};
  bool corrupted = false;
  double scale = 1.0;
  double offset = 0.0;

  /// Applies the scheduled corruption to a reading (identity when clean).
  [[nodiscard]] double corrupt_value(double v) const {
    return corrupted ? v * scale + offset : v;
  }
  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// Scripted fault schedules, evaluated on the virtual clock.
///
/// All schedule methods may be called at any time, including mid-run
/// from engine callbacks.  Windows are half-open: [from, to).  A site
/// accumulates independent rule lists; on intercept() the rules compose
/// as: delays sum, the first matching failure rule (kill > fail_next >
/// fail window > flap) decides the status, and corruption applies only
/// to operations that still succeed.
class Injector {
 public:
  /// `engine` supplies the clock; `seed` drives every flap decision.
  explicit Injector(sim::Engine& engine, std::uint64_t seed = 0x5eedfa17u);

  /// When attached, every injected fault is recorded on the flight
  /// recorder as a deterministic "fault"/"fault.inject" event (detail =
  /// "<site>: <what>") tagged with `node` (the owning fleet rank, or -1
  /// for standalone use).
  void attach_recorder(obs::FlightRecorder* recorder, int node = -1) {
    recorder_ = recorder;
    recorder_node_ = node;
  }

  /// The next `count` operations at `site` fail with `code` (transient
  /// errors — a stray EINTR, one bad SCIF round trip).
  void fail_next(std::string_view site, StatusCode code, std::string message, int count = 1);

  /// Every operation inside [from, to) fails with `code` (a daemon
  /// restart window, a permissions change that gets rolled back).
  void fail_between(std::string_view site, sim::SimTime from, sim::SimTime to,
                    StatusCode code, std::string message);

  /// Permanent device loss from `at` on (XID-style bus fall-off).  A
  /// later revive_at() models re-seating the device.
  void kill_at(std::string_view site, sim::SimTime at, std::string message = "device lost");

  /// Ends an earlier kill_at() from `at` on.
  void revive_at(std::string_view site, sim::SimTime at);

  /// Intermittent flapping: inside [from, to) each operation fails with
  /// probability `fail_probability`, drawn from the site's seeded RNG —
  /// the nvidia-smi-style silent sample loss of arXiv:2312.02741.
  void flap_between(std::string_view site, sim::SimTime from, sim::SimTime to,
                    double fail_probability, StatusCode code, std::string message);

  /// Latency spike: operations inside [from, to) stall `extra` longer
  /// (the Phi's tens-of-milliseconds in-band holds).  Compose several
  /// overlapping windows to shape a spike.
  void delay_between(std::string_view site, sim::SimTime from, sim::SimTime to,
                     sim::Duration extra);

  /// Corrupt readings inside [from, to): surfaces report
  /// value * scale + offset (stuck-at scale=0, bias offset!=0, ...).
  void corrupt_between(std::string_view site, sim::SimTime from, sim::SimTime to,
                       double scale, double offset = 0.0);

  /// Decides the fate of one operation at `site` at the engine's current
  /// virtual time.  Deterministic given the schedule, the seed, and the
  /// call sequence.  Unknown sites are clean (hooks can stay attached
  /// with nothing scheduled).
  [[nodiscard]] Outcome intercept(std::string_view site);

  /// Operations intercepted at `site` (clean or not).
  [[nodiscard]] std::uint64_t intercepts(std::string_view site) const;
  /// Operations at `site` that had a fault injected (failure, stall, or
  /// corruption).
  [[nodiscard]] std::uint64_t injected(std::string_view site) const;
  /// Faults injected across all sites.
  [[nodiscard]] std::uint64_t injected_total() const { return injected_total_; }

 private:
  struct FailWindow {
    sim::SimTime from, to;
    StatusCode code;
    std::string message;
    double probability = 1.0;  // < 1.0 for flap windows
  };
  struct DelayWindow {
    sim::SimTime from, to;
    sim::Duration extra;
  };
  struct CorruptWindow {
    sim::SimTime from, to;
    double scale, offset;
  };
  struct Site {
    int fail_next = 0;
    StatusCode fail_next_code = StatusCode::kUnavailable;
    std::string fail_next_message;
    std::optional<sim::SimTime> kill_time;
    std::optional<sim::SimTime> revive_time;
    std::string kill_message;
    std::vector<FailWindow> failures;  // scheduled + flap windows
    std::vector<DelayWindow> delays;
    std::vector<CorruptWindow> corruptions;
    Rng rng;
    std::uint64_t intercepts = 0;
    std::uint64_t injected = 0;
    obs::Counter* injected_metric = nullptr;
  };

  Site& site(std::string_view name);
  void note_injection(Site& s, std::string_view name, std::string_view what);

  sim::Engine* engine_;
  std::uint64_t seed_;
  obs::FlightRecorder* recorder_ = nullptr;
  int recorder_node_ = -1;
  std::map<std::string, Site, std::less<>> sites_;
  std::uint64_t injected_total_ = 0;
};

/// A named attach point owned by a backend-facing surface.
///
/// Surfaces hold a Hook and call intercept() at the top of each
/// operation; a detached hook (the default) is free and always clean, so
/// instrumented modules pay nothing when no injector is wired up.
class Hook {
 public:
  Hook() = default;

  /// Routes this surface's operations through `injector` under `site`.
  void attach(Injector& injector, std::string site) {
    injector_ = &injector;
    site_ = std::move(site);
  }
  void detach() { injector_ = nullptr; }
  [[nodiscard]] bool attached() const { return injector_ != nullptr; }

  /// Clean outcome when detached; the injector's verdict otherwise.
  [[nodiscard]] Outcome intercept() const {
    return injector_ == nullptr ? Outcome{} : injector_->intercept(site_);
  }

 private:
  Injector* injector_ = nullptr;
  std::string site_;
};

}  // namespace envmon::fault
