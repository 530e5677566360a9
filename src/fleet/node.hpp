#pragma once
// One node of the simulated fleet: a self-contained virtual-clock
// partition.
//
// Determinism across worker counts rests entirely on this class: a
// FleetNode owns its *own* sim::Engine plus every piece of simulated
// hardware its backends read (node board, CPU package, GPU, Phi card),
// its own fault::Injector, and its own NodeProfiler.  Nothing a worker
// thread does to one node can observe or perturb another node — so the
// per-node sample stream is a pure function of (rank, seed, spec,
// workload), and sharding nodes across any number of workers cannot
// change it.  The only shared mutable state is the obs registry, whose
// series are atomics (sums are order-independent).
//
// A node's clock advances in lockstep epochs driven by the FleetRunner;
// between epochs the runner drains the samples recorded since the last
// drain as tsdb records for the ordered ingest path (ingest.hpp).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgq/emon.hpp"
#include "bgq/machine.hpp"
#include "common/status.hpp"
#include "fault/injector.hpp"
#include "mic/card.hpp"
#include "mic/micras.hpp"
#include "mic/scif.hpp"
#include "mic/sysmgmt.hpp"
#include "moneq/factory.hpp"
#include "moneq/health.hpp"
#include "moneq/output.hpp"
#include "moneq/profiler.hpp"
#include "nvml/api.hpp"
#include "nvml/device.hpp"
#include "rapl/package.hpp"
#include "rapl/reader.hpp"
#include "sim/engine.hpp"
#include "smpi/smpi.hpp"
#include "tsdb/database.hpp"

namespace envmon::fleet {
inline namespace v2 {

// What lands in the environmental database per node.
enum class IngestMode : std::uint8_t {
  // Every recorded sample becomes one record ("moneq_<domain>"), the
  // store_node_samples() convention — full fidelity, heaviest ingest.
  kPerSample = 0,
  // One record per poll tick: the sum of that tick's power-quantity
  // samples ("moneq_node_power_watts") — the board-level granularity the
  // real environmental database keeps (paper §II-A).
  kNodePower,
};

// Configuration every node of a homogeneous fleet shares.  One instance
// per fleet, read-only after configure(): at 100k nodes, per-node copies
// of the capability list alone would be 100k needless heap blocks.
struct NodeDefaults {
  std::vector<moneq::Capability> capabilities{moneq::Capability::kBgqEmon};
  std::optional<sim::Duration> polling_interval;
  // Shared read-only workload profile; must outlive the nodes.
  const power::UtilizationProfile* workload = nullptr;
  IngestMode ingest = IngestMode::kPerSample;
  // Pre-reservation for each node's sample spool, estimated by the
  // runner from horizon / polling interval (0 = grow geometrically).
  std::size_t spool_reserve_bytes = 0;
};

// The per-node remainder: what actually differs between ranks.
struct NodeOptions {
  int rank = 0;
  // Per-node RNG seed (already mixed with the rank by the runner).
  std::uint64_t seed = 0;
  // Shared fleet config; owned by the runner, must outlive the node.
  const NodeDefaults* defaults = nullptr;
  // Per-node telemetry partition for the profiler's self-observability
  // series (nullptr = process-global default registry).  Owned by the
  // runner's FleetTelemetry; must outlive the node.
  obs::Registry* registry = nullptr;
  // Per-node flight recorder for fault / health events (nullptr = none).
  obs::FlightRecorder* recorder = nullptr;
};

class FleetNode {
 public:
  // `world` is shared and read-only (collective cost model).
  FleetNode(const smpi::World& world, NodeOptions options);
  FleetNode(const FleetNode&) = delete;
  FleetNode& operator=(const FleetNode&) = delete;

  // Builds the substrate named by the capability list, attaches the
  // backends through moneq::make_backend, wires fault hooks, and
  // initializes the profiler.  Safe off the main thread when the node
  // has its own registry partition: everything it touches is per-node,
  // and the shared fallback (obs::default_registry) is mutex-guarded and
  // idempotent.  The work-stealing runner builds nodes lazily, on the
  // worker that first advances their shard.
  Status configure();

  // Advances this node's clock partition to `t` (worker thread).
  void advance_to(sim::SimTime t) { engine_.run_until(t); }

  // Converts samples recorded since the previous drain into tsdb
  // records (worker thread; touches only this node's state).
  void drain(std::vector<tsdb::Record>& out);

  // Stops collection and renders the node file into memory (worker
  // thread); the runner writes files out in node order afterwards.
  Status finalize(const smpi::FileSystemModel* fs, bool render);

  [[nodiscard]] int rank() const { return options_.rank; }
  [[nodiscard]] const std::string& file_name() const { return file_name_; }
  [[nodiscard]] const std::string& file_content() const { return file_content_; }
  // Frees the rendered file after the runner has written it, so peak
  // file-text memory drains node by node during write-out instead of
  // lingering for the whole fleet.
  void release_file_content() {
    file_content_.clear();
    file_content_.shrink_to_fit();
  }
  [[nodiscard]] const moneq::NodeProfiler& profiler() const { return *profiler_; }
  [[nodiscard]] fault::Injector& injector() { return *injector_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  // Heartbeat evidence for the fleet failure detector: true while at
  // least one backend is not quarantined.  Read at epoch boundaries by
  // the worker that owns the node (pure per-node state).
  [[nodiscard]] bool heartbeat() const;

 private:
  Status build_substrate(moneq::BackendConfig& config, moneq::Capability capability);

  const smpi::World* world_;
  NodeOptions options_;

  sim::Engine engine_;
  std::unique_ptr<fault::Injector> injector_;

  // Vendor substrate, built on demand per capability.
  std::unique_ptr<bgq::NodeBoard> board_;
  std::unique_ptr<bgq::EmonSession> emon_;
  std::unique_ptr<rapl::CpuPackage> package_;
  std::unique_ptr<rapl::MsrRaplReader> rapl_reader_;
  std::unique_ptr<nvml::NvmlLibrary> nvml_;
  std::unique_ptr<mic::PhiCard> phi_;
  std::unique_ptr<mic::ScifNetwork> scif_;
  std::unique_ptr<mic::SysMgmtService> sysmgmt_;
  std::optional<mic::SysMgmtClient> mic_client_;
  std::unique_ptr<mic::MicrasDaemon> micras_;

  std::vector<std::unique_ptr<moneq::Backend>> backends_;
  std::unique_ptr<moneq::NodeProfiler> profiler_;

  tsdb::Location location_;
  std::string file_name_;
  std::string file_content_;
};

}  // namespace v2
}  // namespace envmon::fleet
