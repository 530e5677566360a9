// Self-observability tour: run a small heterogeneous-node scenario with
// a brief GPU outage and read back everything the obs layer recorded
// about it — the Prometheus scrape text, the JSON snapshot, and the
// flight recorder's post-mortem of the outage on the virtual clock.
// Narrates what each exported metric means.

#include <cstdio>
#include <memory>

#include "fault/injector.hpp"
#include "mic/card.hpp"
#include "mic/micras.hpp"
#include "moneq/backend_mic.hpp"
#include "moneq/backend_nvml.hpp"
#include "moneq/backend_rapl.hpp"
#include "moneq/profiler.hpp"
#include "nvml/api.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "rapl/reader.hpp"
#include "tsdb/database.hpp"
#include "workloads/library.hpp"

int main() {
  using namespace envmon;

  set_log_level(LogLevel::kInfo);
  obs::default_registry().reset_values();

  sim::Engine engine;
  // Log lines now carry `[t=...s]` virtual-time stamps.
  sim::ScopedLogClock log_clock(engine);
  // One flight recorder for the node: the injector records each fault
  // it fires, the profiler each backend health transition.
  obs::FlightRecorder recorder;
  fault::Injector injector(engine);
  injector.attach_recorder(&recorder, /*node=*/0);

  ENVMON_LOG(kInfo) << "assembling a CPU + GPU + Phi node";

  rapl::CpuPackage package(engine);
  rapl::MsrRaplReader reader(package, rapl::Credentials{true, 0});
  moneq::RaplBackend cpu_backend(reader);

  nvml::NvmlLibrary library(engine);
  library.attach_device(std::make_shared<nvml::GpuDevice>(nvml::k20_spec()));
  library.attach_fault_hook(injector);
  // The board drops off the bus for 2 s: long enough to quarantine it.
  injector.fail_between(fault::sites::kNvml, sim::SimTime::from_seconds(3.0),
                        sim::SimTime::from_seconds(5.0), StatusCode::kUnavailable,
                        "GPU fell off the bus");
  (void)library.init();
  nvml::NvmlDeviceHandle gpu;
  (void)library.device_get_handle_by_index(0, &gpu);
  moneq::NvmlBackend gpu_backend(library, gpu, "gpu_board");

  mic::PhiCard card(engine);
  mic::MicrasDaemon daemon(card);
  daemon.start();
  moneq::MicDaemonBackend phi_backend(daemon);

  const auto cpu_work = workloads::dgemm({sim::Duration::seconds(8), 0.8, 0.5});
  package.run_workload(&cpu_work, engine.now());

  smpi::World world(1);
  moneq::ProfilerOptions options;
  options.recorder = &recorder;  // health transitions land on the recorder
  options.recorder_node = 0;
  moneq::NodeProfiler profiler(engine, world, 0, options);
  if (!profiler.add_backend(cpu_backend).is_ok() ||
      !profiler.add_backend(gpu_backend).is_ok() ||
      !profiler.add_backend(phi_backend).is_ok() ||
      !profiler.set_polling_interval(sim::Duration::millis(500)).is_ok() ||
      !profiler.initialize().is_ok()) {
    return 1;
  }

  // Feed the profiler's power samples into the environmental database,
  // the way the BG/Q infrastructure lands sensor data in DB2.
  tsdb::EnvDatabase db;

  ENVMON_LOG(kInfo) << "running 8 s of virtual time";
  engine.run_until(sim::SimTime::from_seconds(8.0));
  if (!profiler.finalize().is_ok()) return 1;

  const tsdb::Location node = tsdb::board_location(0, 0, 0);
  for (const auto& s : profiler.samples()) {
    if (s.quantity != moneq::Quantity::kPowerWatts) continue;
    (void)db.insert({s.t, node, s.domain + "_power_w", s.value});
  }
  ENVMON_LOG(kInfo) << "stored " << db.size() << " power records in the tsdb";

  std::printf("\n----- Prometheus exposition (obs::export_prometheus) -----\n\n");
  std::printf("%s", obs::export_prometheus().c_str());

  std::printf("\n----- How to read it -----\n\n");
  std::printf(
      "envmon_backend_query_latency_ms{backend=...}  per-query collection cost; the\n"
      "    histogram means reproduce the paper's table: rapl_msr ~0.03 ms/query,\n"
      "    nvml ~1.3 ms/query, mic daemon/API per their paths.\n"
      "envmon_backend_queries_total / _errors_total  query volume and failure rate\n"
      "    per vendor mechanism; the nvml errors are the injected outage.\n"
      "envmon_backend_health{backend=...}            0 healthy, 1 degraded,\n"
      "    2 quarantined, 3 recovered; the post-mortem below has each transition.\n"
      "envmon_fault_injected_total{site=...}         faults the injector fired.\n"
      "envmon_profiler_polls_total                   SIGALRM-equivalent poll ticks.\n"
      "envmon_profiler_samples_total / dropped       buffer traffic; the high_water\n"
      "    gauge is the deepest the pre-allocated sample array ever got.\n"
      "envmon_sim_events_total / queue_depth         discrete-event engine activity.\n"
      "envmon_tsdb_inserts_total / rejected          environmental-database ingest,\n"
      "    with rejects from the DB2-style rate ceiling.\n");

  std::printf("\n----- JSON snapshot (obs::export_json), for scripts -----\n\n");
  std::printf("%s\n", obs::export_json().c_str());

  std::printf("\n----- Post-mortem (obs::dump_post_mortem of the flight recorder) -----\n\n");
  const obs::FlightRecorder* recorders[] = {&recorder};
  std::printf("%s", obs::dump_post_mortem("manual", recorders).c_str());
  return 0;
}
