#include "fleet/node.hpp"

namespace envmon::fleet {
inline namespace v2 {

namespace {

// BG/Q addressing for a rank, mirroring moneq::node_location().
constexpr int kCardsPerBoard = 32;
constexpr int kBoardsPerMidplane = 16;
constexpr int kMidplanesPerRack = 2;

}  // namespace

FleetNode::FleetNode(const smpi::World& world, NodeOptions options)
    : world_(&world),
      options_(std::move(options)),
      injector_(std::make_unique<fault::Injector>(engine_, options_.seed)),
      location_(moneq::node_location(options_.rank)),
      file_name_(moneq::node_file_name(options_.rank)) {}

Status FleetNode::build_substrate(moneq::BackendConfig& config,
                                  moneq::Capability capability) {
  const sim::SimTime start = sim::SimTime::zero();
  switch (capability) {
    case moneq::Capability::kBgqEmon: {
      const int board_index = (options_.rank / kCardsPerBoard) % kBoardsPerMidplane;
      const int midplane =
          (options_.rank / (kCardsPerBoard * kBoardsPerMidplane)) % kMidplanesPerRack;
      const int rack = options_.rank / (kCardsPerBoard * kBoardsPerMidplane * kMidplanesPerRack);
      board_ = std::make_unique<bgq::NodeBoard>(rack, midplane, board_index);
      if (options_.defaults->workload != nullptr) {
        board_->model().run_workload(options_.defaults->workload, start);
      }
      emon_ = std::make_unique<bgq::EmonSession>(*board_);
      emon_->attach_fault_hook(*injector_);
      config.emon = emon_.get();
      return Status::ok();
    }
    case moneq::Capability::kRaplMsr: {
      rapl::PackageConfig package_config;
      package_config.seed = options_.seed;
      package_ = std::make_unique<rapl::CpuPackage>(engine_, package_config);
      if (options_.defaults->workload != nullptr) {
        package_->run_workload(options_.defaults->workload, start);
      }
      rapl_reader_ =
          std::make_unique<rapl::MsrRaplReader>(*package_, rapl::Credentials{true, 0});
      rapl_reader_->attach_fault_hook(*injector_);
      config.rapl = rapl_reader_.get();
      return Status::ok();
    }
    case moneq::Capability::kNvml: {
      nvml_ = std::make_unique<nvml::NvmlLibrary>(engine_);
      auto device = std::make_shared<nvml::GpuDevice>(nvml::k20_spec(), options_.seed);
      if (options_.defaults->workload != nullptr) {
        device->run_workload(options_.defaults->workload, start);
      }
      nvml_->attach_device(std::move(device));
      nvml_->attach_fault_hook(*injector_);
      if (nvml_->init() != nvml::NvmlReturn::kSuccess) {
        return Status::unavailable("nvml init failed");
      }
      nvml::NvmlDeviceHandle handle;
      if (nvml_->device_get_handle_by_index(0, &handle) != nvml::NvmlReturn::kSuccess) {
        return Status::unavailable("nvml device handle unavailable");
      }
      config.nvml = nvml_.get();
      config.nvml_handle = handle;
      config.nvml_label = "gpu_board";
      return Status::ok();
    }
    case moneq::Capability::kMicSysMgmt: {
      if (phi_ == nullptr) {
        phi_ = std::make_unique<mic::PhiCard>(engine_);
        if (options_.defaults->workload != nullptr) phi_->run_workload(options_.defaults->workload, start);
      }
      scif_ = std::make_unique<mic::ScifNetwork>();
      sysmgmt_ = std::make_unique<mic::SysMgmtService>(*phi_, *scif_, 1);
      auto client = mic::SysMgmtClient::connect(*scif_, 1);
      if (!client.is_ok()) return client.status();
      mic_client_.emplace(std::move(client.value()));
      mic_client_->attach_fault_hook(*injector_);
      config.mic_client = &*mic_client_;
      return Status::ok();
    }
    case moneq::Capability::kMicDaemon: {
      if (phi_ == nullptr) {
        phi_ = std::make_unique<mic::PhiCard>(engine_);
        if (options_.defaults->workload != nullptr) phi_->run_workload(options_.defaults->workload, start);
      }
      micras_ = std::make_unique<mic::MicrasDaemon>(*phi_);
      micras_->attach_fault_hook(*injector_);
      micras_->start();
      config.mic_daemon = micras_.get();
      return Status::ok();
    }
  }
  return Status::invalid_argument("unknown capability");
}

Status FleetNode::configure() {
  if (profiler_ != nullptr) {
    return Status::failed_precondition("node already configured");
  }
  if (options_.defaults == nullptr || options_.defaults->capabilities.empty()) {
    return Status::invalid_argument("node has no capabilities");
  }
  moneq::BackendConfig config;
  for (const moneq::Capability capability : options_.defaults->capabilities) {
    if (const Status s = build_substrate(config, capability); !s.is_ok()) return s;
    auto backend = moneq::make_backend(capability, config);
    if (!backend.is_ok()) return backend.status();
    backends_.push_back(std::move(backend.value()));
  }

  moneq::ProfilerOptions profiler_options;
  profiler_options.polling_interval = options_.defaults->polling_interval;
  // Drained samples are spooled into the node file and released each
  // epoch: at 100k nodes, retaining every Sample struct for the whole
  // horizon is what blows the memory budget.
  profiler_options.spool_samples = true;
  profiler_options.spool_reserve_bytes = options_.defaults->spool_reserve_bytes;
  profiler_options.registry = options_.registry;
  profiler_options.recorder = options_.recorder;
  profiler_options.recorder_node = options_.rank;
  if (options_.recorder != nullptr) {
    injector_->attach_recorder(options_.recorder, options_.rank);
  }
  profiler_ = std::make_unique<moneq::NodeProfiler>(engine_, *world_, options_.rank,
                                                    profiler_options);
  for (auto& backend : backends_) {
    if (const Status s = profiler_->add_backend(*backend); !s.is_ok()) return s;
  }
  return profiler_->initialize();
}

void FleetNode::drain(std::vector<tsdb::Record>& out) {
  // In spool mode the buffer holds exactly the samples collected since
  // the previous drain; releasing afterwards renders them into the node
  // file spool and frees the structs.
  const std::vector<moneq::Sample>& samples = profiler_->samples();
  if (options_.defaults->ingest == IngestMode::kPerSample) {
    for (const moneq::Sample& s : samples) {
      out.push_back({s.t, location_, "moneq_" + s.domain, s.value});
    }
  } else {
    // One record per poll tick: every sample of a tick carries the same
    // timestamp, so groups are contiguous runs of equal t.
    std::size_t i = 0;
    while (i < samples.size()) {
      const sim::SimTime tick = samples[i].t;
      double watts = 0.0;
      bool any_power = false;
      for (; i < samples.size() && samples[i].t == tick; ++i) {
        if (samples[i].quantity == moneq::Quantity::kPowerWatts) {
          watts += samples[i].value;
          any_power = true;
        }
      }
      if (any_power) {
        out.push_back({tick, location_, "moneq_node_power_watts", watts});
      }
    }
  }
  profiler_->release_samples();
}

bool FleetNode::heartbeat() const {
  if (profiler_ == nullptr) return false;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (profiler_->backend_health(i).state() != moneq::BackendState::kQuarantined) return true;
  }
  return false;
}

Status FleetNode::finalize(const smpi::FileSystemModel* fs, bool render) {
  const Status s = profiler_->finalize(fs, nullptr);
  if (!s.is_ok()) return s;
  if (render) {
    // Moves the spool out of the profiler: the rendered CSV exists once,
    // here, until the runner writes and releases it.
    file_content_ = profiler_->take_file();
  }
  return Status::ok();
}

}  // namespace v2
}  // namespace envmon::fleet
