// Fleet collection at 100k-node scale behind the work-stealing shard
// scheduler (src/fleet/), gating the properties the engine was built
// for:
//
//   gate 1 (determinism): the same seed must produce byte-identical
//           per-node files and database contents at 1, 2, and 8 worker
//           threads — parallelism must be unobservable in the output.
//   gate 2 (throughput): sharding must actually buy wall time.  On a
//           machine with >= 8 hardware threads the 8-worker run must be
//           >= 3x the 1-worker run.  On 2-7 hardware threads the gate
//           scales to what physically exists (>= 0.45x per hardware
//           thread).  On a single-core host a parallel speedup is
//           *unmeasurable* — the JSON records "skipped_single_core"
//           rather than a vacuous pass — but oversubscription must
//           still be cheap: the 8-worker run must stay within 40% of
//           the sequential one.  The measured hardware_concurrency is
//           recorded so the numbers are interpretable anywhere.
//   gate 3 (memory): 100k nodes must actually fit.  The sequential
//           run's resident-set growth per node must stay under a fixed
//           envelope plus the node's rendered CSV (lazy construction,
//           shared defaults, sample spooling, and write-time release
//           are what keep it there).
//   gate 4 (self-overhead): telemetry capture + rollup folds +
//           self-scrape rows must cost <= 1% of the sequential run's
//           wall time (<= 2.5% for the short-horizon smoke shape).
//
// Regenerate BENCH_fleet.json via `./build/bench/fleet_scale` (full
// size; several minutes of virtual fleet).  `--smoke` runs a 4096-node
// short-horizon variant for CI and does NOT touch BENCH_fleet.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "fleet/api.hpp"
#include "moneq/output.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "tsdb/export.hpp"

// malloc_trim is glibc-only; elsewhere the trim is skipped (it only
// bounds peak memory).  <cstdint> above has defined __GLIBC__ by now.
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {

namespace fleet = envmon::fleet;
namespace moneq = envmon::moneq;
using envmon::sim::Duration;

// FNV-1a, so output digests are stable and printable.
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Streams node files into a digest instead of storing them: at 100k
// nodes the rendered files would hold hundreds of MB that the bench
// only ever hashes.  The runner writes files in rank order, so the
// running digest is as deterministic as the files themselves.
class DigestOutput final : public moneq::OutputTarget {
 public:
  envmon::Status write(const std::string& filename, const std::string& content) override {
    digest_ = fnv1a(fnv1a(digest_, filename), content);
    ++files_;
    return envmon::Status::ok();
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::size_t files() const { return files_; }

 private:
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  std::size_t files_ = 0;
};

// Shapes keep the seed bench's poll:epoch ratio (several polls per
// merge) so the self-overhead gate measures steady-state telemetry cost
// rather than the capture:simulation ratio of an artificially sparse
// polling schedule.
struct BenchShape {
  int nodes = 100000;
  std::int64_t horizon_s = 60;
  std::int64_t epoch_s = 10;
  std::int64_t polling_s = 1;
  bool smoke = false;
};

struct RunResult {
  std::uint64_t files_digest = 0;
  std::uint64_t db_digest = 0;
  std::uint64_t rollup_digest = 0;
  double wall_seconds = 0.0;
  double node_seconds_per_second = 0.0;
  std::size_t records_applied = 0;
  std::uint64_t ingest_stalls = 0;
  std::uint64_t shard_steals = 0;
  double window_wait_seconds = 0.0;
  double telemetry_seconds = 0.0;
  double telemetry_fraction = 0.0;
  std::size_t self_scrape_rows = 0;
  double epoch_p99_s = 0.0;
  double bytes_per_node = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  int nodes_alive = 0;
};

RunResult run(const BenchShape& shape, int threads) {
  // The epoch histogram is process-global and idempotently re-acquired
  // by the runner; reset it so the p99 below reads this run only.
  envmon::obs::Histogram& epoch_seconds = envmon::obs::default_registry().histogram(
      "envmon_fleet_epoch_seconds", "Wall time between fleet epoch merges",
      envmon::obs::Histogram::exponential_bounds(1e-5, 4.0, 12));
  epoch_seconds.reset();
  fleet::FleetConfig config;
  config.nodes = shape.nodes;
  config.threads = threads;
  config.capabilities = {moneq::Capability::kBgqEmon};
  config.epoch = Duration::seconds(shape.epoch_s);
  config.horizon = Duration::seconds(shape.horizon_s);
  config.polling_interval = Duration::seconds(shape.polling_s);
  config.seed = 0x4d69726121ull;  // same fleet, every run
  // Board-level power records, the environmental database's granularity.
  config.ingest = fleet::IngestMode::kNodePower;
  config.database.max_insert_rate_per_second = 0.0;  // measure the engine
  DigestOutput output;
  config.output = &output;

  fleet::FleetRunner runner;
  if (const auto s = runner.configure(std::move(config)); !s.is_ok()) {
    std::printf("FAIL: configure(%d threads): %s\n", threads, s.to_string().c_str());
    return {};
  }
  if (const auto s = runner.run(); !s.is_ok()) {
    std::printf("FAIL: run(%d threads): %s\n", threads, s.to_string().c_str());
    return {};
  }

  RunResult r;
  r.files_digest = output.digest();
  r.db_digest = fnv1a(0xcbf29ce484222325ull, envmon::tsdb::export_csv(runner.database()));
  // The fleet-wide rolled-up snapshot rides the determinism gate too:
  // its JSON rendering must be byte-identical at any worker count.
  r.rollup_digest = fnv1a(0xcbf29ce484222325ull,
                          envmon::obs::export_json(runner.telemetry().fleet_rollup()));
  const auto report = runner.report().value();
  r.wall_seconds = report.wall_seconds;
  r.node_seconds_per_second = report.node_seconds_per_second;
  r.records_applied = report.records_applied;
  r.ingest_stalls = report.ingest_stalls;
  r.shard_steals = report.shard_steals;
  r.window_wait_seconds = report.window_wait_seconds;
  r.telemetry_seconds = report.telemetry_seconds;
  r.telemetry_fraction =
      report.wall_seconds > 0.0 ? report.telemetry_seconds / report.wall_seconds : 0.0;
  r.self_scrape_rows = report.self_scrape_rows;
  r.epoch_p99_s = epoch_seconds.quantile(0.99);
  r.bytes_per_node = report.bytes_per_node;
  r.peak_rss_bytes = report.peak_rss_bytes;
  r.nodes_alive = report.nodes_alive;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchShape shape;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      shape.smoke = true;
      shape.nodes = 4096;
      shape.horizon_s = 30;
      shape.epoch_s = 10;
      shape.polling_s = 1;
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      shape.nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--horizon") == 0 && i + 1 < argc) {
      shape.horizon_s = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--epoch") == 0 && i + 1 < argc) {
      shape.epoch_s = std::atoll(argv[++i]);
    } else {
      std::printf("usage: %s [--smoke] [--nodes N] [--horizon SECONDS]\n", argv[0]);
      return 2;
    }
  }
  if (shape.nodes <= 0 || shape.horizon_s <= 0) {
    std::printf("FAIL: nodes and horizon must be positive\n");
    return 2;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("== Work-stealing fleet collection at %d nodes%s ==\n\n", shape.nodes,
              shape.smoke ? " (smoke)" : "");
  std::printf("hardware threads    : %u\n", hw);
  std::printf("virtual horizon     : %lld s per node (%.1f node-hours)\n\n",
              static_cast<long long>(shape.horizon_s),
              static_cast<double>(shape.nodes) * static_cast<double>(shape.horizon_s) / 3600.0);

  const int thread_counts[] = {1, 2, 8};
  RunResult results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = run(shape, thread_counts[i]);
    // The runner is gone: hand its freed heap back to the kernel, so the
    // next configuration's peak does not stack on the retained arena.
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    if (results[i].records_applied == 0) return 1;
    std::printf(
        "%d thread%s: %.3f s wall, %.0f node-s/s, %zu records, %llu steals, files %016llx db "
        "%016llx\n",
        thread_counts[i], thread_counts[i] == 1 ? " " : "s", results[i].wall_seconds,
        results[i].node_seconds_per_second, results[i].records_applied,
        static_cast<unsigned long long>(results[i].shard_steals),
        static_cast<unsigned long long>(results[i].files_digest),
        static_cast<unsigned long long>(results[i].db_digest));
  }

  const bool deterministic =
      results[0].files_digest == results[1].files_digest &&
      results[1].files_digest == results[2].files_digest &&
      results[0].db_digest == results[1].db_digest &&
      results[1].db_digest == results[2].db_digest &&
      results[0].rollup_digest == results[1].rollup_digest &&
      results[1].rollup_digest == results[2].rollup_digest;

  // Telemetry self-overhead gate: capture + fold + self-scrape must cost
  // <= 1% of the sequential run's wall time (the 1-thread run is the
  // clean read — multi-worker runs overlap capture across shards, so
  // their summed seconds over a shorter wall overstate the share).  The
  // smoke shape runs only 3 epochs, so the one-time cold snapshot builds
  // at the first merge are amortized over a third of the horizon; its
  // gate is proportionally looser.
  const double overhead_budget = shape.smoke ? 0.025 : 0.01;
  const double telemetry_fraction = results[0].telemetry_fraction;
  const bool overhead_ok = telemetry_fraction <= overhead_budget;

  // Memory gate: per-node resident growth on the sequential run (the
  // first run of the process — later runs inherit allocator reuse and
  // would under-report).  The budget is a fixed per-node envelope
  // (vendor substrate, profiler, one epoch's sample buffer) plus the
  // rendered CSV every node must retain until the post-run rank-order
  // write: ~24 rows per poll at ~40 bytes each, horizon/polling polls.
  // Zero means /proc was unavailable; the gate reports skipped rather
  // than wrong.
  const double polls_per_node =
      static_cast<double>(shape.horizon_s) / static_cast<double>(shape.polling_s) + 2.0;
  const double kBytesPerNodeBudget = 40.0 * 1024.0 + polls_per_node * 24.0 * 40.0;
  const double bytes_per_node = results[0].bytes_per_node;
  const bool memory_measured = bytes_per_node > 0.0;
  const bool memory_ok = !memory_measured || bytes_per_node <= kBytesPerNodeBudget;

  const double speedup_2 = results[1].node_seconds_per_second / results[0].node_seconds_per_second;
  const double speedup_8 = results[2].node_seconds_per_second / results[0].node_seconds_per_second;

  // Hardware-aware throughput gate (see header comment).  On a single
  // core a parallel speedup cannot be measured — the JSON says so
  // explicitly instead of emitting a vacuous `true` — but 8 workers
  // must still stay within 40% of sequential (oversubscription bound).
  const bool single_core = hw < 2;
  double required = 0.0;
  const char* gate_desc = nullptr;
  if (hw >= 8) {
    required = 3.0;
    gate_desc = ">= 3x at 8 threads (8+ hardware threads)";
  } else if (hw >= 2) {
    required = 0.45 * static_cast<double>(std::min(hw, 8u));
    gate_desc = ">= 0.45x per hardware thread at 8 workers";
  } else {
    required = 0.6;
    gate_desc = "within 40% of sequential at 8 workers (single-core host)";
  }
  const bool throughput_ok = speedup_8 >= required;
  const char* speedup_gate_json =
      single_core ? "\"skipped_single_core\"" : (throughput_ok ? "true" : "false");

  std::printf("\nspeedup 2 / 8 threads : %.2fx / %.2fx\n", speedup_2, speedup_8);
  std::printf("throughput gate       : %s -> %s (%.2fx vs %.2fx required)%s\n", gate_desc,
              throughput_ok ? "PASS" : "FAIL", speedup_8, required,
              single_core ? " [speedup unmeasurable on 1 core]" : "");
  std::printf("determinism gate      : %s (files, db, fleet rollup)\n",
              deterministic ? "PASS" : "FAIL");
  if (memory_measured) {
    // The last configuration's peak is the whole process's.
    std::printf(
        "memory gate           : %s (%.0f bytes/node, budget %.0f; peak RSS %.0f MB 1t, "
        "%.0f MB process)\n",
        memory_ok ? "PASS" : "FAIL", bytes_per_node, kBytesPerNodeBudget,
        static_cast<double>(results[0].peak_rss_bytes) / (1024.0 * 1024.0),
        static_cast<double>(results[2].peak_rss_bytes) / (1024.0 * 1024.0));
  } else {
    std::printf("memory gate           : SKIPPED (no /proc/self/status)\n");
  }
  std::printf("telemetry overhead    : %s (%.3f%% of 1t wall, gate <= %.1f%%; %zu self rows)\n",
              overhead_ok ? "PASS" : "FAIL", telemetry_fraction * 100.0,
              overhead_budget * 100.0, results[0].self_scrape_rows);
  std::printf("epoch p99             : %.4f s (1t, via Histogram::quantile)\n",
              results[0].epoch_p99_s);
  std::printf("liveness              : %d/%d nodes alive at horizon\n", results[0].nodes_alive,
              shape.nodes);

  // The smoke variant exists for CI wiring: it must never overwrite the
  // checked-in full-size BENCH_fleet.json.
  if (!shape.smoke) {
    std::FILE* out = std::fopen("BENCH_fleet.json", "w");
    if (out != nullptr) {
      std::fprintf(out,
                   "{\n"
                   "  \"nodes\": %d,\n"
                   "  \"horizon_s\": %lld,\n"
                   "  \"hardware_concurrency\": %u,\n"
                   "  \"wall_s_1t\": %.3f,\n"
                   "  \"wall_s_2t\": %.3f,\n"
                   "  \"wall_s_8t\": %.3f,\n"
                   "  \"node_s_per_s_1t\": %.0f,\n"
                   "  \"node_s_per_s_2t\": %.0f,\n"
                   "  \"node_s_per_s_8t\": %.0f,\n"
                   "  \"speedup_2t\": %.2f,\n"
                   "  \"speedup_8t\": %.2f,\n"
                   "  \"speedup_8t_required\": %.2f,\n"
                   "  \"speedup_gate\": %s,\n"
                   "  \"shard_steals_8t\": %llu,\n"
                   "  \"window_wait_s_8t\": %.4f,\n"
                   "  \"records_applied\": %zu,\n"
                   "  \"ingest_stalls_8t\": %llu,\n"
                   "  \"telemetry_s_1t\": %.4f,\n"
                   "  \"telemetry_fraction_1t\": %.5f,\n"
                   "  \"telemetry_fraction_8t\": %.5f,\n"
                   "  \"self_scrape_rows\": %zu,\n"
                   "  \"epoch_p99_s_1t\": %.4f,\n"
                   "  \"bytes_per_node_1t\": %.0f,\n"
                   "  \"bytes_per_node_budget\": %.0f,\n"
                   "  \"peak_rss_mb_1t\": %.0f,\n"
                   "  \"memory_gate\": %s,\n"
                   "  \"deterministic_1_2_8\": %s,\n"
                   "  \"telemetry_overhead_gate\": %s\n"
                   "}\n",
                   shape.nodes, static_cast<long long>(shape.horizon_s), hw,
                   results[0].wall_seconds, results[1].wall_seconds, results[2].wall_seconds,
                   results[0].node_seconds_per_second, results[1].node_seconds_per_second,
                   results[2].node_seconds_per_second, speedup_2, speedup_8, required,
                   speedup_gate_json,
                   static_cast<unsigned long long>(results[2].shard_steals),
                   results[2].window_wait_seconds, results[0].records_applied,
                   static_cast<unsigned long long>(results[2].ingest_stalls),
                   results[0].telemetry_seconds, results[0].telemetry_fraction,
                   results[2].telemetry_fraction, results[0].self_scrape_rows,
                   results[0].epoch_p99_s, bytes_per_node, kBytesPerNodeBudget,
                   static_cast<double>(results[0].peak_rss_bytes) / (1024.0 * 1024.0),
                   memory_measured ? (memory_ok ? "true" : "false") : "\"skipped_no_procfs\"",
                   deterministic ? "true" : "false", overhead_ok ? "true" : "false");
      std::fclose(out);
      std::printf("\nwrote BENCH_fleet.json\n");
    }
  }

  return deterministic && throughput_ok && memory_ok && overhead_ok ? 0 : 1;
}
