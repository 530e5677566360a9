// Durable tiered-storage bench: WAL overhead, crash recovery, dedup.
//
// The BG/Q environmental database's whole point (paper §II-A) is that
// collected data *survives*: DB2 keeps the sensor history on disk and
// serves it back after any restart.  This bench measures what the
// durable layer (DESIGN.md §13) costs and gates what it must guarantee:
//
//   gate 1: WAL + segment writes cost <= 150% over pure in-memory
//           ingest at the default kOnSeal fsync policy,
//   gate 2: a crashed store (destroyed without close()) reopens with
//           byte-identical query results — same FNV-1a digest,
//   gate 3: content-addressed dedup stores the 8-tenant duplicate-series
//           workload in <= 2/8 of its logical extent bytes,
//   gate 4: a cold query over a fully evicted store returns the same
//           digest as the hot store, and cold-start recovery of a
//           ~200k-row WAL completes in < 2 s.
//
// Results land in BENCH_durability.json; re-run via
// `./build/bench/durability` from the repo root.
//
// Two extra modes drive the ci/check.sh crash-recovery smoke:
//   durability --writer <dir>   deterministic infinite ingest under
//                               FsyncPolicy::kAlways until killed
//   durability --verify <dir>   reopen <dir>, regenerate the stream
//                               prefix, compare digests; exit 0 on match

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "tsdb/database.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using envmon::sim::Duration;
using envmon::sim::SimTime;
namespace tsdb = envmon::tsdb;

// ------------------------------------------------ deterministic stream

const char* kMetrics[3] = {"input_power_watts", "coolant_flow_lpm", "board_temp_c"};

// Row i of the canonical stream: strictly increasing timestamps, 16
// locations x 3 metrics, value a pure function of i.  Writer and
// verifier regenerate the identical stream from the index alone.
tsdb::Record stream_row(std::uint64_t i) {
  tsdb::Record r;
  r.timestamp = SimTime::from_ns(static_cast<std::int64_t>(i) * 1'000'000);
  r.location = tsdb::Location{static_cast<int>(i % 4), 0, 0, static_cast<int>((i / 4) % 4)};
  r.metric = kMetrics[i % 3];
  r.value = static_cast<double>((i * 2654435761u) % 100'000) / 100.0;
  return r;
}

std::vector<tsdb::Record> stream_rows(std::uint64_t first, std::uint64_t count) {
  std::vector<tsdb::Record> out;
  out.reserve(count);
  for (std::uint64_t i = first; i < first + count; ++i) out.push_back(stream_row(i));
  return out;
}

// FNV-1a over every field of every row — the byte-identical gate.
std::uint64_t digest(const std::vector<tsdb::Record>& rows) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const tsdb::Record& r : rows) {
    mix(static_cast<std::uint64_t>(r.timestamp.ns()));
    mix(static_cast<std::uint64_t>(r.location.rack) << 32 |
        static_cast<std::uint32_t>(r.location.card));
    for (const char c : r.metric) mix(static_cast<std::uint8_t>(c));
    std::uint64_t bits;
    std::memcpy(&bits, &r.value, sizeof(bits));
    mix(bits);
  }
  return h;
}

tsdb::DatabaseOptions base_options() {
  tsdb::DatabaseOptions o;
  o.max_insert_rate_per_second = 0.0;  // measure storage, not the rate model
  return o;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------- writer/verify modes

// Deterministic ingest until killed: one 512-row batch at a time, every
// batch fsynced (kAlways), so kill -9 can land anywhere and recovery
// must still produce a clean prefix of the stream.
int run_writer(const std::string& dir) {
  auto options = base_options();
  options.durability.fsync_policy = tsdb::FsyncPolicy::kAlways;
  tsdb::EnvDatabase db(options);
  if (!db.open(dir).is_ok()) {
    std::fprintf(stderr, "writer: cannot open %s\n", dir.c_str());
    return 2;
  }
  std::uint64_t next = db.size();  // resume the stream where it left off
  std::printf("writer: ingesting from row %llu\n", static_cast<unsigned long long>(next));
  std::fflush(stdout);
  for (;;) {
    const auto rows = stream_rows(next, 512);
    if (!db.insert_batch(rows).all_accepted()) {
      std::fprintf(stderr, "writer: rejected insert at row %llu\n",
                   static_cast<unsigned long long>(next));
      return 2;
    }
    next += rows.size();
    if (next % (512 * 64) == 0) db.seal_blocks(1);
  }
}

// Reopens the crashed store and checks the recovered rows are exactly a
// byte-identical prefix of the canonical stream.
int run_verify(const std::string& dir) {
  tsdb::EnvDatabase db(base_options());
  const auto t0 = Clock::now();
  if (!db.open(dir).is_ok()) {
    std::fprintf(stderr, "verify: cannot open %s\n", dir.c_str());
    return 2;
  }
  const double recovery_s = seconds_since(t0);
  const auto recovered = db.query(tsdb::QueryFilter{});
  const auto expected = stream_rows(0, recovered.size());
  const std::uint64_t got = digest(recovered);
  const std::uint64_t want = digest(expected);
  std::printf("verify: %zu rows recovered in %.3f s (wal frames %llu, truncated %s)\n",
              recovered.size(), recovery_s,
              static_cast<unsigned long long>(db.recovery_info().wal_frames_replayed),
              db.recovery_info().wal_truncated ? "yes" : "no");
  std::printf("verify: digest %016llx vs expected %016llx -> %s\n",
              static_cast<unsigned long long>(got), static_cast<unsigned long long>(want),
              got == want ? "MATCH" : "MISMATCH");
  if (recovered.empty()) {
    std::fprintf(stderr, "verify: nothing recovered\n");
    return 1;
  }
  return got == want ? 0 : 1;
}

// ------------------------------------------------------ the bench body

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/envmon_durability_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

constexpr std::uint64_t kRows = 200'000;

double ingest_seconds(tsdb::EnvDatabase& db) {
  const auto t0 = Clock::now();
  for (std::uint64_t first = 0; first < kRows; first += 4096) {
    db.insert_batch(stream_rows(first, 4096));
  }
  db.seal_blocks(1);
  return seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--writer") == 0) return run_writer(argv[2]);
  if (argc == 3 && std::strcmp(argv[1], "--verify") == 0) return run_verify(argv[2]);

  std::printf("=== durable tiered storage: WAL overhead, recovery, dedup ===\n\n");

  // --- gate 1: WAL overhead ------------------------------------------
  tsdb::EnvDatabase memory_db(base_options());
  const double memory_s = ingest_seconds(memory_db);

  TempDir durable_dir;
  double durable_s = 0.0;
  std::uint64_t wal_bytes = 0, disk_bytes = 0, crash_digest = 0;
  {
    auto db = std::make_unique<tsdb::EnvDatabase>(base_options());
    if (!db->open(durable_dir.path).is_ok()) return 2;
    durable_s = ingest_seconds(*db);
    const auto stats = db->durable_stats();
    wal_bytes = stats.wal_bytes;
    disk_bytes = stats.disk_bytes;
    crash_digest = digest(db->query(tsdb::QueryFilter{}));
    // Destroyed without close(): the kill -9 model.
  }
  const double overhead_pct = (durable_s - memory_s) / memory_s * 100.0;
  std::printf("ingest %llu rows       : %.3f s memory, %.3f s durable (%+.1f%%)\n",
              static_cast<unsigned long long>(kRows), memory_s, durable_s, overhead_pct);
  std::printf("wal bytes / disk bytes: %.1f MB / %.1f MB\n",
              static_cast<double>(wal_bytes) / 1e6, static_cast<double>(disk_bytes) / 1e6);

  // --- gate 2 + 4: crash recovery, cold queries, recovery time -------
  tsdb::EnvDatabase recovered(base_options());
  const auto recover_t0 = Clock::now();
  if (!recovered.open(durable_dir.path).is_ok()) return 2;
  const double recovery_s = seconds_since(recover_t0);
  const bool recovery_identical = digest(recovered.query(tsdb::QueryFilter{})) == crash_digest;
  std::printf("crash recovery        : %.3f s, %llu wal frames, digest %s\n", recovery_s,
              static_cast<unsigned long long>(recovered.recovery_info().wal_frames_replayed),
              recovery_identical ? "MATCH" : "MISMATCH");

  recovered.evict_sealed_blocks(0);
  const auto cold_t0 = Clock::now();
  const auto cold_rows = recovered.query(tsdb::QueryFilter{});
  const double cold_query_s = seconds_since(cold_t0);
  const auto hot_t0 = Clock::now();
  const auto hot_rows = recovered.query(tsdb::QueryFilter{});
  const double hot_query_s = seconds_since(hot_t0);
  // Digests only after both timers stop: each is a full pass over the
  // rows, as long as a hot query itself.
  const bool cold_identical = digest(hot_rows) == crash_digest && digest(cold_rows) == crash_digest;
  const std::uint64_t cold_loads = recovered.durable_stats().cold_loads;
  std::printf("cold / hot full query : %.3f s / %.3f s (%llu cold block loads), digest %s\n",
              cold_query_s, hot_query_s, static_cast<unsigned long long>(cold_loads),
              cold_identical ? "MATCH" : "MISMATCH");

  // Recovery time vs WAL length: replay cost scales with the un-
  // checkpointed suffix, so a freshly-checkpointed store reopens fast.
  double checkpointed_recovery_s = 0.0;
  if (!recovered.close().is_ok()) return 2;
  {
    tsdb::EnvDatabase db(base_options());
    const auto t0 = Clock::now();
    if (!db.open(durable_dir.path).is_ok()) return 2;
    checkpointed_recovery_s = seconds_since(t0);
  }
  std::printf("recovery vs wal length: %.3f s replaying ~%llu rows, %.3f s from checkpoint\n",
              recovery_s, static_cast<unsigned long long>(kRows), checkpointed_recovery_s);

  // --- gate 3: multi-tenant dedup ------------------------------------
  TempDir dedup_dir;
  double dedup_ratio = 0.0, dedup_disk_ratio = 0.0;
  {
    tsdb::EnvDatabase db(base_options());
    if (!db.open(dedup_dir.path).is_ok()) return 2;
    // 8 tenants (racks) sampling identical hardware: per-timestep the
    // value columns repeat tenant to tenant, so every tenant's sealed
    // payload is byte-identical to tenant 0's.
    constexpr int kTenants = 8;
    constexpr std::uint64_t kPerTenantRows = 16'384;
    for (std::uint64_t i = 0; i < kPerTenantRows; ++i) {
      for (int t = 0; t < kTenants; ++t) {
        tsdb::Record r;
        r.timestamp = SimTime::from_ns(static_cast<std::int64_t>(i) * 1'000'000);
        r.location = tsdb::Location{t, 0, 0, 0};
        r.metric = kMetrics[0];
        r.value = static_cast<double>((i * 40503u) % 1000);
        if (!db.insert(r).is_ok()) return 2;
      }
    }
    db.seal_blocks(1);
    const auto stats = db.durable_stats();
    const std::uint64_t seals = stats.extents_appended + stats.dedup_hits;
    dedup_ratio = seals == 0 ? 0.0
                             : static_cast<double>(stats.dedup_hits) / static_cast<double>(seals);
    const std::uint64_t logical = stats.disk_bytes * seals / std::max<std::uint64_t>(
                                      stats.extents_appended, 1);
    dedup_disk_ratio = logical == 0 ? 1.0
                                    : static_cast<double>(stats.disk_bytes) /
                                          static_cast<double>(logical);
    std::printf("dedup (8 tenants)     : %.2f of seals deduplicated, %.2f of logical bytes "
                "stored\n",
                dedup_ratio, dedup_disk_ratio);
  }

  const bool overhead_ok = overhead_pct <= 150.0;
  const bool dedup_ok = dedup_disk_ratio <= 0.25;
  const bool cold_start_ok = recovery_s < 2.0;
  std::printf("\nWAL overhead <= 150%%      : %s (%.1f%%)\n", overhead_ok ? "PASS" : "FAIL",
              overhead_pct);
  std::printf("crash recovery identical  : %s\n", recovery_identical ? "PASS" : "FAIL");
  std::printf("dedup <= 0.25 disk ratio  : %s (%.2f)\n", dedup_ok ? "PASS" : "FAIL",
              dedup_disk_ratio);
  std::printf("cold queries identical    : %s\n", cold_identical ? "PASS" : "FAIL");
  std::printf("recovery < 2 s            : %s (%.3f s)\n", cold_start_ok ? "PASS" : "FAIL",
              recovery_s);

  std::FILE* out = std::fopen("BENCH_durability.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"ingest_rows\": %llu,\n"
                 "  \"memory_ingest_s\": %.4f,\n"
                 "  \"durable_ingest_s\": %.4f,\n"
                 "  \"wal_overhead_pct\": %.1f,\n"
                 "  \"wal_bytes\": %llu,\n"
                 "  \"segment_disk_bytes\": %llu,\n"
                 "  \"recovery_replay_s\": %.4f,\n"
                 "  \"recovery_checkpoint_s\": %.4f,\n"
                 "  \"recovery_identical\": %s,\n"
                 "  \"cold_query_s\": %.4f,\n"
                 "  \"hot_query_s\": %.4f,\n"
                 "  \"cold_block_loads\": %llu,\n"
                 "  \"cold_identical\": %s,\n"
                 "  \"dedup_hit_ratio\": %.3f,\n"
                 "  \"dedup_disk_ratio\": %.3f\n"
                 "}\n",
                 static_cast<unsigned long long>(kRows), memory_s, durable_s, overhead_pct,
                 static_cast<unsigned long long>(wal_bytes),
                 static_cast<unsigned long long>(disk_bytes), recovery_s,
                 checkpointed_recovery_s, recovery_identical ? "true" : "false", cold_query_s,
                 hot_query_s, static_cast<unsigned long long>(cold_loads),
                 cold_identical ? "true" : "false", dedup_ratio, dedup_disk_ratio);
    std::fclose(out);
    std::printf("\nwrote BENCH_durability.json\n");
  }

  return (overhead_ok && recovery_identical && dedup_ok && cold_identical && cold_start_ok)
             ? 0
             : 1;
}
