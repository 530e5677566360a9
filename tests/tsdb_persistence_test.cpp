// Tests for the durable tiered storage layer (DESIGN.md §13): WAL
// crash recovery, segment checksums and quarantine, content-addressed
// dedup with refcounted drops, eviction, and the fuzz harness that
// feeds the recovery path garbage bytes.  A database destroyed without
// close() models kill -9: the destructor writes nothing, so the next
// open() sees exactly what a dead process would have left behind.
// `ctest -L persist` runs just these.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "tsdb/database.hpp"
#include "tsdb/wal.hpp"
#include "tsdb/wire.hpp"

namespace envmon::tsdb {
namespace {

using sim::Duration;
using sim::SimTime;

// ------------------------------------------------------------- fixture

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/envmon_persist_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

DatabaseOptions durable_options() {
  DatabaseOptions o;
  o.max_insert_rate_per_second = 1e15;  // rate ceiling is not under test
  return o;
}

Record make_record(std::int64_t ts_ns, int rack, int card, const std::string& metric,
                   double value) {
  Record r;
  r.timestamp = SimTime::from_ns(ts_ns);
  r.location = Location{rack, 0, 0, card};
  r.metric = metric;
  r.value = value;
  return r;
}

// A deterministic multi-series workload: `rows` records round-robined
// over 4 (rack, card) shards and 2 metrics, timestamps 1ms apart.
std::vector<Record> workload(std::size_t rows, std::int64_t start_ns = 0) {
  std::vector<Record> out;
  out.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto ts = start_ns + static_cast<std::int64_t>(i) * 1'000'000;
    out.push_back(make_record(ts, static_cast<int>(i % 2), static_cast<int>((i / 2) % 2),
                              i % 3 == 0 ? "coolant_flow_lpm" : "input_power_watts",
                              std::sin(static_cast<double>(i) * 0.1) * 100.0));
  }
  return out;
}

// FNV-1a over every field of every row — byte-identical result check.
std::uint64_t digest(const std::vector<Record>& rows) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Record& r : rows) {
    mix(static_cast<std::uint64_t>(r.timestamp.ns()));
    mix(static_cast<std::uint64_t>(r.location.rack) << 32 |
        static_cast<std::uint32_t>(r.location.card));
    for (const char c : r.metric) mix(static_cast<std::uint8_t>(c));
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(r.value));
    std::memcpy(&bits, &r.value, sizeof(bits));
    mix(bits);
  }
  return h;
}

std::vector<Record> query_all(const EnvDatabase& db) { return db.query(QueryFilter{}); }

// Flips one byte in `path` at `offset`.
void corrupt_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

std::vector<std::string> files_matching(const std::string& dir, const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(entry.path().string());
  }
  return out;
}

// ------------------------------------------------------ crash recovery

TEST(Persistence, RecoversByteIdenticalAfterKill9) {
  TempDir dir;
  std::uint64_t before;
  std::size_t rows_before;
  {
    auto db = std::make_unique<EnvDatabase>(durable_options());
    ASSERT_TRUE(db->open(dir.path).is_ok());
    const auto rows = workload(10'000);
    ASSERT_TRUE(db->insert_batch(rows).all_accepted());
    db->seal_blocks(1);
    // Keep the head non-empty too: sealed + head rows both recover.
    ASSERT_TRUE(db->insert_batch(workload(500, 10'000LL * 1'000'000)).all_accepted());
    before = digest(query_all(*db));
    rows_before = db->size();
    // kill -9: destroy without close().
  }
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  EXPECT_TRUE(db.recovery_info().recovered);
  EXPECT_EQ(db.size(), rows_before);
  EXPECT_EQ(digest(query_all(db)), before);
  EXPECT_GT(db.recovery_info().rows_recovered, 0u);
}

TEST(Persistence, SingleInsertPathIsLoggedToo) {
  TempDir dir;
  std::uint64_t before;
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db.insert(make_record(i * 1'000'000, 0, 0, "input_power_watts",
                                        static_cast<double>(i)))
                      .is_ok());
    }
    before = digest(query_all(db));
  }
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  EXPECT_EQ(db.size(), 200u);
  EXPECT_EQ(digest(query_all(db)), before);
}

TEST(Persistence, ReopenAndAppendRoundTrip) {
  TempDir dir;
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    ASSERT_TRUE(db.insert_batch(workload(5'000)).all_accepted());
    db.seal_blocks(1);
    ASSERT_TRUE(db.close().is_ok());  // clean shutdown: checkpoint only
  }
  std::uint64_t before;
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    EXPECT_EQ(db.size(), 5'000u);
    EXPECT_GT(db.metric_count(), 0u);
    EXPECT_GT(db.series_count(), 0u);
    // Appends continue where the recovered sequence left off.
    ASSERT_TRUE(db.insert_batch(workload(5'000, 5'000LL * 1'000'000)).all_accepted());
    before = digest(query_all(db));
    ASSERT_TRUE(db.close().is_ok());
  }
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  EXPECT_EQ(db.size(), 10'000u);
  EXPECT_EQ(digest(query_all(db)), before);
}

TEST(Persistence, CleanCloseLeavesExactlyOneWal) {
  TempDir dir;
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    ASSERT_TRUE(db.insert_batch(workload(2'000)).all_accepted());
    ASSERT_TRUE(db.close().is_ok());
  }
  EXPECT_EQ(files_matching(dir.path, "wal-").size(), 1u);
}

TEST(Persistence, WalRotationKeepsOneWalAndRecovers) {
  TempDir dir;
  auto options = durable_options();
  options.durability.wal_rotate_bytes = 4096;  // rotate constantly
  std::uint64_t before;
  {
    EnvDatabase db(options);
    ASSERT_TRUE(db.open(dir.path).is_ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.insert_batch(workload(100, i * 100LL * 1'000'000)).all_accepted());
    }
    EXPECT_EQ(files_matching(dir.path, "wal-").size(), 1u);
    before = digest(query_all(db));
  }
  EnvDatabase db(options);
  ASSERT_TRUE(db.open(dir.path).is_ok());
  EXPECT_EQ(db.size(), 5'000u);
  EXPECT_EQ(digest(query_all(db)), before);
}

TEST(Persistence, FsyncPoliciesAllRecover) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kOnSeal, FsyncPolicy::kAlways}) {
    TempDir dir;
    auto options = durable_options();
    options.durability.fsync_policy = policy;
    std::uint64_t before;
    {
      EnvDatabase db(options);
      ASSERT_TRUE(db.open(dir.path).is_ok());
      ASSERT_TRUE(db.insert_batch(workload(3'000)).all_accepted());
      db.seal_blocks(1);
      ASSERT_TRUE(db.flush().is_ok());
      before = digest(query_all(db));
    }
    EnvDatabase db(options);
    ASSERT_TRUE(db.open(dir.path).is_ok());
    EXPECT_EQ(db.size(), 3'000u) << "policy " << static_cast<int>(policy);
    EXPECT_EQ(digest(query_all(db)), before);
  }
}

// ------------------------------------------------- torn / corrupt WALs

TEST(Persistence, TornWalTailIsTruncated) {
  TempDir dir;
  std::uint64_t before;
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    ASSERT_TRUE(db.insert_batch(workload(1'000)).all_accepted());
    before = digest(query_all(db));
  }
  // A torn final frame: the length prefix of a record whose bytes never
  // made it out of the page cache.
  const auto wals = files_matching(dir.path, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  {
    std::ofstream f(wals.front(), std::ios::app | std::ios::binary);
    const std::uint32_t claim = 100;
    f.write(reinterpret_cast<const char*>(&claim), sizeof(claim));
    f.write("torn", 4);
  }
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  EXPECT_TRUE(db.recovery_info().wal_truncated);
  EXPECT_EQ(db.size(), 1'000u);  // every whole record survives
  EXPECT_EQ(digest(query_all(db)), before);
}

TEST(Persistence, CorruptWalTailRecoversTheCleanPrefix) {
  TempDir dir;
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    // Two separate insert calls -> two kInsertBatch frames.
    ASSERT_TRUE(db.insert_batch(workload(1'000)).all_accepted());
    ASSERT_TRUE(db.insert_batch(workload(1'000, 1'000LL * 1'000'000)).all_accepted());
  }
  const auto wals = files_matching(dir.path, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  // Flip a byte near the end: inside the last frame's payload.
  const auto size = std::filesystem::file_size(wals.front());
  corrupt_byte(wals.front(), size - 16);
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  EXPECT_TRUE(db.recovery_info().wal_truncated);
  // The clean prefix (at least the first batch) survives; nothing past
  // the corruption does, and nothing is half-applied.
  EXPECT_GE(db.size(), 1'000u);
  EXPECT_LT(db.size(), 2'000u);
  const auto rows = query_all(db);
  EXPECT_EQ(rows.size(), db.size());
}

// ----------------------------------------- checksums, quarantine, dedup

TEST(Persistence, CorruptSegmentPayloadIsQuarantinedNotFatal) {
  TempDir dir;
  std::size_t rows_total;
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    ASSERT_TRUE(db.insert_batch(workload(4'000)).all_accepted());
    db.seal_blocks(1);
    rows_total = db.size();
    ASSERT_TRUE(db.close().is_ok());
  }
  const auto segments = files_matching(dir.path, "segment-");
  ASSERT_FALSE(segments.empty());
  // Past the 24-byte segment header and 32-byte extent header: inside
  // the first extent's payload, whose CRC no longer matches.
  corrupt_byte(segments.front(), 60);
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  const auto rows = query_all(db);
  // The damaged block is quarantined: its rows vanish from results, the
  // rest of the store still answers, and the failure is counted.
  EXPECT_LT(rows.size(), rows_total);
  EXPECT_GT(rows.size(), 0u);
  EXPECT_GE(db.durable_stats().quarantined, 1u);
  // Once quarantined, the block is skipped by every read alike: the
  // aggregate and the downsample buckets count exactly the rows query
  // returned.
  EXPECT_EQ(db.aggregate(QueryFilter{}).count, rows.size());
  std::size_t bucketed = 0;
  for (const auto& bucket : db.downsample(QueryFilter{}, Duration::seconds(1))) {
    bucketed += bucket.count;
  }
  EXPECT_EQ(bucketed, rows.size());
}

TEST(Persistence, IdenticalBlocksAcrossSeriesDedupToOneExtent) {
  TempDir dir;
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  // Two series with byte-identical columns (seq differs, but seq rides
  // the per-reference sidecar, not the content-addressed payload).
  std::vector<Record> rows;
  for (int i = 0; i < 2'000; ++i) {
    const auto ts = static_cast<std::int64_t>(i) * 1'000'000;
    rows.push_back(make_record(ts, 0, 0, "input_power_watts", static_cast<double>(i % 97)));
    rows.push_back(make_record(ts, 1, 0, "input_power_watts", static_cast<double>(i % 97)));
  }
  ASSERT_TRUE(db.insert_batch(rows).all_accepted());
  db.seal_blocks(1);
  const auto stats = db.durable_stats();
  EXPECT_GE(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.extents_appended, stats.dedup_hits > 0 ? 1u : 2u);
  // Both series still answer independently.
  QueryFilter f;
  f.location_prefix = Location{1, -1, -1, -1};
  EXPECT_EQ(db.query(f).size(), 2'000u);
  ASSERT_TRUE(db.close().is_ok());

  // Dedup also survives reopen: the recovered store re-references one
  // extent twice.
  EnvDatabase db2(durable_options());
  ASSERT_TRUE(db2.open(dir.path).is_ok());
  EXPECT_EQ(db2.size(), 4'000u);
  EXPECT_EQ(db2.query(f).size(), 2'000u);
}

TEST(Persistence, RetentionReleasesRefsAndUnlinksDeadSegments) {
  TempDir dir;
  auto options = durable_options();
  options.retention = Duration::seconds(10);
  options.durability.segment_rotate_bytes = 1;  // one extent per segment
  EnvDatabase db(options);
  ASSERT_TRUE(db.open(dir.path).is_ok());
  ASSERT_TRUE(db.insert_batch(workload(8'000)).all_accepted());
  db.seal_blocks(1);
  const auto disk_before = db.durable_stats().disk_bytes;
  ASSERT_GT(disk_before, 0u);
  // One record far in the future expires everything sealed above.
  ASSERT_TRUE(db.insert(make_record(1'000'000'000'000, 0, 0, "input_power_watts", 1.0)).is_ok());
  db.vacuum();
  const auto stats = db.durable_stats();
  EXPECT_GE(stats.segments_deleted, 1u);
  EXPECT_LT(stats.disk_bytes, disk_before);
  EXPECT_EQ(db.size(), 1u);
}

TEST(Persistence, RetentionThenKill9DoesNotLoseTheDatabase) {
  // The lethal sequence: a checkpoint references sealed extents, then
  // retention kills every block in their segments, then kill -9.  The
  // segment files must outlive every WAL record referencing them (the
  // unlink is deferred behind a fresh checkpoint), or recovery rejects
  // the only WAL and the whole database silently evaporates.
  TempDir dir;
  auto options = durable_options();
  options.retention = Duration::seconds(10);
  options.durability.segment_rotate_bytes = 1;  // one extent per segment
  {
    EnvDatabase db(options);
    ASSERT_TRUE(db.open(dir.path).is_ok());
    ASSERT_TRUE(db.insert_batch(workload(6'000)).all_accepted());
    db.seal_blocks(1);
    ASSERT_TRUE(db.close().is_ok());  // checkpoint now references the extents
  }
  std::uint64_t before;
  std::size_t rows_before;
  {
    EnvDatabase db(options);
    ASSERT_TRUE(db.open(dir.path).is_ok());
    ASSERT_EQ(db.size(), 6'000u);
    // One far-future record expires every sealed block above: whole
    // segments go dead while the current WAL still references them.
    ASSERT_TRUE(
        db.insert(make_record(1'000'000'000'000, 0, 0, "input_power_watts", 7.0)).is_ok());
    ASSERT_TRUE(
        db.insert_batch(workload(500, 1'000'000'000'000 + 1'000'000)).all_accepted());
    EXPECT_GE(db.durable_stats().segments_deleted, 1u);  // files were reclaimed
    before = digest(query_all(db));
    rows_before = db.size();
    // kill -9 right after the retention wave.
  }
  EnvDatabase db(options);
  ASSERT_TRUE(db.open(dir.path).is_ok());
  EXPECT_TRUE(db.recovery_info().recovered);
  EXPECT_EQ(db.size(), rows_before);
  EXPECT_EQ(digest(query_all(db)), before);
}

TEST(Persistence, TrailingSlashDirRoundTrips) {
  // "data/" and "data" must name the same store: path-string comparisons
  // in the WAL cleanup once saw "data//wal-..." != "data/wal-..." and
  // deleted the checkpoint they had just written.
  TempDir dir;
  const std::string slashed = dir.path + "/";
  std::uint64_t before;
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(slashed).is_ok());
    ASSERT_TRUE(db.insert_batch(workload(2'000)).all_accepted());
    db.seal_blocks(1);
    before = digest(query_all(db));
    ASSERT_TRUE(db.close().is_ok());
  }
  EXPECT_EQ(files_matching(dir.path, "wal-").size(), 1u);
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(slashed).is_ok());
  EXPECT_EQ(db.size(), 2'000u);
  EXPECT_EQ(digest(query_all(db)), before);
}

TEST(Persistence, OversizedWalFrameIsRejectedAtAppend) {
  // The reader treats frames past kWalMaxFrameBytes as corruption, so
  // the writer must refuse them up front — otherwise an oversized
  // checkpoint writes "successfully" and recovery silently starts
  // fresh.
  TempDir dir;
  const std::string path = dir.path + "/wal-000001.log";
  WalWriter w;
  ASSERT_TRUE(w.create(path).is_ok());
  const std::vector<std::uint8_t> big(kWalMaxFrameBytes, 0);  // +type byte > ceiling
  EXPECT_FALSE(w.append(WalRecordType::kInsertBatch, big).is_ok());
  EXPECT_EQ(w.frames_written(), 0u);
  ASSERT_TRUE(w.close().is_ok());
  // Nothing of the rejected frame landed: the log is clean and empty,
  // not truncated-at-corruption.
  WalReader r;
  ASSERT_TRUE(r.open(path).is_ok());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.truncated());
}

TEST(Persistence, UnreadableSegmentFileIsNeverClobbered) {
  // A stray file wearing a segment name but failing header validation
  // is left in place for inspection — and its id must never be handed
  // back to rotate(), whose create() would O_TRUNC the evidence.
  TempDir dir;
  const std::string stray = dir.path + "/segment-000001.seg";
  const std::string junk = "not a segment at all; preserve me for inspection";
  {
    std::ofstream f(stray, std::ios::binary);
    f << junk;
  }
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    ASSERT_TRUE(db.insert_batch(workload(4'000)).all_accepted());
    db.seal_blocks(1);  // rotate() allocates fresh segment ids
    ASSERT_TRUE(db.close().is_ok());
  }
  std::ifstream f(stray, std::ios::binary);
  const std::string back((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(back, junk);
}

TEST(Persistence, CorruptSealFrameLeavesNoPhantomSeries) {
  TempDir dir;
  std::uint64_t before;
  std::size_t series_before;
  {
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    ASSERT_TRUE(db.insert_batch(workload(1'000)).all_accepted());
    before = digest(query_all(db));
    series_before = db.series_count();
  }
  // Hand-append a CRC-valid kSeal frame for a series no insert ever
  // created, referencing an extent that resolves nowhere.  Replay must
  // reject the frame wholesale — validation registers nothing.
  const auto wals = files_matching(dir.path, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  {
    WalWriter w;
    ASSERT_TRUE(
        w.open_for_append(wals.front(), std::filesystem::file_size(wals.front())).is_ok());
    wire::Writer p;
    for (int i = 0; i < 4; ++i) p.i32(7);  // location no insert ever used
    p.u32(0);                              // a real metric id
    p.u32(16);                             // rows
    p.u32(16);                             // finite_rows
    p.i64(0);                              // ts_min
    p.i64(15);                             // ts_max
    p.u64(0);                              // seq_first
    p.u64(15);                             // seq_last
    for (int i = 0; i < 4; ++i) p.f64(1.0);  // min/max/sum/sum_sq
    p.u32(1);                              // segment id
    p.u64(24);                             // offset
    p.u32(64);                             // length
    p.u32(0);                              // crc
    p.u64(0);                              // hash.hi
    p.u64(0);                              // hash.lo
    p.blob({});                            // seq sidecar
    ASSERT_TRUE(w.append(WalRecordType::kSeal, p.span()).is_ok());
    ASSERT_TRUE(w.close().is_ok());
  }
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  EXPECT_TRUE(db.recovery_info().wal_truncated);
  EXPECT_EQ(db.series_count(), series_before);  // no phantom in index or gauge
  EXPECT_EQ(digest(query_all(db)), before);
}

// ------------------------------------------------------------ eviction

TEST(Persistence, EvictionBoundsResidencyAndColdQueriesAreByteIdentical) {
  TempDir dir;
  auto evicting = durable_options();
  evicting.durability.max_resident_sealed_bytes = 1;  // evict everything clean
  std::uint64_t hot_digest;
  {
    // Control: same workload, no eviction.
    EnvDatabase control(durable_options());
    const auto rows = workload(12'000);
    ASSERT_TRUE(control.insert_batch(rows).all_accepted());
    control.seal_blocks(1);
    hot_digest = digest(query_all(control));
  }
  EnvDatabase db(evicting);
  ASSERT_TRUE(db.open(dir.path).is_ok());
  ASSERT_TRUE(db.insert_batch(workload(12'000)).all_accepted());
  db.seal_blocks(1);
  // The eviction pass at the write boundary dropped the sealed tier.
  ASSERT_TRUE(db.insert(make_record(12'000LL * 1'000'000, 0, 0, "input_power_watts", 0.0)).is_ok());
  EXPECT_EQ(db.durable_stats().resident_sealed_bytes, 0u);
  auto rows = query_all(db);
  rows.pop_back();  // the sentinel row the control never saw
  EXPECT_EQ(digest(rows), hot_digest);
  EXPECT_GE(db.durable_stats().cold_loads, 1u);
}

TEST(Persistence, ExplicitEvictionReportsBlocksAndIsRepeatable) {
  TempDir dir;
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  ASSERT_TRUE(db.insert_batch(workload(10'000)).all_accepted());
  db.seal_blocks(1);
  const std::size_t evicted = db.evict_sealed_blocks(0);
  EXPECT_GE(evicted, 1u);
  EXPECT_EQ(db.evict_sealed_blocks(0), 0u);  // already cold
  EXPECT_EQ(query_all(db).size(), 10'000u);  // queries re-materialize
}

// ----------------------------------------------------------------- fuzz

TEST(Persistence, GarbageFilesNeverCrashOpen) {
  std::mt19937_64 rng(0xE27Bu);
  for (int round = 0; round < 8; ++round) {
    TempDir dir;
    // A directory full of garbage that only *looks* like a store.
    for (const char* name : {"wal-000001.log", "segment-000001.seg", "wal-000007.log"}) {
      std::ofstream f(dir.path + "/" + name, std::ios::binary);
      const std::size_t n = static_cast<std::size_t>(rng() % 4096);
      for (std::size_t i = 0; i < n; ++i) {
        const char b = static_cast<char>(rng());
        f.write(&b, 1);
      }
    }
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());  // fresh start, garbage ignored
    EXPECT_EQ(db.size(), 0u);
    ASSERT_TRUE(db.insert_batch(workload(100)).all_accepted());
    EXPECT_EQ(query_all(db).size(), 100u);
  }
}

TEST(Persistence, RandomDamageYieldsAPrefixNeverACrash) {
  std::mt19937_64 rng(0x5EEDu);
  for (int round = 0; round < 10; ++round) {
    TempDir dir;
    std::size_t rows_written;
    {
      EnvDatabase db(durable_options());
      ASSERT_TRUE(db.open(dir.path).is_ok());
      ASSERT_TRUE(db.insert_batch(workload(3'000)).all_accepted());
      db.seal_blocks(1);
      ASSERT_TRUE(db.insert_batch(workload(500, 3'000LL * 1'000'000)).all_accepted());
      rows_written = db.size();
    }
    // Random damage: truncate or bit-flip any store file.
    for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
      const auto size = std::filesystem::file_size(entry.path());
      if (size == 0 || rng() % 2 == 0) continue;
      if (rng() % 2 == 0) {
        std::filesystem::resize_file(entry.path(), rng() % size);
      } else {
        corrupt_byte(entry.path().string(), rng() % size);
      }
    }
    EnvDatabase db(durable_options());
    ASSERT_TRUE(db.open(dir.path).is_ok());
    // Whatever survived is a clean, queryable prefix — damage can cost
    // rows (truncated WAL, quarantined blocks) but never corrupt them.
    const auto rows = query_all(db);
    EXPECT_LE(rows.size(), rows_written);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_GE(rows[i].timestamp.ns(), rows[i - 1].timestamp.ns());
    }
    // And the recovered store still accepts writes.
    const auto next_ts = rows.empty() ? 0 : rows.back().timestamp.ns();
    ASSERT_TRUE(db.insert_batch(workload(100, next_ts + 1'000'000)).all_accepted());
  }
}

// -------------------------------------------------------- introspection

TEST(Persistence, NonDurableDatabaseReportsZerosAndFlushFails) {
  EnvDatabase db(durable_options());
  EXPECT_FALSE(db.durable());
  EXPECT_FALSE(db.flush().is_ok());
  EXPECT_TRUE(db.close().is_ok());  // close is a no-op, not an error
  const auto stats = db.durable_stats();
  EXPECT_EQ(stats.wal_bytes, 0u);
  EXPECT_EQ(stats.segments_open, 0u);
  ASSERT_TRUE(db.insert_batch(workload(100)).all_accepted());  // still works
}

TEST(Persistence, OpenRequiresAnEmptyDatabase) {
  TempDir dir;
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.insert_batch(workload(10)).all_accepted());
  EXPECT_FALSE(db.open(dir.path).is_ok());
}

TEST(Persistence, DurableStatsAndMetricsTrackTheStore) {
  TempDir dir;
  EnvDatabase db(durable_options());
  ASSERT_TRUE(db.open(dir.path).is_ok());
  ASSERT_TRUE(db.insert_batch(workload(5'000)).all_accepted());
  db.seal_blocks(1);
  ASSERT_TRUE(db.flush().is_ok());
  const auto stats = db.durable_stats();
  EXPECT_GT(stats.wal_bytes, 0u);
  EXPECT_GT(stats.wal_frames, 0u);
  EXPECT_GE(stats.segments_open, 1u);
  EXPECT_GE(stats.extents_appended, 1u);
  EXPECT_GT(stats.disk_bytes, 0u);
  EXPECT_GE(db.recovery_info().recovery_seconds, 0.0);
}

}  // namespace
}  // namespace envmon::tsdb
