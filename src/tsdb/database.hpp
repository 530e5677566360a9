#pragma once
// The environmental database.
//
// Blue Gene systems store periodically sampled sensor data, with timestamp
// and location, in an IBM DB2 relational database (the "environmental
// database", paper §II-A).  We stand in for DB2 with an in-memory tagged
// time-series store supporting the queries the study needs: range scans
// filtered by location prefix and metric, downsampling, aggregation, and
// retention.  The paper's observation that "a shorter polling interval
// ... would exceed the server's processing capacity" is modeled via an
// ingest-rate capacity check.
//
// Storage engine: records are sharded into per-(location, metric) series
// with metric names interned to dense ids (metric_table.hpp) and the
// shards indexed under a location-prefix tree (shard_index.hpp).  Each
// series is two-tier (series.hpp): a small mutable head buffer plus
// sealed immutable blocks of up to 4K rows compressed with Gorilla-style
// codecs (block.hpp, codec.hpp) — delta-of-delta timestamps and seq,
// XOR doubles — cut into 16-row subchunks with precomputed partial sums.
//
// query(), downsample() and aggregate() run one scan pipeline, plan →
// cursor → sink (DESIGN.md §10).  The plan resolves candidate series
// through the tree in O(matching series) and lists the sealed blocks
// that survive summary pruning and are not quarantined, then the head.
// A part cursor opens one of them: it materializes a block, decodes its
// timestamps once and narrows to the window's rows (a head is read in
// place), then serves timestamps, seq, and values by 16-row subchunk.
// The sinks: query() materializes rows, fanning parts over a small
// worker pool (query_threads), then puts them in global insertion order
// with a stable LSD radix sort on seq (seq_order.hpp: O(passes · n), no
// comparisons, one scratch buffer) — byte-identical to a flat
// timestamp-ordered scan at any thread count; downsample() folds
// subchunks into buckets, taking a subchunk a bucket fully covers from
// its precomputed sum (aggregation pushdown); aggregate() takes a block
// the window fully covers from its summary before opening any part — it
// trusts the summary, so it neither loads nor quarantines an evicted
// block it fully covers.  Aggregation is defined at subchunk
// granularity (DESIGN.md §10), which makes the pushdown, full-decode,
// compressed, and raw paths bit-identical.
// Downsample results are memoized in a small LRU cache keyed by
// (filter, bucket width), invalidated by any mutation — including
// retention drops.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "tsdb/block.hpp"
#include "tsdb/location.hpp"
#include "tsdb/metric_table.hpp"
#include "tsdb/segment.hpp"
#include "tsdb/series.hpp"
#include "tsdb/shard_index.hpp"
#include "tsdb/wal.hpp"
#include "tsdb/wire.hpp"

namespace envmon::tsdb {

struct Record {
  sim::SimTime timestamp;
  Location location;
  std::string metric;  // e.g. "input_power_watts", "coolant_flow_lpm"
  double value = 0.0;
};

// Reserved metric namespace for the collector's own telemetry: the fleet
// engine self-scrapes its rolled-up health snapshot into the store each
// epoch under `envmon.self.*`.  Records in the namespace bypass the
// modeled DB2 ingest-rate ceiling and do not consume rate-window budget —
// watching the watcher must not eat the processing capacity whose limits
// the paper's polling-interval analysis is about.  Ordering and
// retention rules apply unchanged.
inline constexpr std::string_view kSelfMetricPrefix = "envmon.self.";

[[nodiscard]] inline bool is_self_metric(std::string_view metric) {
  return metric.substr(0, kSelfMetricPrefix.size()) == kSelfMetricPrefix;
}

struct QueryFilter {
  std::optional<Location> location_prefix;  // ancestor location
  std::optional<std::string> metric;
  std::optional<sim::SimTime> from;  // inclusive
  std::optional<sim::SimTime> to;    // inclusive
};

struct DatabaseOptions {
  // Maximum sustained ingest rate; beyond this inserts are rejected,
  // modeling the DB2 server's processing-capacity ceiling.
  double max_insert_rate_per_second = 10'000.0;
  // Sliding window over which the rate is evaluated.
  sim::Duration rate_window = sim::Duration::seconds(60);
  // Records older than this (relative to the newest record) are dropped.
  std::optional<sim::Duration> retention;
  // Distinct downsample results memoized between mutations.
  std::size_t downsample_cache_capacity = 16;
  // Sealed blocks hold codec bitstreams when true; raw column copies
  // when false (identical layout and semantics — the benches use the
  // raw mode as the flat-scan reference engine).
  bool compress_blocks = true;
  // Serve fully-covered downsample buckets / aggregate windows from
  // block and subchunk summaries instead of decoding values.  Results
  // are bit-identical either way; off is the reference configuration.
  bool aggregation_pushdown = true;
  // Worker threads query() may fan sealed-block decodes over.  1 =
  // serial.  Output is byte-identical at any setting.
  std::size_t query_threads = 1;
  // Minimum candidate rows before query() spawns workers at all.
  std::size_t parallel_query_min_rows = 16'384;
  // Durable-storage knobs; all ignored until open() attaches a
  // directory (the store is purely in-memory otherwise).
  struct DurabilityOptions {
    // When the layer fsyncs (wal.hpp).  Write *ordering* — active
    // segment before the WAL records that reference its extents — holds
    // under every policy.
    FsyncPolicy fsync_policy = FsyncPolicy::kOnSeal;
    // The WAL is rotated (checkpoint into a fresh file, older files
    // deleted) once it grows past this.
    std::size_t wal_rotate_bytes = 16u << 20;
    // Active segment files seal and rotate past this (segment.hpp).
    std::size_t segment_rotate_bytes = 8u << 20;
    // Resident-byte bound for sealed blocks: past it, durable clean
    // blocks are evicted (oldest seq first) and re-materialized from
    // their mapped extents on demand.  0 = unbounded, no eviction.
    std::size_t max_resident_sealed_bytes = 0;
  };
  DurabilityOptions durability;
};

class EnvDatabase {
 public:
  // Registers insert/reject/seal/pushdown counters plus query latency /
  // rows-scanned histograms on obs::default_registry() unless obs is
  // disabled.
  explicit EnvDatabase(DatabaseOptions options = {});

  /// Routes inserts through `injector` (site fault::sites::kTsdb by
  /// default): an injected failure rejects the whole batch — one
  /// intercept per insert_batch() call (insert() is a one-row batch),
  /// modeling the DB2 server being unreachable.  The store has no cost
  /// meter, so delay and corruption schedules are ignored here.
  void attach_fault_hook(fault::Injector& injector,
                         std::string site = std::string(fault::sites::kTsdb)) {
    fault_hook_.attach(injector, std::move(site));
  }

  // --- Durable storage lifecycle (DESIGN.md §13) ---
  //
  // open() attaches `dir` (created if missing) and recovers whatever a
  // previous instance left there: segment files are indexed (O(1) via
  // their footers), the newest WAL holding a valid leading checkpoint
  // is replayed — truncating at the first torn or corrupt record — and
  // queries then return byte-identical results to the uninterrupted
  // run, up to the last durable record.  Must be called on an empty
  // database, before any insert.
  struct RecoveryInfo {
    bool recovered = false;  // a prior state was restored from dir
    std::uint64_t wal_frames_replayed = 0;
    std::uint64_t wal_bytes_replayed = 0;
    bool wal_truncated = false;  // a torn/corrupt tail was discarded
    std::uint64_t rows_recovered = 0;
    std::uint64_t blocks_recovered = 0;  // sealed blocks re-referenced
    double recovery_seconds = 0.0;
  };
  Status open(const std::string& dir);
  // Writes out buffered WAL records and fsyncs segment-then-WAL.
  Status flush();
  // Checkpoints into a fresh WAL and closes all files.  A database that
  // is destroyed *without* close() models a crash: nothing is written
  // at destruction, and the next open() replays the WAL.
  Status close();
  [[nodiscard]] bool durable() const { return durable_ != nullptr; }
  [[nodiscard]] const RecoveryInfo& recovery_info() const { return recovery_; }

  // Durable-layer introspection (zeros when not durable).
  struct DurableStats {
    std::uint64_t wal_bytes = 0;          // framed bytes appended this run
    std::uint64_t wal_frames = 0;
    std::uint64_t segments_open = 0;      // live segment files
    std::uint64_t extents_appended = 0;   // physical extent writes
    std::uint64_t dedup_hits = 0;         // seals served by an existing extent
    std::uint64_t cold_loads = 0;         // evicted-block materializations
    std::uint64_t quarantined = 0;        // checksum/decode failures
    std::uint64_t segments_deleted = 0;   // dead segment files unlinked
    std::uint64_t evicted_blocks = 0;
    std::uint64_t disk_bytes = 0;
    std::uint64_t resident_sealed_bytes = 0;
  };
  [[nodiscard]] DurableStats durable_stats() const;

  // Evicts durable clean sealed blocks (oldest seq first) until the
  // resident sealed tier is at most `target_bytes`; returns blocks
  // evicted.  Runs automatically when max_resident_sealed_bytes is set.
  std::size_t evict_sealed_blocks(std::size_t target_bytes);

  // Inserts one record: a one-row insert_batch() whose one reject
  // category maps to its by_code() status — kInvalidArgument when out of
  // order, kResourceExhausted over the ingest rate ceiling, kUnavailable
  // during an injected outage.
  Status insert(const Record& record);

  // Batch ingest: per-record validation with skip-and-continue semantics
  // (a rejected record is counted and dropped; the rest of the batch
  // still lands), amortizing the capacity check, metric interning, the
  // shard-index walk (once per run of same-series records, which also
  // pre-reserves the head buffer for the run), and the retention pass
  // (run once, after the batch) across the batch.  This is the path the
  // collection layers use: one call per poll.
  struct BatchResult {
    std::size_t accepted = 0;
    std::size_t rejected_out_of_order = 0;
    std::size_t rejected_rate_limited = 0;
    std::size_t rejected_unavailable = 0;  // injected server outage
    [[nodiscard]] std::size_t rejected() const {
      return rejected_out_of_order + rejected_rate_limited + rejected_unavailable;
    }
    [[nodiscard]] bool all_accepted() const { return rejected() == 0; }
    // Reject categories mapped onto the shared Status taxonomy
    // (common/status.hpp).  The envmond wire protocol forwards these
    // exact codes in BatchReply, so a remote producer observes the same
    // StatusCode an in-process insert_batch() caller would.
    [[nodiscard]] std::array<std::pair<StatusCode, std::size_t>, 3> by_code() const {
      return {{{StatusCode::kInvalidArgument, rejected_out_of_order},
               {StatusCode::kResourceExhausted, rejected_rate_limited},
               {StatusCode::kUnavailable, rejected_unavailable}}};
    }
  };
  BatchResult insert_batch(std::span<const Record> records);

  // Seals every series head holding at least `min_rows` rows into an
  // immutable block; returns blocks created.  The fleet ingest worker
  // calls this on epoch boundaries; benches flush with min_rows = 1.
  // Query results are unaffected (sealing preserves rows, ordering, and
  // the subchunk aggregation grid).
  std::size_t seal_blocks(std::size_t min_rows = 1);

  // Range scan; results ordered by (timestamp, insert order).
  [[nodiscard]] std::vector<Record> query(const QueryFilter& filter) const;

  // Average of `metric` under `location_prefix` in fixed-width buckets.
  struct Bucket {
    sim::SimTime start;
    double mean = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::vector<Bucket> downsample(const QueryFilter& filter,
                                               sim::Duration bucket_width) const;

  // Whole-window aggregate with summary pushdown: a sealed block fully
  // inside the filter window contributes its summary without decoding.
  // min/max skip NaN rows; mean/variance come from the same left-to-
  // right folds the decode path would produce (bit-identical).
  struct Aggregate {
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };
  [[nodiscard]] Aggregate aggregate(const QueryFilter& filter) const;

  [[nodiscard]] std::size_t size() const { return total_rows_; }
  [[nodiscard]] std::size_t rejected_inserts() const { return rejected_; }

  // Applies retention; normally called internally on insert.  Whole
  // expired blocks drop without decoding; at most one boundary block
  // per series is re-materialized.
  void vacuum();

  // Engine introspection (benches and tests; cumulative since construction).
  struct QueryStats {
    std::uint64_t queries = 0;         // query() + downsample() + aggregate() calls
    std::uint64_t rows_scanned = 0;    // rows matched after index + time narrowing
    // Rows of sealed-block subchunks whose value column a read
    // decoded (or copied, from a raw block).  Subchunks served from a
    // summary and head rows count 0; a subchunk counts its full rows
    // even when the window covers part of it.
    std::uint64_t rows_decoded = 0;
    std::uint64_t series_touched = 0;  // candidate series resolved by the index
    std::uint64_t cache_hits = 0;      // downsample results served from cache
    std::uint64_t cache_misses = 0;
    std::uint64_t blocks_sealed = 0;   // head seals (auto + explicit)
    std::uint64_t pushdown_rows = 0;   // rows aggregated from summaries alone
    std::uint64_t pushdown_chunks = 0; // subchunk/block summaries consumed
  };
  [[nodiscard]] const QueryStats& query_stats() const { return stats_; }
  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  [[nodiscard]] std::size_t metric_count() const { return metrics_.size(); }
  // Live sealed blocks across all series (O(series)).
  [[nodiscard]] std::size_t sealed_block_count() const;
  // Approximate heap footprint of the store: head columns, sealed block
  // streams, interned names, the ingest-rate window, and the downsample
  // cache (whose entries used to go unaccounted).
  [[nodiscard]] std::size_t bytes_used() const;

 private:
  struct DownsampleKey {
    std::array<int, 4> prefix{-1, -1, -1, -1};  // rack/midplane/board/card
    bool has_prefix = false;
    std::optional<MetricId> metric;
    std::optional<sim::SimTime> from, to;
    std::int64_t width_ns = 0;
    friend auto operator<=>(const DownsampleKey&, const DownsampleKey&) = default;
  };
  struct CacheEntry {
    std::vector<Bucket> buckets;
    std::uint64_t last_used = 0;
  };
  // One part of a scan: a sealed block of one series, or its head
  // (block < 0).
  struct ScanPart {
    std::uint32_t sid = 0;
    std::int32_t block = -1;
    std::size_t est_rows = 0;  // block rows, or head rows in the window
    bool covered = false;      // block lies wholly inside the window
  };
  // A read's window and its parts, in (series, block, head) order.
  struct ScanPlan {
    std::optional<std::int64_t> from_ns, to_ns;
    std::vector<ScanPart> parts;
  };
  class PartCursor;
  // What one read did, folded into stats_ and the metrics by note_query.
  struct ScanCounts {
    std::uint64_t rows_scanned = 0;
    std::uint64_t rows_decoded = 0;  // summed from PartCursor only
    std::uint64_t pushdown_rows = 0;
    std::uint64_t pushdown_chunks = 0;
  };
  struct DecodedRow {
    std::uint64_t seq = 0;
    std::int64_t ts_ns = 0;
    double value = 0.0;
    std::uint32_t sid = 0;
  };

  // Durable-layer plumbing (all no-ops until open()).
  struct Durable {
    std::string dir;
    BlockStore store;
    WalWriter wal;
    std::uint32_t wal_number = 0;  // current wal-NNNNNN.log
    // Accepted inserts buffered for the next kInsertBatch frame (one
    // frame per insert()/insert_batch() call, or earlier if a seal or
    // vacuum record needs the rows on disk first).
    wire::Writer pending;
    std::size_t pending_rows = 0;
    std::uint64_t metrics_logged = 0;  // metric defs already in the WAL
    std::uint64_t evicted_blocks = 0;
    // A seal or retention record was written since the last fsync; the
    // kOnSeal policy syncs at these barriers.
    bool barrier = false;
  };

  [[nodiscard]] bool over_ingest_rate(sim::SimTime now);
  void note_accept(const Record& record, std::uint32_t sid);
  // Resolves (location, metric) to a series id, creating the series —
  // store-attached when durable — on first use.
  std::uint32_t ensure_series(const Location& location, MetricId metric);
  std::size_t apply_retention_cutoff(std::int64_t cutoff_ns);
  // WAL emission.  Ordering rules: metric defs precede the first frame
  // using the id; buffered inserts flush before any seal/vacuum frame
  // that depends on them.
  void dlog_frame(WalRecordType type, std::span<const std::uint8_t> payload);
  void dlog_insert(const Record& record, MetricId metric);
  void dlog_flush_inserts();
  void dlog_seal(std::uint32_t sid);
  void dlog_vacuum(std::int64_t cutoff_ns);
  // fsync pair in dependency order: active segment, then WAL.
  Status sync_durable();
  void after_durable_write();
  // Checkpoint rotation: full state into a fresh WAL (tmp + rename),
  // older WAL files deleted.
  void encode_checkpoint(wire::Writer& out) const;
  bool decode_checkpoint(std::span<const std::uint8_t> payload);
  Status write_checkpoint_wal();
  // Replay machinery.
  Status recover(RecoveryInfo& info);
  bool apply_wal_frame(WalRecordType type, std::span<const std::uint8_t> payload);
  void reset_state();
  void maybe_evict();
  void update_durable_metrics();
  // Candidate series ids for a filter, in deterministic index order;
  // false when the filter names a metric that was never ingested.
  bool resolve_series(const QueryFilter& filter, std::vector<std::uint32_t>& sids) const;
  // Resolves the filter's series and lists their unpruned parts (empty
  // when the metric was never ingested).
  [[nodiscard]] ScanPlan plan_scan(const QueryFilter& filter) const;
  void note_query(std::chrono::steady_clock::time_point t0, const ScanCounts& counts) const;
  void note_seal(std::size_t blocks);
  void update_footprint_metrics();

  DatabaseOptions options_;
  MetricTable metrics_;
  std::vector<Series> series_;
  ShardIndex index_;
  std::unique_ptr<Durable> durable_;
  RecoveryInfo recovery_;
  bool replaying_ = false;  // inside recover(): no re-logging

  // Accepted-record timestamps inside the rate window, trimmed lazily
  // from the front (time only moves forward).  Unlike the flat store's
  // binary search over live records, this is O(1) amortized — and
  // records dropped by *retention* stay counted until they age out of
  // the window, so vacuum() cannot retroactively free ingest budget.
  std::deque<std::int64_t> rate_window_;

  std::size_t total_rows_ = 0;
  std::uint64_t next_seq_ = 0;
  bool any_accepted_ = false;
  std::int64_t last_ts_ns_ = 0;    // newest accepted timestamp
  std::int64_t oldest_ts_ns_ = 0;  // oldest retained timestamp (vacuum early-out)
  std::size_t rejected_ = 0;
  std::uint64_t generation_ = 0;  // bumped on mutation; invalidates the cache

  mutable QueryStats stats_;
  mutable std::map<DownsampleKey, CacheEntry> downsample_cache_;
  mutable std::uint64_t cache_generation_ = 0;
  mutable std::uint64_t cache_tick_ = 0;

  obs::Counter* inserts_metric_ = nullptr;
  obs::Counter* rejected_metric_ = nullptr;
  obs::Counter* cache_hits_metric_ = nullptr;
  obs::Counter* cache_misses_metric_ = nullptr;
  obs::Counter* seals_metric_ = nullptr;
  obs::Counter* pushdown_metric_ = nullptr;
  obs::Histogram* query_latency_metric_ = nullptr;
  obs::Histogram* rows_scanned_metric_ = nullptr;
  obs::Gauge* series_gauge_ = nullptr;
  obs::Gauge* bytes_used_gauge_ = nullptr;
  obs::Gauge* bytes_per_record_gauge_ = nullptr;
  obs::Counter* wal_bytes_metric_ = nullptr;
  obs::Counter* dedup_metric_ = nullptr;
  obs::Counter* cold_loads_metric_ = nullptr;
  obs::Counter* quarantined_metric_ = nullptr;
  obs::Counter* evicted_metric_ = nullptr;
  obs::Gauge* segments_open_gauge_ = nullptr;
  obs::Gauge* disk_bytes_gauge_ = nullptr;
  obs::Gauge* recovery_seconds_gauge_ = nullptr;
  obs::Counter* decode_rows_metric_ = nullptr;
  fault::Hook fault_hook_;
};

}  // namespace envmon::tsdb
