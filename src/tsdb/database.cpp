#include "tsdb/database.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "tsdb/seq_order.hpp"
#include "tsdb/simd.hpp"

namespace envmon::tsdb {

namespace {

// Bucket index with floor semantics: integer `/` truncates toward zero,
// which would mis-bucket pre-epoch (negative) timestamps to the right.
constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

std::string wal_filename(std::uint32_t number) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06u.log", number);
  return name;
}

std::string wal_path(const std::string& dir, std::uint32_t number) {
  return dir + "/" + wal_filename(number);
}

// Best-effort directory fsync (rename/unlink durability).
void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

// Sanity ceilings for checkpoint decoding: a corrupt count must fail
// fast, not drive a multi-gigabyte allocation.
constexpr std::uint32_t kMaxCheckpointMetrics = 1u << 20;
constexpr std::uint32_t kMaxCheckpointSeries = 1u << 24;
constexpr std::uint32_t kMaxCheckpointBlocks = 1u << 24;
constexpr std::uint32_t kMaxCheckpointWindow = 1u << 27;

void write_location(wire::Writer& w, const Location& loc) {
  w.i32(loc.rack);
  w.i32(loc.midplane);
  w.i32(loc.board);
  w.i32(loc.card);
}

Location read_location(wire::Reader& r) {
  Location loc;
  loc.rack = r.i32();
  loc.midplane = r.i32();
  loc.board = r.i32();
  loc.card = r.i32();
  return loc;
}

// One sealed block's durable reference (DESIGN.md §13.5): its summary,
// the extent holding its payload, and its seq sidecar.  The seal frame
// and the checkpoint both carry it in this one layout.
struct SealedRef {
  BlockSummary sum;
  ExtentRef ref;
  std::span<const std::uint8_t> seq;
};

void write_sealed_ref(wire::Writer& w, const BlockSummary& sum, const ExtentRef& ref,
                      std::span<const std::uint8_t> seq) {
  w.u32(sum.rows);
  w.u32(sum.finite_rows);
  w.i64(sum.ts_min);
  w.i64(sum.ts_max);
  w.u64(sum.seq_first);
  w.u64(sum.seq_last);
  w.f64(sum.value_min);
  w.f64(sum.value_max);
  w.f64(sum.value_sum);
  w.f64(sum.value_sum_sq);
  w.u32(ref.segment_id);
  w.u64(ref.offset);
  w.u32(ref.length);
  w.u32(ref.crc);
  w.u64(ref.hash.hi);
  w.u64(ref.hash.lo);
  w.blob(seq);
}

// False on a short read or on a row count no sealed block can have.
bool read_sealed_ref(wire::Reader& r, SealedRef& out) {
  BlockSummary& sum = out.sum;
  sum.rows = r.u32();
  sum.finite_rows = r.u32();
  sum.ts_min = r.i64();
  sum.ts_max = r.i64();
  sum.seq_first = r.u64();
  sum.seq_last = r.u64();
  sum.value_min = r.f64();
  sum.value_max = r.f64();
  sum.value_sum = r.f64();
  sum.value_sum_sq = r.f64();
  out.ref.segment_id = r.u32();
  out.ref.offset = r.u64();
  out.ref.length = r.u32();
  out.ref.crc = r.u32();
  out.ref.hash.hi = r.u64();
  out.ref.hash.lo = r.u64();
  out.seq = r.blob();
  return r.ok() && sum.rows != 0 && sum.rows <= Block::kMaxRows &&
         sum.finite_rows <= sum.rows;
}

}  // namespace

EnvDatabase::EnvDatabase(DatabaseOptions options) : options_(options) {
  if (obs::enabled()) {
    auto& registry = obs::default_registry();
    inserts_metric_ = &registry.counter("envmon_tsdb_inserts_total",
                                        "Records accepted by the environmental database");
    rejected_metric_ = &registry.counter(
        "envmon_tsdb_rejected_inserts_total",
        "Inserts rejected (ingest rate ceiling or out-of-order timestamps)");
    cache_hits_metric_ =
        &registry.counter("envmon_tsdb_downsample_cache_hits_total",
                          "Downsample queries served from the LRU result cache");
    cache_misses_metric_ =
        &registry.counter("envmon_tsdb_downsample_cache_misses_total",
                          "Downsample queries that touched the storage engine");
    seals_metric_ = &registry.counter("envmon_tsdb_block_seals_total",
                                      "Series heads sealed into immutable blocks");
    pushdown_metric_ = &registry.counter(
        "envmon_tsdb_pushdown_buckets_total",
        "Downsample/aggregate windows served from block or subchunk summaries");
    query_latency_metric_ =
        &registry.histogram("envmon_tsdb_query_latency_ms",
                            "Wall-clock latency of environmental database queries",
                            obs::Histogram::latency_bounds_ms());
    rows_scanned_metric_ = &registry.histogram(
        "envmon_tsdb_query_rows_scanned",
        "Rows touched per query after index and time-range narrowing",
        obs::Histogram::exponential_bounds(1.0, 4.0, 12));
    series_gauge_ = &registry.gauge(
        "envmon_tsdb_series", "Live (location, metric) series in the environmental database");
    bytes_used_gauge_ =
        &registry.gauge("envmon_tsdb_bytes_used",
                        "Approximate heap footprint of the environmental database");
    bytes_per_record_gauge_ =
        &registry.gauge("envmon_tsdb_bytes_per_record",
                        "Heap bytes per live record in the environmental database");
    wal_bytes_metric_ = &registry.counter(
        "envmon_tsdb_wal_bytes_total",
        "Bytes appended to the write-ahead log (frames and checkpoints)");
    dedup_metric_ = &registry.counter(
        "envmon_tsdb_dedup_blocks_total",
        "Sealed blocks whose payload deduplicated to an existing on-disk extent");
    cold_loads_metric_ = &registry.counter(
        "envmon_tsdb_cold_block_loads_total",
        "Evicted sealed blocks re-materialized from their mapped extents");
    quarantined_metric_ = &registry.counter(
        "envmon_tsdb_quarantined_blocks_total",
        "Sealed blocks quarantined by a checksum or decode failure");
    evicted_metric_ = &registry.counter(
        "envmon_tsdb_evicted_blocks_total",
        "Durable sealed blocks evicted from memory by the resident-bytes bound");
    segments_open_gauge_ = &registry.gauge(
        "envmon_tsdb_segments_open", "Live segment files in the durable block store");
    disk_bytes_gauge_ = &registry.gauge(
        "envmon_tsdb_disk_bytes", "Bytes held by segment files on disk");
    recovery_seconds_gauge_ = &registry.gauge(
        "envmon_tsdb_recovery_seconds",
        "Wall-clock seconds the last open() spent recovering durable state");
    decode_rows_metric_ = &registry.counter(
        "envmon_tsdb_decode_rows_total",
        "Rows of sealed-block subchunks whose values query/downsample/aggregate "
        "decoded (or copied from a raw block); summary-served subchunks and head "
        "rows count 0");
  }
}

bool EnvDatabase::over_ingest_rate(sim::SimTime now) {
  if (options_.max_insert_rate_per_second <= 0.0) return false;
  const std::int64_t window_start = (now - options_.rate_window).ns();
  // Accepted timestamps only move forward, so trimming the front is O(1)
  // amortized — the flat store binary-searched all live records instead.
  while (!rate_window_.empty() && rate_window_.front() < window_start) {
    rate_window_.pop_front();
  }
  const double window_seconds = options_.rate_window.to_seconds();
  return static_cast<double>(rate_window_.size()) >=
         options_.max_insert_rate_per_second * window_seconds;
}

void EnvDatabase::note_accept(const Record& record, std::uint32_t sid) {
  const std::int64_t ts = record.timestamp.ns();
  // The WAL buffers the record before the append so a seal triggered by
  // this very row finds its insert frame already ahead of the seal frame.
  if (durable_ != nullptr) dlog_insert(record, series_[sid].metric());
  if (series_[sid].append(ts, record.value, next_seq_++)) {
    note_seal(1);
    if (durable_ != nullptr) dlog_seal(sid);
  }
  // Self-telemetry rows never consume ingest-rate budget (reserved
  // namespace, database.hpp).
  if (options_.max_insert_rate_per_second > 0.0 && !is_self_metric(record.metric)) {
    rate_window_.push_back(ts);
  }
  if (!any_accepted_) oldest_ts_ns_ = ts;
  any_accepted_ = true;
  last_ts_ns_ = ts;
  ++total_rows_;
  ++generation_;
}

std::uint32_t EnvDatabase::ensure_series(const Location& location, MetricId metric) {
  std::uint32_t& slot = index_.slot(location, metric);
  if (slot == ShardIndex::kNoSeries) {
    slot = static_cast<std::uint32_t>(series_.size());
    series_.emplace_back(location, metric, options_.compress_blocks);
    if (durable_ != nullptr) series_.back().attach_store(&durable_->store);
    if (series_gauge_ != nullptr) series_gauge_->set(static_cast<double>(series_.size()));
  }
  return slot;
}

Status EnvDatabase::insert(const Record& record) {
  // One row: at most one reject category is non-zero.
  for (const auto& [code, count] : insert_batch({&record, 1}).by_code()) {
    if (count > 0) return Status(code, "environmental database rejected the insert");
  }
  return Status::ok();
}

EnvDatabase::BatchResult EnvDatabase::insert_batch(std::span<const Record> records) {
  BatchResult result;
  // One intercept per batch: a server outage loses the whole write, the
  // way one failed bulk INSERT does.
  if (fault_hook_.attached() && !fault_hook_.intercept().ok()) {
    result.rejected_unavailable = records.size();
    rejected_ += result.rejected_unavailable;
    if (rejected_metric_ != nullptr && !records.empty()) {
      rejected_metric_->inc(result.rejected_unavailable);
    }
    return result;
  }
  // Collectors emit runs of same-(location, metric) records (one node's
  // domains in order), so the batch is processed run-at-a-time: metric
  // interning, the shard-index walk, and the head-buffer reserve each
  // happen once per run, not once per record.  The series slot is only
  // resolved when a record of the run actually passes validation, so a
  // fully rejected run creates no series and interns nothing.
  const std::size_t n = records.size();
  std::size_t run_end = 0;
  bool run_metric_known = false;
  bool run_self = false;
  MetricId run_metric = 0;
  std::uint32_t run_sid = ShardIndex::kNoSeries;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& record = records[i];
    if (i >= run_end) {
      run_end = i + 1;
      while (run_end < n && records[run_end].location == record.location &&
             records[run_end].metric == record.metric) {
        ++run_end;
      }
      run_metric_known = false;
      run_self = is_self_metric(record.metric);
      run_sid = ShardIndex::kNoSeries;
    }
    if (any_accepted_ && record.timestamp.ns() < last_ts_ns_) {
      ++result.rejected_out_of_order;
      continue;
    }
    if (!run_self && over_ingest_rate(record.timestamp)) {
      ++result.rejected_rate_limited;
      continue;
    }
    if (run_sid == ShardIndex::kNoSeries) {
      if (!run_metric_known) {
        run_metric = metrics_.intern(record.metric);
        run_metric_known = true;
      }
      run_sid = ensure_series(record.location, run_metric);
      // A one-row batch (every insert()) leaves the head to append()'s
      // geometric growth: an exact reserve would reallocate a full head
      // on every call.
      if (n > 1) series_[run_sid].reserve_head(run_end - i);
    }
    note_accept(record, run_sid);
    ++result.accepted;
  }
  rejected_ += result.rejected();
  if (inserts_metric_ != nullptr && result.accepted > 0) {
    inserts_metric_->inc(result.accepted);
  }
  if (rejected_metric_ != nullptr && result.rejected() > 0) {
    rejected_metric_->inc(result.rejected());
  }
  // Retention runs once per batch, not once per record; the end state is
  // the same because the cutoff depends only on the newest record.
  if (options_.retention && result.accepted > 0) vacuum();
  after_durable_write();
  update_footprint_metrics();
  return result;
}

std::size_t EnvDatabase::seal_blocks(std::size_t min_rows) {
  std::size_t sealed = 0;
  for (std::uint32_t sid = 0; sid < series_.size(); ++sid) {
    if (series_[sid].seal_head(min_rows)) {
      ++sealed;
      if (durable_ != nullptr) dlog_seal(sid);
    }
  }
  // No generation bump: sealing preserves rows, ordering, and the
  // subchunk aggregation grid, so cached downsample results stay valid.
  if (sealed > 0) note_seal(sealed);
  after_durable_write();
  update_footprint_metrics();
  return sealed;
}

void EnvDatabase::note_seal(std::size_t blocks) {
  stats_.blocks_sealed += blocks;
  if (seals_metric_ != nullptr) seals_metric_->inc(blocks);
}

bool EnvDatabase::resolve_series(const QueryFilter& filter,
                                 std::vector<std::uint32_t>& sids) const {
  std::optional<MetricId> metric;
  if (filter.metric) {
    metric = metrics_.find(*filter.metric);
    if (!metric) return false;  // metric never ingested: no candidate series
  }
  index_.collect(filter.location_prefix, metric, sids);
  stats_.series_touched += sids.size();
  return true;
}

EnvDatabase::ScanPlan EnvDatabase::plan_scan(const QueryFilter& filter) const {
  ScanPlan plan;
  if (filter.from) plan.from_ns = filter.from->ns();
  if (filter.to) plan.to_ns = filter.to->ns();
  std::vector<std::uint32_t> sids;
  if (!resolve_series(filter, sids)) return plan;
  for (const std::uint32_t sid : sids) {
    const Series& s = series_[sid];
    for (std::size_t b = 0; b < s.block_count(); ++b) {
      // The one quarantine skip: an extent that failed its checksum on
      // an earlier read has no rows.  A block failing on this read
      // makes PartCursor::open return false instead.
      if (s.block_quarantined(b)) continue;
      const BlockSummary& sum = s.block_summary(b);
      if (plan.from_ns && sum.ts_max < *plan.from_ns) continue;
      if (plan.to_ns && sum.ts_min > *plan.to_ns) break;  // blocks are time-ordered
      const bool covered = (!plan.from_ns || *plan.from_ns <= sum.ts_min) &&
                           (!plan.to_ns || sum.ts_max <= *plan.to_ns);
      plan.parts.push_back(ScanPart{sid, static_cast<std::int32_t>(b), sum.rows, covered});
    }
    const Series::RowRange r = s.head_range(plan.from_ns, plan.to_ns);
    if (r.size() > 0) plan.parts.push_back(ScanPart{sid, -1, r.size(), false});
  }
  return plan;
}

// Reads one ScanPart.  Opening a sealed block materializes it (a cold
// load when evicted), decodes its timestamps once and narrows them to
// the window's rows; a head is read in place.  Row and subchunk indices
// are relative to the part's first row, so a head is cut on the same
// 16-row grid it will have once sealed and sealing never moves a fold.
// The cursor is the only counter of rows_decoded: each subchunk() read
// of a sealed block adds that subchunk's rows (database.hpp).  A cursor
// belongs to one thread and reuses its buffers across the parts it opens.
class EnvDatabase::PartCursor {
 public:
  static constexpr std::size_t kRows = Block::kSubchunkRows;

  // False when no row of the part lies in the window, or when its block
  // fails its checksum now (and is quarantined from then on).
  bool open(const Series& series, const ScanPart& part, const ScanPlan& plan) {
    series_ = &series;
    block_ = nullptr;
    seq_.clear();
    if (part.block >= 0) {
      block_ = series.block(static_cast<std::size_t>(part.block));
      if (block_ == nullptr) return false;
      block_->decode_timestamps(ts_);
      values_.emplace(*block_);
    }
    rows_ = Series::rows_between(ts(), plan.from_ns, plan.to_ns);
    return rows_.size() > 0;
  }

  // The window's rows [first, last) and every row's timestamp.
  [[nodiscard]] Series::RowRange rows() const { return rows_; }
  [[nodiscard]] std::span<const std::int64_t> ts() const {
    return block_ == nullptr ? std::span(series_->head_ts()) : std::span(ts_);
  }
  // Every row's seq (a block decodes the column on first use).
  [[nodiscard]] std::span<const std::uint64_t> seq() {
    if (block_ == nullptr) return series_->head_seq();
    if (seq_.empty()) block_->decode_seq(seq_);
    return seq_;
  }
  // Subchunk c holds rows [c * kRows, subchunk_end(c)).
  [[nodiscard]] std::size_t subchunk_end(std::size_t c) const {
    return std::min((c + 1) * kRows, ts().size());
  }
  // Subchunk c's values; valid until the next call.
  [[nodiscard]] const double* subchunk(std::size_t c) {
    if (block_ == nullptr) return series_->head_values().data() + c * kRows;
    rows_decoded_ += block_->subchunk_rows(c);
    return values_->subchunk(c);
  }
  // Subchunk c's seal-time sum; a head has none.
  [[nodiscard]] std::optional<double> subchunk_sum(std::size_t c) const {
    if (block_ == nullptr) return std::nullopt;
    return block_->subchunk_sum(c);
  }
  // The subchunk walk: fn(c, lo, hi) for each subchunk c the window
  // touches, in row order, with [lo, hi) its rows inside the window.
  template <class Fn>
  void for_each_subchunk(Fn&& fn) {
    for (std::size_t c = rows_.first / kRows; c * kRows < rows_.last; ++c) {
      fn(c, std::max(c * kRows, rows_.first), std::min(subchunk_end(c), rows_.last));
    }
  }
  [[nodiscard]] std::uint64_t rows_decoded() const { return rows_decoded_; }

 private:
  const Series* series_ = nullptr;
  const Block* block_ = nullptr;
  std::optional<BlockValueCursor> values_;
  std::vector<std::int64_t> ts_;  // a block's decoded timestamps
  std::vector<std::uint64_t> seq_;
  Series::RowRange rows_;
  std::uint64_t rows_decoded_ = 0;
};

void EnvDatabase::note_query(std::chrono::steady_clock::time_point t0,
                             const ScanCounts& counts) const {
  ++stats_.queries;
  stats_.rows_scanned += counts.rows_scanned;
  stats_.rows_decoded += counts.rows_decoded;
  stats_.pushdown_rows += counts.pushdown_rows;
  stats_.pushdown_chunks += counts.pushdown_chunks;
  if (decode_rows_metric_ != nullptr && counts.rows_decoded > 0) {
    decode_rows_metric_->inc(counts.rows_decoded);
  }
  if (pushdown_metric_ != nullptr && counts.pushdown_chunks > 0) {
    pushdown_metric_->inc(counts.pushdown_chunks);
  }
  if (query_latency_metric_ != nullptr) {
    query_latency_metric_->observe(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  if (rows_scanned_metric_ != nullptr) {
    rows_scanned_metric_->observe(static_cast<double>(counts.rows_scanned));
  }
}

std::vector<Record> EnvDatabase::query(const QueryFilter& filter) const {
  const auto t0 = std::chrono::steady_clock::now();
  const ScanPlan plan = plan_scan(filter);
  const std::vector<ScanPart>& parts = plan.parts;
  std::size_t est = 0;
  for (const ScanPart& p : parts) est += p.est_rows;

  // Materialize sink.  Parts fan out over workers; each part writes its
  // own output slot and each worker reads through its own cursor, so
  // workers share nothing mutable.  The gathered rows are then radix-
  // ordered on the globally unique insertion sequence (seq_order.hpp),
  // which makes the result byte-identical at any thread count (and
  // identical to the flat timestamp-ordered scan, since inserts are
  // time-ordered).
  std::size_t workers = 1;
  if (options_.query_threads > 1 && parts.size() > 1 &&
      est >= options_.parallel_query_min_rows) {
    workers = std::min(options_.query_threads, parts.size());
  }
  std::vector<std::vector<DecodedRow>> slots(parts.size());
  std::vector<PartCursor> cursors(workers);
  const auto scan_part = [&](std::size_t pi, PartCursor& cursor) {
    const ScanPart& part = parts[pi];
    if (!cursor.open(series_[part.sid], part, plan)) return;
    std::vector<DecodedRow>& rows = slots[pi];
    rows.reserve(cursor.rows().size());
    const std::span<const std::uint64_t> seq = cursor.seq();
    const std::span<const std::int64_t> ts = cursor.ts();
    cursor.for_each_subchunk([&](std::size_t c, std::size_t lo, std::size_t hi) {
      const double* values = cursor.subchunk(c);
      for (std::size_t i = lo; i < hi; ++i) {
        rows.push_back(DecodedRow{seq[i], ts[i], values[i - c * PartCursor::kRows], part.sid});
      }
    });
  };
  if (workers == 1) {
    for (std::size_t pi = 0; pi < parts.size(); ++pi) scan_part(pi, cursors[0]);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (std::size_t pi = next.fetch_add(1, std::memory_order_relaxed);
             pi < parts.size(); pi = next.fetch_add(1, std::memory_order_relaxed)) {
          scan_part(pi, cursors[w]);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  ScanCounts counts;
  for (const PartCursor& cursor : cursors) counts.rows_decoded += cursor.rows_decoded();
  for (const auto& slot : slots) counts.rows_scanned += slot.size();
  std::vector<DecodedRow> rows;
  rows.reserve(counts.rows_scanned);
  for (const auto& slot : slots) rows.insert(rows.end(), slot.begin(), slot.end());
  detail::order_by_seq(rows);

  std::vector<Record> out;
  out.reserve(rows.size());
  for (const DecodedRow& r : rows) {
    const Series& s = series_[r.sid];
    out.push_back(Record{sim::SimTime::from_ns(r.ts_ns), s.location(),
                         metrics_.name(s.metric()), r.value});
  }
  note_query(t0, counts);
  return out;
}

std::vector<EnvDatabase::Bucket> EnvDatabase::downsample(const QueryFilter& filter,
                                                         sim::Duration bucket_width) const {
  std::vector<Bucket> buckets;
  if (bucket_width.ns() <= 0) return buckets;
  const auto t0 = std::chrono::steady_clock::now();

  if (cache_generation_ != generation_) {
    downsample_cache_.clear();
    cache_generation_ = generation_;
  }
  DownsampleKey key;
  bool cacheable = options_.downsample_cache_capacity > 0;
  if (filter.location_prefix) {
    const Location& p = *filter.location_prefix;
    key.prefix = {p.rack, p.midplane, p.board, p.card};
    key.has_prefix = true;
  }
  if (filter.metric) {
    const auto id = metrics_.find(*filter.metric);
    if (id) {
      key.metric = id;
    } else {
      cacheable = false;  // unknown metric: empty result, not worth a slot
    }
  }
  key.from = filter.from;
  key.to = filter.to;
  key.width_ns = bucket_width.ns();

  if (cacheable) {
    if (const auto it = downsample_cache_.find(key); it != downsample_cache_.end()) {
      it->second.last_used = ++cache_tick_;
      ++stats_.cache_hits;
      if (cache_hits_metric_ != nullptr) cache_hits_metric_->inc();
      note_query(t0, {});
      return it->second.buckets;
    }
    ++stats_.cache_misses;
    if (cache_misses_metric_ != nullptr) cache_misses_metric_->inc();
  }

  // Bucket fold sink.  Bucket sums are accumulated at subchunk
  // granularity: every part's rows are cut on the same 16-row grid the
  // sealed blocks use, each (subchunk ∩ bucket) run folded by the
  // canonical grammar (simd.hpp: the 4-lane tree for a full 16-row
  // subchunk, left-to-right for shorter runs), and the partials added in
  // deterministic (series, part, subchunk) order.  A subchunk that lies
  // fully inside one bucket contributes exactly its seal-time sum, so
  // taking the precomputed sum (pushdown) — or decoding it — or hitting
  // the same rows pre-seal in the head — yields bit-identical buckets.
  struct Acc {
    double sum = 0.0;
    std::size_t count = 0;
  };
  std::map<std::int64_t, Acc> acc;
  ScanCounts counts;
  const std::int64_t w = bucket_width.ns();
  const ScanPlan plan = plan_scan(filter);
  PartCursor cursor;
  for (const ScanPart& part : plan.parts) {
    if (!cursor.open(series_[part.sid], part, plan)) continue;
    const std::span<const std::int64_t> ts = cursor.ts();
    cursor.for_each_subchunk([&](std::size_t c, std::size_t lo, std::size_t hi) {
      const std::size_t cb = c * PartCursor::kRows;
      const std::size_t ce = cursor.subchunk_end(c);
      if (lo == cb && hi == ce) {
        const std::int64_t b0 = floor_div(ts[cb], w);
        if (floor_div(ts[ce - 1], w) == b0) {
          Acc& slot = acc[b0];
          if (const std::optional<double> sum = cursor.subchunk_sum(c);
              sum && options_.aggregation_pushdown) {
            slot.sum += *sum;
            counts.pushdown_rows += ce - cb;
            ++counts.pushdown_chunks;
          } else {
            slot.sum += simd::sum_subchunk(cursor.subchunk(c), ce - cb);
          }
          slot.count += ce - cb;
          counts.rows_scanned += ce - cb;
          return;
        }
      }
      const double* chunk = cursor.subchunk(c);
      std::size_t r = lo;
      while (r < hi) {
        const std::int64_t bidx = floor_div(ts[r], w);
        double partial = 0.0;
        const std::size_t start = r;
        while (r < hi && floor_div(ts[r], w) == bidx) {
          partial += chunk[r - cb];
          ++r;
        }
        Acc& slot = acc[bidx];
        slot.sum += partial;
        slot.count += r - start;
        counts.rows_scanned += r - start;
      }
    });
  }
  counts.rows_decoded = cursor.rows_decoded();

  buckets.reserve(acc.size());
  for (const auto& [idx, a] : acc) {
    buckets.push_back(
        Bucket{sim::SimTime::from_ns(idx * w), a.sum / static_cast<double>(a.count), a.count});
  }
  if (cacheable) {
    downsample_cache_[key] = CacheEntry{buckets, ++cache_tick_};
    while (downsample_cache_.size() > options_.downsample_cache_capacity) {
      auto victim = downsample_cache_.begin();
      for (auto it = downsample_cache_.begin(); it != downsample_cache_.end(); ++it) {
        if (it->second.last_used < victim->second.last_used) victim = it;
      }
      downsample_cache_.erase(victim);
    }
  }
  note_query(t0, counts);
  return buckets;
}

EnvDatabase::Aggregate EnvDatabase::aggregate(const QueryFilter& filter) const {
  const auto t0 = std::chrono::steady_clock::now();
  // Range fold sink.  Sums are grouped per part (one sealed block's
  // covered range, or the head range): each part contributes a canonical
  // range fold — per-subchunk folds on the part's 16-row grid, combined
  // left-to-right (simd::FoldCombine) — so a fully covered block's fold
  // is bit-for-bit its seal-time summary, and serving it from the
  // summary (pushdown) is bit-identical to decoding it.
  Aggregate agg;
  bool any_finite = false;
  ScanCounts counts;
  const auto apply_part = [&](const simd::SubchunkFold& part, std::uint64_t nrows) {
    agg.count += nrows;
    agg.sum += part.sum;
    agg.sum_sq += part.sum_sq;
    if (part.finite > 0) {
      if (!any_finite || part.min < agg.min) agg.min = part.min;
      if (!any_finite || part.max > agg.max) agg.max = part.max;
      any_finite = true;
    }
  };
  const ScanPlan plan = plan_scan(filter);
  PartCursor cursor;
  for (const ScanPart& part : plan.parts) {
    // A fully covered block is served from its summary without ever
    // materializing it — evicted blocks aggregate without disk reads.
    if (part.covered && options_.aggregation_pushdown) {
      const BlockSummary& sum =
          series_[part.sid].block_summary(static_cast<std::size_t>(part.block));
      simd::SubchunkFold fold;
      fold.sum = sum.value_sum;
      fold.sum_sq = sum.value_sum_sq;
      fold.min = sum.value_min;
      fold.max = sum.value_max;
      fold.finite = sum.finite_rows;
      apply_part(fold, sum.rows);
      counts.pushdown_rows += sum.rows;
      ++counts.pushdown_chunks;
      continue;
    }
    if (!cursor.open(series_[part.sid], part, plan)) continue;
    simd::FoldCombine combine;
    cursor.for_each_subchunk([&](std::size_t c, std::size_t lo, std::size_t hi) {
      simd::SubchunkFold fold;
      simd::fold_subchunk(cursor.subchunk(c) + (lo - c * PartCursor::kRows), hi - lo, fold);
      combine.add(fold);
    });
    apply_part(combine.finish(), cursor.rows().size());
  }
  counts.rows_scanned = agg.count;
  counts.rows_decoded = cursor.rows_decoded();
  note_query(t0, counts);
  return agg;
}

void EnvDatabase::vacuum() {
  if (!options_.retention || total_rows_ == 0) return;
  const std::int64_t cutoff = last_ts_ns_ - options_.retention->ns();
  if (cutoff <= oldest_ts_ns_) return;  // nothing old enough to drop
  const std::size_t dropped = apply_retention_cutoff(cutoff);
  if (dropped > 0 && durable_ != nullptr && !replaying_) dlog_vacuum(cutoff);
}

std::size_t EnvDatabase::apply_retention_cutoff(std::int64_t cutoff_ns) {
  std::size_t dropped = 0;
  std::int64_t oldest = last_ts_ns_;
  for (Series& s : series_) {
    dropped += s.drop_before(cutoff_ns);
    if (!s.empty()) oldest = std::min(oldest, s.front_ts_ns());
  }
  oldest_ts_ns_ = oldest;
  if (dropped > 0) {
    total_rows_ -= dropped;
    // Retention changed the visible rows: invalidate cached downsample
    // results (cache_generation_ lags behind and the next downsample
    // clears the cache).
    ++generation_;
  }
  return dropped;
}

std::size_t EnvDatabase::sealed_block_count() const {
  std::size_t blocks = 0;
  for (const Series& s : series_) blocks += s.block_count();
  return blocks;
}

std::size_t EnvDatabase::bytes_used() const {
  std::size_t bytes = metrics_.bytes_used();
  for (const Series& s : series_) bytes += sizeof(Series) + s.bytes_used();
  bytes += rate_window_.size() * sizeof(std::int64_t);
  // Downsample cache entries: key + entry bookkeeping plus the memoized
  // bucket storage (these used to go unaccounted).
  for (const auto& [key, entry] : downsample_cache_) {
    bytes += sizeof(key) + sizeof(entry) + entry.buckets.capacity() * sizeof(Bucket);
  }
  return bytes;
}

void EnvDatabase::update_footprint_metrics() {
  if (bytes_used_gauge_ == nullptr && bytes_per_record_gauge_ == nullptr) return;
  const double bytes = static_cast<double>(bytes_used());
  if (bytes_used_gauge_ != nullptr) bytes_used_gauge_->set(bytes);
  if (bytes_per_record_gauge_ != nullptr) {
    bytes_per_record_gauge_->set(
        total_rows_ == 0 ? 0.0 : bytes / static_cast<double>(total_rows_));
  }
}

// --- Durable storage (DESIGN.md §13) ---

Status EnvDatabase::open(const std::string& dir) {
  if (durable_ != nullptr) {
    return Status::failed_precondition("database already has a directory attached");
  }
  if (total_rows_ != 0 || !series_.empty()) {
    return Status::failed_precondition("open() requires an empty database");
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Normalize away trailing slashes: every path in the layer is built
  // as `dir + "/" + name`, and a "data/" dir would yield "data//..."
  // strings that defeat name comparisons elsewhere.
  std::string normalized = dir;
  while (normalized.size() > 1 && normalized.back() == '/') normalized.pop_back();
  std::error_code ec;
  std::filesystem::create_directories(normalized, ec);
  if (ec) {
    return Status::internal("cannot create database directory: " + ec.message());
  }
  auto durable = std::make_unique<Durable>();
  durable->dir = normalized;
  durable->store.attach_metrics(dedup_metric_, cold_loads_metric_, quarantined_metric_);
  BlockStore::Options store_options;
  store_options.rotate_bytes = options_.durability.segment_rotate_bytes;
  Status s = durable->store.open(normalized, store_options);
  if (!s.is_ok()) return s;
  durable_ = std::move(durable);
  RecoveryInfo info;
  replaying_ = true;
  s = recover(info);
  replaying_ = false;
  if (!s.is_ok()) {
    durable_.reset();
    reset_state();
    return s;
  }
  // A head that reached the block size but lost its seal record to the
  // crash seals now — its payload usually dedups against the orphan
  // extent the crashed run already wrote — and logs into the resumed
  // WAL.  Segments left with no live extents (replayed kVacuum frames,
  // seal records lost with the WAL tail) are then reclaimed — but only
  // behind a fresh durable checkpoint, because the resumed WAL still
  // references their extents and must stay replayable if we crash
  // again before the files go away.  write_checkpoint_wal() runs the
  // GC itself once the new checkpoint is on disk; seal_blocks() above
  // usually already triggered it via after_durable_write(), so this is
  // the error-surfacing fallback.
  if (durable_->store.has_dead_segments()) {
    s = write_checkpoint_wal();
    if (!s.is_ok()) {
      durable_.reset();
      reset_state();
      return s;
    }
  }
  info.rows_recovered = total_rows_;
  info.blocks_recovered = sealed_block_count();
  info.recovery_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  recovery_ = info;
  if (recovery_seconds_gauge_ != nullptr) {
    recovery_seconds_gauge_->set(info.recovery_seconds);
  }
  update_durable_metrics();
  update_footprint_metrics();
  return Status::ok();
}

Status EnvDatabase::flush() {
  if (durable_ == nullptr) {
    return Status::failed_precondition("database is not durable");
  }
  dlog_flush_inserts();
  return sync_durable();
}

Status EnvDatabase::close() {
  if (durable_ == nullptr) return Status::ok();
  const Status checkpointed = write_checkpoint_wal();
  const Status wal_closed = durable_->wal.close();
  const Status store_closed = durable_->store.close();
  durable_.reset();
  if (!checkpointed.is_ok()) return checkpointed;
  if (!wal_closed.is_ok()) return wal_closed;
  return store_closed;
}

EnvDatabase::DurableStats EnvDatabase::durable_stats() const {
  DurableStats out;
  if (durable_ == nullptr) return out;
  const BlockStore::Stats& st = durable_->store.stats();
  out.wal_bytes = durable_->wal.bytes_written();
  out.wal_frames = durable_->wal.frames_written();
  out.segments_open = durable_->store.segment_count();
  out.extents_appended = st.extents_appended;
  out.dedup_hits = st.dedup_hits;
  out.cold_loads = st.loads;
  out.quarantined = st.load_failures;
  out.segments_deleted = st.segments_deleted;
  out.evicted_blocks = durable_->evicted_blocks;
  out.disk_bytes = durable_->store.disk_bytes();
  for (const Series& s : series_) out.resident_sealed_bytes += s.resident_sealed_bytes();
  return out;
}

std::size_t EnvDatabase::evict_sealed_blocks(std::size_t target_bytes) {
  if (durable_ == nullptr) return 0;
  struct Candidate {
    std::uint64_t seq_first = 0;
    std::uint32_t sid = 0;
    std::uint32_t block = 0;
  };
  std::size_t resident = 0;
  std::vector<Candidate> candidates;
  for (std::uint32_t sid = 0; sid < series_.size(); ++sid) {
    const Series& s = series_[sid];
    for (std::size_t b = 0; b < s.block_count(); ++b) {
      if (!s.block_resident(b)) continue;
      resident += s.block(b)->bytes_used();
      if (s.block_ref(b) != nullptr && !s.block_quarantined(b)) {
        candidates.push_back(Candidate{s.block_summary(b).seq_first, sid,
                                       static_cast<std::uint32_t>(b)});
      }
    }
  }
  if (resident <= target_bytes) return 0;
  // Deterministic order: oldest insertion first, across all series.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.seq_first < b.seq_first; });
  std::size_t evicted = 0;
  for (const Candidate& c : candidates) {
    if (resident <= target_bytes) break;
    const std::size_t freed = series_[c.sid].evict_block(c.block);
    if (freed == 0) continue;
    resident -= freed < resident ? freed : resident;
    ++evicted;
  }
  if (evicted > 0) {
    durable_->evicted_blocks += evicted;
    if (evicted_metric_ != nullptr) evicted_metric_->inc(evicted);
  }
  return evicted;
}

void EnvDatabase::maybe_evict() {
  if (durable_ != nullptr && options_.durability.max_resident_sealed_bytes > 0) {
    evict_sealed_blocks(options_.durability.max_resident_sealed_bytes);
  }
}

void EnvDatabase::update_durable_metrics() {
  if (durable_ == nullptr) return;
  if (segments_open_gauge_ != nullptr) {
    segments_open_gauge_->set(static_cast<double>(durable_->store.segment_count()));
  }
  if (disk_bytes_gauge_ != nullptr) {
    disk_bytes_gauge_->set(static_cast<double>(durable_->store.disk_bytes()));
  }
}

void EnvDatabase::dlog_frame(WalRecordType type, std::span<const std::uint8_t> payload) {
  Durable& d = *durable_;
  const std::uint64_t before = d.wal.bytes_written();
  // A failed write surfaces at the next sync(); the frame simply never
  // becomes part of the clean prefix.
  (void)d.wal.append(type, payload);
  if (wal_bytes_metric_ != nullptr) {
    wal_bytes_metric_->inc(d.wal.bytes_written() - before);
  }
}

void EnvDatabase::dlog_insert(const Record& record, MetricId metric) {
  Durable& d = *durable_;
  // Every id not yet defined in this WAL gets its def frame first.
  while (d.metrics_logged < metrics_.size()) {
    const auto id = static_cast<MetricId>(d.metrics_logged);
    wire::Writer w;
    w.u32(id);
    w.str(metrics_.name(id));
    dlog_frame(WalRecordType::kMetricDef, w.span());
    ++d.metrics_logged;
  }
  d.pending.i64(record.timestamp.ns());
  d.pending.i32(record.location.rack);
  d.pending.i32(record.location.midplane);
  d.pending.i32(record.location.board);
  d.pending.i32(record.location.card);
  d.pending.u32(metric);
  d.pending.f64(record.value);
  ++d.pending_rows;
}

void EnvDatabase::dlog_flush_inserts() {
  Durable& d = *durable_;
  if (d.pending_rows == 0) return;
  wire::Writer w;
  w.u32(static_cast<std::uint32_t>(d.pending_rows));
  w.bytes(d.pending.span());
  dlog_frame(WalRecordType::kInsertBatch, w.span());
  d.pending.clear();
  d.pending_rows = 0;
}

void EnvDatabase::dlog_seal(std::uint32_t sid) {
  // The sealed rows' insert frame must precede the seal frame.
  dlog_flush_inserts();
  const Series& s = series_[sid];
  const std::size_t bi = s.block_count() - 1;
  const ExtentRef* ref = s.block_ref(bi);
  // No extent (store I/O failure): the block stays memory-resident and
  // its rows recover from the WAL as head rows instead.
  if (ref == nullptr) return;
  wire::Writer w;
  write_location(w, s.location());
  w.u32(s.metric());
  write_sealed_ref(w, s.block_summary(bi), *ref, s.block_seq_stream(bi));
  dlog_frame(WalRecordType::kSeal, w.span());
  durable_->barrier = true;
}

void EnvDatabase::dlog_vacuum(std::int64_t cutoff_ns) {
  dlog_flush_inserts();
  wire::Writer w;
  w.i64(cutoff_ns);
  dlog_frame(WalRecordType::kVacuum, w.span());
  durable_->barrier = true;
}

Status EnvDatabase::sync_durable() {
  // Extents become durable before the WAL records referencing them.
  const Status store_synced = durable_->store.sync();
  const Status wal_synced = durable_->wal.sync();
  return store_synced.is_ok() ? wal_synced : store_synced;
}

void EnvDatabase::after_durable_write() {
  if (durable_ == nullptr || replaying_) return;
  dlog_flush_inserts();
  Durable& d = *durable_;
  const FsyncPolicy policy = options_.durability.fsync_policy;
  if (policy == FsyncPolicy::kAlways ||
      (policy == FsyncPolicy::kOnSeal && d.barrier)) {
    (void)sync_durable();
  }
  d.barrier = false;
  // Rotation triggers: WAL growth, or retention having killed a whole
  // segment — the dead file is only unlinked behind a durable
  // checkpoint that no longer references it (write_checkpoint_wal runs
  // the GC), so the rotation is forced rather than waiting for the
  // byte threshold.
  if (d.wal.bytes_written() >= options_.durability.wal_rotate_bytes ||
      d.store.has_dead_segments()) {
    (void)write_checkpoint_wal();
  }
  maybe_evict();
  update_durable_metrics();
}

void EnvDatabase::encode_checkpoint(wire::Writer& w) const {
  w.u64(next_seq_);
  w.u8(any_accepted_ ? 1 : 0);
  w.i64(last_ts_ns_);
  w.i64(oldest_ts_ns_);
  w.u64(rejected_);
  w.u32(static_cast<std::uint32_t>(metrics_.size()));
  for (MetricId id = 0; id < metrics_.size(); ++id) w.str(metrics_.name(id));
  w.u32(static_cast<std::uint32_t>(series_.size()));
  for (const Series& s : series_) {
    write_location(w, s.location());
    w.u32(s.metric());
    std::uint32_t durable_blocks = 0;
    for (std::size_t b = 0; b < s.block_count(); ++b) {
      if (s.block_ref(b) != nullptr) ++durable_blocks;
    }
    w.u32(durable_blocks);
    for (std::size_t b = 0; b < s.block_count(); ++b) {
      const ExtentRef* ref = s.block_ref(b);
      if (ref == nullptr) continue;  // store-failure straggler: unrecoverable
      write_sealed_ref(w, s.block_summary(b), *ref, s.block_seq_stream(b));
    }
    w.u32(static_cast<std::uint32_t>(s.head_rows()));
    for (std::size_t i = 0; i < s.head_rows(); ++i) {
      w.i64(s.head_ts()[i]);
      w.f64(s.head_values()[i]);
      w.u64(s.head_seq()[i]);
    }
  }
  w.u32(static_cast<std::uint32_t>(rate_window_.size()));
  for (const std::int64_t t : rate_window_) w.i64(t);
}

bool EnvDatabase::decode_checkpoint(std::span<const std::uint8_t> payload) {
  wire::Reader r(payload);
  next_seq_ = r.u64();
  any_accepted_ = r.u8() != 0;
  last_ts_ns_ = r.i64();
  oldest_ts_ns_ = r.i64();
  rejected_ = r.u64();
  const std::uint32_t nmetrics = r.u32();
  if (!r.ok() || nmetrics > kMaxCheckpointMetrics) return false;
  for (std::uint32_t i = 0; i < nmetrics; ++i) {
    const std::string name = r.str();
    if (!r.ok() || name.empty() || metrics_.intern(name) != i) return false;
  }
  const std::uint32_t nseries = r.u32();
  if (!r.ok() || nseries > kMaxCheckpointSeries) return false;
  for (std::uint32_t si = 0; si < nseries; ++si) {
    const Location loc = read_location(r);
    const std::uint32_t metric = r.u32();
    if (!r.ok() || metric >= metrics_.size()) return false;
    const std::uint32_t sid = ensure_series(loc, metric);
    if (sid != si || series_.size() != si + 1) return false;  // duplicate series
    Series& s = series_[sid];
    const std::uint32_t nblocks = r.u32();
    if (!r.ok() || nblocks > kMaxCheckpointBlocks) return false;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      SealedRef blk;
      if (!read_sealed_ref(r, blk)) return false;
      if (!durable_->store.add_ref(blk.ref).is_ok()) return false;
      s.restore_sealed(blk.sum, blk.ref, std::vector<std::uint8_t>(blk.seq.begin(), blk.seq.end()));
      total_rows_ += blk.sum.rows;
    }
    const std::uint32_t nhead = r.u32();
    if (!r.ok() || nhead > Block::kMaxRows) return false;
    s.reserve_head(nhead);
    for (std::uint32_t i = 0; i < nhead; ++i) {
      const std::int64_t ts = r.i64();
      const double value = r.f64();
      const std::uint64_t seq = r.u64();
      if (!r.ok()) return false;
      s.append_raw(ts, value, seq);
    }
    total_rows_ += nhead;
  }
  const std::uint32_t nwindow = r.u32();
  if (!r.ok() || nwindow > kMaxCheckpointWindow) return false;
  for (std::uint32_t i = 0; i < nwindow; ++i) rate_window_.push_back(r.i64());
  return r.done();
}

Status EnvDatabase::write_checkpoint_wal() {
  Durable& d = *durable_;
  if (d.wal.is_open()) dlog_flush_inserts();
  // The checkpoint references extents: they are made durable first.
  Status s = d.store.sync();
  if (!s.is_ok()) return s;
  const std::uint32_t number = d.wal_number + 1;
  const std::string path = wal_path(d.dir, number);
  const std::string tmp = path + ".tmp";
  {
    WalWriter w;
    s = w.create(tmp);
    if (!s.is_ok()) return s;
    wire::Writer checkpoint;
    encode_checkpoint(checkpoint);
    s = w.append(WalRecordType::kCheckpoint, checkpoint.span());
    if (s.is_ok()) s = w.sync();
    const Status closed = w.close();
    if (s.is_ok()) s = closed;
    if (!s.is_ok()) return s;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::internal("rename checkpoint wal: " + ec.message());
  }
  sync_dir(d.dir);
  (void)d.wal.close();
  // One-WAL invariant: predecessors, stale tmps, and corrupt strays all
  // go away once the new checkpoint is durable.  Compared by *filename*
  // — raw path-string equality would miss the new WAL through any
  // spelling difference (e.g. doubled slashes) and delete it.
  const std::string keep = wal_filename(number);
  for (const auto& entry : std::filesystem::directory_iterator(d.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0 || name == keep) continue;
    if (name.ends_with(".log") || name.ends_with(".log.tmp")) {
      ::unlink(entry.path().c_str());
    }
  }
  sync_dir(d.dir);
  d.wal_number = number;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::internal("stat checkpoint wal");
  s = d.wal.open_for_append(path, size);
  if (!s.is_ok()) return s;
  d.metrics_logged = metrics_.size();
  if (wal_bytes_metric_ != nullptr) wal_bytes_metric_->inc(size);
  // The durable checkpoint above references live extents only, so any
  // segment with none is unreferenced by the (single) WAL on disk —
  // the deferred retention unlinks are safe to apply now.
  d.store.gc_dead_segments();
  update_durable_metrics();
  return Status::ok();
}

Status EnvDatabase::recover(RecoveryInfo& info) {
  Durable& d = *durable_;
  std::vector<std::uint32_t> numbers;
  std::uint32_t max_number = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(d.dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned n = 0;
    if (std::sscanf(name.c_str(), "wal-%06u.log", &n) != 1) continue;
    // Exact-name check: excludes ".log.tmp" leftovers sscanf would pass.
    if (name != wal_filename(n)) continue;
    numbers.push_back(n);
    max_number = std::max(max_number, static_cast<std::uint32_t>(n));
  }
  if (ec) return Status::internal("cannot list wal directory");
  std::sort(numbers.begin(), numbers.end(), std::greater<>());

  // The newest WAL whose leading checkpoint is intact wins; older ones
  // are stale by construction (a WAL is only created once its
  // checkpoint is synced and renamed into place).
  for (const std::uint32_t number : numbers) {
    reset_state();
    const std::string path = wal_path(d.dir, number);
    WalReader reader;
    if (!reader.open(path).is_ok()) continue;
    auto first = reader.next();
    if (!first || first->type != WalRecordType::kCheckpoint) continue;
    if (!decode_checkpoint(first->payload)) continue;
    info.recovered = true;
    info.wal_frames_replayed = 1;
    std::uint64_t clean = reader.valid_bytes();
    bool bad_frame = false;
    while (auto frame = reader.next()) {
      if (!apply_wal_frame(frame->type, frame->payload)) {
        bad_frame = true;
        break;
      }
      clean = reader.valid_bytes();
      ++info.wal_frames_replayed;
    }
    info.wal_bytes_replayed = clean;
    info.wal_truncated = bad_frame || reader.truncated();
    if (clean < reader.file_bytes()) {
      const Status truncated = truncate_file(path, clean);
      if (!truncated.is_ok()) return truncated;
    }
    Status s = d.wal.open_for_append(path, clean);
    if (!s.is_ok()) return s;
    d.wal_number = number;
    d.metrics_logged = metrics_.size();
    for (const std::uint32_t other : numbers) {
      if (other != number) ::unlink(wal_path(d.dir, other).c_str());
    }
    sync_dir(d.dir);
    return Status::ok();
  }

  // Nothing recoverable: start fresh.  New WAL numbers keep ascending
  // past any unreadable strays (which the checkpoint write deletes).
  reset_state();
  d.wal_number = max_number;
  return write_checkpoint_wal();
}

bool EnvDatabase::apply_wal_frame(WalRecordType type,
                                  std::span<const std::uint8_t> payload) {
  switch (type) {
    case WalRecordType::kCheckpoint:
      return false;  // only legal as a WAL's first record
    case WalRecordType::kMetricDef: {
      wire::Reader r(payload);
      const std::uint32_t id = r.u32();
      const std::string name = r.str();
      if (!r.done() || name.empty() || id != metrics_.size()) return false;
      return metrics_.intern(name) == id;
    }
    case WalRecordType::kInsertBatch: {
      wire::Reader r(payload);
      const std::uint32_t count = r.u32();
      // 36 bytes per row: i64 ts, 4×i32 location, u32 metric, f64 value.
      if (count == 0 ||
          payload.size() != 4 + static_cast<std::size_t>(count) * 36) {
        return false;
      }
      // Validate the whole frame before mutating anything, so a corrupt
      // record cannot leave half a batch applied.
      struct Row {
        std::int64_t ts;
        Location loc;
        MetricId metric;
        double value;
      };
      std::vector<Row> rows;
      rows.reserve(count);
      std::int64_t last = last_ts_ns_;
      bool any = any_accepted_;
      for (std::uint32_t i = 0; i < count; ++i) {
        Row row;
        row.ts = r.i64();
        row.loc = read_location(r);
        row.metric = r.u32();
        row.value = r.f64();
        if (!r.ok() || row.metric >= metrics_.size()) return false;
        if (any && row.ts < last) return false;  // accepted rows are ordered
        last = row.ts;
        any = true;
        rows.push_back(row);
      }
      if (!r.done()) return false;
      for (const Row& row : rows) {
        const std::uint32_t sid = ensure_series(row.loc, row.metric);
        series_[sid].append_raw(row.ts, row.value, next_seq_++);
        if (!any_accepted_) oldest_ts_ns_ = row.ts;
        any_accepted_ = true;
        last_ts_ns_ = row.ts;
        ++total_rows_;
        if (options_.max_insert_rate_per_second > 0.0 &&
            !is_self_metric(metrics_.name(row.metric))) {
          rate_window_.push_back(row.ts);
        }
      }
      return true;
    }
    case WalRecordType::kSeal: {
      wire::Reader r(payload);
      const Location loc = read_location(r);
      const std::uint32_t metric = r.u32();
      SealedRef blk;
      if (!read_sealed_ref(r, blk) || !r.done() || metric >= metrics_.size()) return false;
      // Validation creates nothing: a seal consumes head rows, so its
      // series must already exist from earlier insert frames or the
      // checkpoint — looked up without inserting, else a corrupt frame
      // that ends replay would leave a phantom empty series registered
      // in the index and the series gauge.
      const std::uint32_t sid = index_.find(loc, metric);
      if (sid == ShardIndex::kNoSeries) return false;
      if (!durable_->store.add_ref(blk.ref).is_ok()) return false;
      std::vector<std::uint8_t> seq(blk.seq.begin(), blk.seq.end());
      if (!series_[sid].adopt_sealed(blk.sum, blk.ref, std::move(seq), blk.sum.rows)) {
        durable_->store.release(blk.ref);
        return false;
      }
      note_seal(1);
      return true;
    }
    case WalRecordType::kVacuum: {
      wire::Reader r(payload);
      const std::int64_t cutoff = r.i64();
      if (!r.done()) return false;
      apply_retention_cutoff(cutoff);
      return true;
    }
  }
  return false;  // unknown record type: future format, stop here
}

void EnvDatabase::reset_state() {
  metrics_ = MetricTable{};
  series_.clear();
  index_ = ShardIndex{};
  rate_window_.clear();
  total_rows_ = 0;
  next_seq_ = 0;
  any_accepted_ = false;
  last_ts_ns_ = 0;
  oldest_ts_ns_ = 0;
  downsample_cache_.clear();
  ++generation_;
  if (durable_ != nullptr) durable_->store.clear_refs();
}

}  // namespace envmon::tsdb
