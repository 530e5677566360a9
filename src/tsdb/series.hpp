#pragma once
// One shard of the environmental database: a single (location, metric)
// time series in a two-tier layout — a small mutable head buffer in
// structure-of-arrays form plus a run of sealed immutable blocks
// (block.hpp) holding everything older.
//
// Inserts are globally timestamp-ordered (the database rejects
// out-of-order records), so rows are sorted by construction: `ts_ns`
// ascends and `seq` — the record's global insertion number — ascends
// too, across blocks and head alike.  The head auto-seals into a block
// when it reaches Block::kMaxRows; the database can also flush shorter
// heads explicitly (epoch boundaries, benches).  Time-range resolution
// is a summary comparison per block plus a binary search in the head.
//
// With a BlockStore attached (EnvDatabase::open), every sealed block
// also gets a durable extent reference: sealing serializes the block's
// seq-independent payload into a segment file (deduplicating identical
// content across series — segment.hpp) and keeps the tiny seq sidecar
// stream here.  A sealed block whose payload is on disk can then be
// *evicted* — its in-memory Block dropped, only the 64-byte summary and
// the sidecar staying resident — and is lazily re-materialized from the
// mapped extent when a query touches it.  A materialization whose CRC
// fails quarantines the block: its rows vanish from query results (and
// a counter trips) instead of feeding garbage downstream.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "tsdb/block.hpp"
#include "tsdb/location.hpp"
#include "tsdb/metric_table.hpp"
#include "tsdb/segment.hpp"

namespace envmon::tsdb {

class Series {
 public:
  Series(const Location& location, MetricId metric, bool compress)
      : location_(location), metric_(metric), compress_(compress) {}

  // Durable mode: sealed blocks are serialized into `store` and become
  // evictable.  Attach before the first seal.
  void attach_store(BlockStore* store) { store_ = store; }

  // Appends one row; returns true when the append sealed a full head
  // into a new block (the database counts seals and WAL-logs them).
  bool append(std::int64_t ts_ns, double value, std::uint64_t seq);

  // Replay-path append: never auto-seals (the WAL's own seal records
  // re-create blocks at exactly the pre-crash boundaries).
  void append_raw(std::int64_t ts_ns, double value, std::uint64_t seq);

  // Grows the head for `extra` upcoming rows (batch ingest calls this
  // once per run of same-series records).  Bounded by the block size —
  // the head never holds more than Block::kMaxRows rows.
  void reserve_head(std::size_t extra);

  // Seals the head into a block if it holds at least `min_rows` rows;
  // returns true if a block was created.
  bool seal_head(std::size_t min_rows);

  // Replay path: adopts an already-durable sealed block (cold — no
  // in-memory Block) from its WAL seal record.  `rows_from_head` head
  // rows are consumed; returns false if the head does not hold exactly
  // that prefix (corrupt WAL).
  bool adopt_sealed(const BlockSummary& summary, const ExtentRef& ref,
                    std::vector<std::uint8_t> seq_stream, std::size_t rows_from_head);

  // Checkpoint-restore path: appends a cold durable block directly (the
  // checkpoint recorded it sealed; no head rows are involved).
  void restore_sealed(const BlockSummary& summary, const ExtentRef& ref,
                      std::vector<std::uint8_t> seq_stream);

  // Drops rows with ts < cutoff_ns (retention); returns rows dropped.
  // Whole expired blocks are dropped without decoding (their extent
  // references released — retention on disk is refcounted extent
  // drops); at most one boundary block (straddling the cutoff) is
  // decoded and re-materialized as a smaller sealed block.
  std::size_t drop_before(std::int64_t cutoff_ns);

  [[nodiscard]] const Location& location() const { return location_; }
  [[nodiscard]] MetricId metric() const { return metric_; }
  [[nodiscard]] std::size_t size() const { return block_rows_ + head_ts_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::int64_t front_ts_ns() const {
    return sealed_.empty() ? head_ts_.front() : sealed_.front().summary.ts_min;
  }

  // Sealed tier.
  [[nodiscard]] std::size_t block_count() const { return sealed_.size(); }
  // Summary access never touches disk (pruning stays O(1) per block).
  [[nodiscard]] const BlockSummary& block_summary(std::size_t i) const {
    return sealed_[i].summary;
  }
  // The block's columns: resident blocks return immediately; evicted
  // ones lazily re-materialize from their mapped extent (safe from
  // parallel query workers).  nullptr when the extent fails its
  // checksum — the block is then quarantined and skipped.
  [[nodiscard]] const Block* block(std::size_t i) const;
  [[nodiscard]] bool block_resident(std::size_t i) const {
    return sealed_[i].hot.load(std::memory_order_acquire) != nullptr;
  }
  [[nodiscard]] bool block_quarantined(std::size_t i) const {
    return sealed_[i].quarantined.load(std::memory_order_relaxed);
  }
  // Durable reference of block `i` (nullptr when not durable) and its
  // seq sidecar — checkpoint/WAL encoding reads these.
  [[nodiscard]] const ExtentRef* block_ref(std::size_t i) const {
    return sealed_[i].ref ? &*sealed_[i].ref : nullptr;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& block_seq_stream(std::size_t i) const {
    return sealed_[i].seq_stream;
  }

  // Drops the in-memory copy of a durable, clean block (write path
  // only; queries may be re-materializing other entries, never this
  // one's writer).  Returns bytes released.
  std::size_t evict_block(std::size_t i);
  // Resident heap bytes of the sealed tier (hot blocks + sidecars).
  [[nodiscard]] std::size_t resident_sealed_bytes() const;

  // Mutable tier (the query engine reads the head columns in place).
  [[nodiscard]] std::size_t head_rows() const { return head_ts_.size(); }
  [[nodiscard]] const std::vector<std::int64_t>& head_ts() const { return head_ts_; }
  [[nodiscard]] const std::vector<double>& head_values() const { return head_values_; }
  [[nodiscard]] const std::vector<std::uint64_t>& head_seq() const { return head_seq_; }

  // Index range [first, last) of the ascending `ts` with from <= ts <= to
  // (either bound optional; empty when from > to).  Binary search:
  // O(log rows).  The query engine narrows heads and decoded sealed
  // blocks with it alike.
  struct RowRange {
    std::size_t first = 0;
    std::size_t last = 0;
    [[nodiscard]] std::size_t size() const { return last - first; }
  };
  [[nodiscard]] static RowRange rows_between(std::span<const std::int64_t> ts,
                                             std::optional<std::int64_t> from_ns,
                                             std::optional<std::int64_t> to_ns);
  [[nodiscard]] RowRange head_range(std::optional<std::int64_t> from_ns,
                                    std::optional<std::int64_t> to_ns) const {
    return rows_between(head_ts_, from_ns, to_ns);
  }

  // Approximate heap bytes held: head column capacities plus the
  // resident sealed tier (hot blocks, refs, seq sidecars).
  [[nodiscard]] std::size_t bytes_used() const;

 private:
  // One sealed block: always the summary; the Block itself while
  // resident; the extent reference + seq sidecar while durable.  `hot`
  // is an owning atomic pointer so parallel query workers can race to
  // materialize without a per-entry mutex (first store wins, losers
  // delete their copy).
  struct Sealed {
    BlockSummary summary;
    std::optional<ExtentRef> ref;
    std::vector<std::uint8_t> seq_stream;
    mutable std::atomic<Block*> hot{nullptr};
    mutable std::atomic<bool> quarantined{false};

    Sealed() = default;
    Sealed(Sealed&& o) noexcept
        : summary(o.summary),
          ref(std::move(o.ref)),
          seq_stream(std::move(o.seq_stream)),
          hot(o.hot.exchange(nullptr, std::memory_order_acq_rel)),
          quarantined(o.quarantined.load(std::memory_order_relaxed)) {}
    Sealed& operator=(Sealed&& o) noexcept {
      if (this != &o) {
        summary = o.summary;
        ref = std::move(o.ref);
        seq_stream = std::move(o.seq_stream);
        delete hot.exchange(o.hot.exchange(nullptr, std::memory_order_acq_rel),
                            std::memory_order_acq_rel);
        quarantined.store(o.quarantined.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      }
      return *this;
    }
    ~Sealed() { delete hot.load(std::memory_order_acquire); }
  };

  void push_block(Block block);
  void clear_head();

  Location location_;
  MetricId metric_;
  bool compress_;
  BlockStore* store_ = nullptr;
  std::vector<Sealed> sealed_;
  std::size_t block_rows_ = 0;  // total rows across sealed blocks
  std::vector<std::int64_t> head_ts_;
  std::vector<double> head_values_;
  std::vector<std::uint64_t> head_seq_;
};

}  // namespace envmon::tsdb
