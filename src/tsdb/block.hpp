#pragma once
// Sealed immutable blocks — the cold tier of a Series.
//
// A Series accumulates appends in a small mutable head; once the head
// reaches Block::kMaxRows (or the database flushes it explicitly) the
// rows are sealed into a Block and never mutated again — retention can
// drop a whole block or re-materialize a smaller one, nothing else.
// Sealing freezes three independent column streams (delta-of-delta
// timestamps, delta-of-delta seq, XOR doubles; see codec.hpp) plus the
// aggregates the query engine pushes down to:
//
//  * a block summary — row count, ts min/max, seq first/last, value
//    min/max and the row-order folds of value and value² — answering
//    "does this block overlap the query?" and whole-block aggregates
//    without touching the streams, and
//  * per-subchunk partial sums — the value column is cut into
//    kSubchunkRows-row subchunks, each XOR stream restarted and its
//    bit offset recorded, so downsample() can take a subchunk's
//    precomputed sum (bucket fully covers it) or decode just that
//    subchunk (bucket boundary) without decoding the rest.
//
// The folds follow the canonical fold grammar in simd.hpp — a 4-lane
// tree within each subchunk, combined left-to-right across subchunks —
// and the query engine aggregates at subchunk granularity with the
// same grammar, which is what makes summary pushdown bit-identical to
// decode-then-fold.
//
// `compress = false` seals the same structure around plain column
// copies — identical layout, summaries, and query semantics, no codec.
// The benches use that as the flat-scan reference configuration.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "tsdb/codec.hpp"

namespace envmon::tsdb {

struct BlockSummary {
  std::uint32_t rows = 0;
  std::uint32_t finite_rows = 0;  // non-NaN rows; min/max valid iff > 0
  std::int64_t ts_min = 0;        // first row (rows are time-sorted)
  std::int64_t ts_max = 0;        // last row
  std::uint64_t seq_first = 0;
  std::uint64_t seq_last = 0;
  double value_min = 0.0;  // NaN rows are skipped by min/max; zero
  double value_max = 0.0;  // results carry the canonical sign (simd.hpp)
  double value_sum = 0.0;     // canonical fold (simd.hpp), NaN included
  double value_sum_sq = 0.0;  // same grammar over value*value
};

class Block {
 public:
  static constexpr std::size_t kMaxRows = 4096;
  static constexpr std::size_t kSubchunkRows = 16;

  // Seals time-sorted columns (ts ascending, seq strictly ascending).
  [[nodiscard]] static Block seal(std::span<const std::int64_t> ts,
                                  std::span<const double> values,
                                  std::span<const std::uint64_t> seq, bool compress);

  [[nodiscard]] const BlockSummary& summary() const { return summary_; }
  [[nodiscard]] std::size_t rows() const { return summary_.rows; }
  [[nodiscard]] bool compressed() const { return compressed_; }

  [[nodiscard]] std::size_t subchunk_count() const { return subchunk_sums_.size(); }
  [[nodiscard]] double subchunk_sum(std::size_t chunk) const { return subchunk_sums_[chunk]; }
  // Rows in subchunk `chunk` (kSubchunkRows except possibly the last).
  [[nodiscard]] std::size_t subchunk_rows(std::size_t chunk) const {
    const std::size_t begin = chunk * kSubchunkRows;
    const std::size_t end = begin + kSubchunkRows;
    return (end <= summary_.rows ? end : summary_.rows) - begin;
  }

  // Full-column decodes; `out` is assign()ed to rows() entries.
  void decode_timestamps(std::vector<std::int64_t>& out) const;
  void decode_seq(std::vector<std::uint64_t>& out) const;
  void decode_values(std::vector<double>& out) const;
  // Values of one subchunk only (bucket-boundary decode); writes
  // subchunk_rows(chunk) doubles to `out`.
  void decode_subchunk_values(std::size_t chunk, double* out) const;

  // Heap bytes held (streams or raw columns, offsets, subchunk sums).
  [[nodiscard]] std::size_t bytes_used() const;

  // --- Durable storage serialization (DESIGN.md §13) ---
  //
  // A block's on-disk extent payload is everything EXCEPT the seq
  // column: flags, row counts, the value-derived summary fields,
  // subchunk sums, and the ts/value streams.  Two blocks holding the
  // same timestamps and values therefore serialize to identical bytes
  // and share one content-addressed extent — seq (the global insertion
  // number, unique per block instance) travels as a small per-reference
  // sidecar stream next to the reference instead.
  void encode_extent(std::vector<std::uint8_t>& out) const;
  // The seq column sidecar (delta-of-delta stream when compressed, raw
  // little-endian u64s otherwise, matching the block's own mode).
  void encode_seq_stream(std::vector<std::uint8_t>& out) const;
  // Rebuilds a block from an extent payload plus its reference's seq
  // sidecar.  Bounds-checked and total: malformed input yields nullopt,
  // never out-of-bounds reads.  seq_first/seq_last restore the summary
  // fields the extent deliberately omits.
  [[nodiscard]] static std::optional<Block> decode_extent(
      std::span<const std::uint8_t> payload, std::span<const std::uint8_t> seq_stream,
      std::uint64_t seq_first, std::uint64_t seq_last);

 private:
  friend class BlockValueCursor;

  BlockSummary summary_;
  bool compressed_ = true;

  // Compressed representation: three independent bitstreams; the value
  // stream restarts its XOR state at every subchunk, with the starting
  // bit offset recorded for random access.
  std::vector<std::uint8_t> ts_stream_;
  std::vector<std::uint8_t> seq_stream_;
  std::vector<std::uint8_t> value_stream_;
  std::vector<std::uint32_t> value_chunk_offsets_;  // bit offset per subchunk

  // Raw representation (compress = false).
  std::vector<std::int64_t> raw_ts_;
  std::vector<std::uint64_t> raw_seq_;
  std::vector<double> raw_values_;

  std::vector<double> subchunk_sums_;
};

// Value-column reader that decodes each subchunk at most once across
// any sequence of per-subchunk reads.  The query engine's scan cursor
// reads every sealed block's values through it, one subchunk at a time
// in row order; it keeps the current subchunk's 16 decoded rows so a
// repeat hit is served from memory.  On uncompressed blocks it reads
// straight from the raw column, no copies.
class BlockValueCursor {
 public:
  explicit BlockValueCursor(const Block& block) : block_(&block) {}

  // The decoded rows of subchunk `chunk` (block.subchunk_rows(chunk)
  // doubles); valid until the next cursor call.
  [[nodiscard]] const double* subchunk(std::size_t chunk);

 private:
  const Block* block_;
  std::size_t cached_chunk_ = static_cast<std::size_t>(-1);
  double buf_[Block::kSubchunkRows] = {};
};

}  // namespace envmon::tsdb
