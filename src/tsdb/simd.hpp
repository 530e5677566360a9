#pragma once
// Decode & fold kernels for the tsdb read path (DESIGN.md §15).
//
// The storage engine's hot read path — XOR value decode, delta-of-delta
// timestamp/seq decode, and the min/max/sum/sumsq folds behind
// aggregate(), downsample() pushdown misses, and seal-time summary
// construction — runs through the plain functions below.  One
// contract binds them:
//
//   byte identity — for any input bytes (including garbage), a decoder
//   produces exactly the bit pattern the reference decoders in
//   codec.hpp produce, and every fold reproduces the canonical fold
//   grammar (below) bit for bit.  Sealed bytes and
//   query/downsample/aggregate output follow from the grammar alone.
//
// The batch decoders beat the reference classes not by vectorizing the
// (inherently serial) bit parsing but by (a) a 64-bit buffered bit
// reader whose peeked word holds at least 57 valid stream bits, so
// whole rows — control bits, window header, payload — are carved out
// of one load instead of one byte-loop per field, (b) a run fast path
// that turns a run of zero control bits (repeated values — the common
// case for slowly-varying sensor data) into one count-leading-zeros
// plus a broadcast store, and (c) the per-16-row XOR restart offsets,
// which make every subchunk's stream self-contained so column decode,
// aggregate(), and downsample() can start at any subchunk without
// replaying the block prefix.  The fold grammar is shaped so a 4-lane
// vertical reduction IS the definition, which a compiler may map onto
// vector lanes without reordering a single add.
//
// Canonical fold grammar (one subchunk run, n <= 16 rows):
//   sum     = for a full 16-row subchunk, the 4-lane tree
//             (l0 + l1) + (l2 + l3) where lane lj folds v[j], v[j+4],
//             v[j+8], v[j+12] left-to-right from 0.0; for n < 16
//             (block tails, head tails, bucket edges) a plain
//             left-to-right fold from 0.0.  The split is what lets a
//             pre-seal head fold agree with the eventual seal-time fold
//             no matter where the seal cuts: a 10-row run folds the
//             same way whether it is a head tail today or a sealed
//             block's short last subchunk tomorrow.  A NaN result
//             canonicalizes to the default quiet NaN
//             (0x7ff8000000000000) — compilers may commute FP adds and
//             x86 propagates the *first* NaN operand's payload, so raw
//             payloads are not reproducible across codegen.
//   sum_sq  = the same shapes over v[i]*v[i], same NaN rule, the
//             product rounded before the add (never a fused
//             multiply-add)
//   min/max = over non-NaN rows; a zero result resolves to -0.0 for
//             min and +0.0 for max when that sign of zero was present
//             in the rows, making the fold order-independent even when
//             -0.0 and +0.0 mix (a sign that never occurred is never
//             produced)
//   finite  = count of non-NaN rows
// Block-level summaries fold the subchunk results left-to-right in
// subchunk order (block.hpp) — which is what makes summary pushdown
// bit-identical to decode-then-fold.

#include <cstddef>
#include <cstdint>

namespace envmon::tsdb::simd {

// The one kernel set.  Kept as a named value so host reports can say
// which decode path ran.
enum class Variant : std::uint8_t { kScalar = 0 };

[[nodiscard]] const char* variant_name(Variant v);
[[nodiscard]] Variant dispatched_variant();

// Canonical per-subchunk fold result (grammar above).
struct SubchunkFold {
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;  // valid iff finite > 0
  double max = 0.0;
  std::uint32_t finite = 0;  // non-NaN rows
};

// Canonical fold over one subchunk (n <= 16).
void fold_subchunk(const double* v, std::size_t n, SubchunkFold& out);
// Canonical sum alone (the downsample full-subchunk decode path).
[[nodiscard]] double sum_subchunk(const double* v, std::size_t n);

// All decoders are total: reads past the end of `stream` behave as if
// the stream were zero-padded (exactly the codec.hpp BitReader
// semantics), so corrupt lengths or offsets yield arbitrary values but
// never out-of-bounds reads.
//
// Decodes a whole XOR value column: `chunks` subchunk streams whose
// starting bit offsets are `chunk_offsets[c]`, kSubchunkRows rows per
// subchunk except the last; writes exactly `rows` doubles.
void decode_xor_column(const std::uint8_t* stream, std::size_t stream_bytes,
                       const std::uint32_t* chunk_offsets, std::size_t chunks, std::size_t rows,
                       double* out);
// Decodes one XOR subchunk from `bit_offset`; writes `rows` doubles.
void decode_xor_subchunk(const std::uint8_t* stream, std::size_t stream_bytes,
                         std::size_t bit_offset, std::size_t rows, double* out);
// Decodes `rows` values of a delta-of-delta stream (timestamps, seq).
void decode_dod(const std::uint8_t* stream, std::size_t stream_bytes, std::size_t rows,
                std::int64_t* out);

// Left-to-right combiner of subchunk folds into a block- or
// range-level fold (the second layer of the canonical grammar).
// Seal-time summaries, aggregation pushdown, and the decode-then-fold
// path all run this one combiner — finish() re-applies the canonical
// NaN and ±0 rules, which keeps the combine order-stable even through
// inf/NaN mixes.
struct FoldCombine {
  void add(const SubchunkFold& f);
  [[nodiscard]] SubchunkFold finish() const;

  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t finite = 0;
  bool min_has_neg_zero = false;
  bool max_has_pos_zero = false;
};

}  // namespace envmon::tsdb::simd
