// The decode & fold kernels (grammar and contract in simd.hpp).
//
// The decoders are integer/bit manipulation, exact on any ISA, and
// byte-identical to the reference codec classes for all inputs: every
// decoder is total — bit reads past the end of the stream yield zeros,
// exactly like codec.hpp's BitReader.  The folds are plain loops
// written in the canonical grammar's shape; this file is compiled with
// -ffp-contract=off (src/tsdb/CMakeLists.txt) so no compiler fuses the
// sum_sq multiply-add, which would round differently from the grammar.

#include "tsdb/simd.hpp"

#include <cmath>
#include <cstring>

namespace envmon::tsdb::simd {

namespace {

constexpr std::size_t kSubchunkRows = 16;  // Block::kSubchunkRows

// ---------------------------------------------------------------------
// 64-bit buffered MSB-first bit reader.
//
// peek() returns the next bits of the stream left-aligned in a u64: at
// least 57 of its top bits are valid stream bits (the stream being
// zero-extended past its end), because one unaligned 8-byte load holds
// 64 - (bit_pos & 7) >= 57 of them.  Fields wider than 57 bits read in
// two takes.  The fast path is one load + byteswap + shift; the tail
// path (fewer than 8 bytes left) assembles the same word byte by byte.
class FastBitReader {
 public:
  FastBitReader(const std::uint8_t* data, std::size_t size, std::size_t bit_pos)
      : data_(data), size_(size), pos_(bit_pos) {}

  [[nodiscard]] std::uint64_t peek() const {
    const std::size_t byte = pos_ >> 3;
    const unsigned used = static_cast<unsigned>(pos_ & 7u);
    std::uint64_t w;
    if (byte + 8 <= size_) {
      std::memcpy(&w, data_ + byte, 8);
      w = __builtin_bswap64(w);
    } else {
      w = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        w <<= 8;
        if (byte + i < size_) w |= data_[byte + i];
      }
    }
    return w << used;  // used <= 7: top 57+ bits valid
  }

  void advance(unsigned bits) { pos_ += bits; }

  // k <= 57.
  [[nodiscard]] std::uint64_t take(unsigned k) {
    if (k == 0) return 0;
    const std::uint64_t v = peek() >> (64u - k);
    pos_ += k;
    return v;
  }

  // k <= 64.
  [[nodiscard]] std::uint64_t take_wide(unsigned k) {
    if (k <= 57) return take(k);
    const std::uint64_t hi = take(32);
    return (hi << (k - 32)) | take(k - 32);
  }

  [[nodiscard]] std::uint64_t take64() {
    const std::uint64_t hi = take(32);
    return (hi << 32) | take(32);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_;
};

[[nodiscard]] std::int64_t sign_extend(std::uint64_t raw, unsigned bits) {
  const std::uint64_t mask = std::uint64_t{1} << (bits - 1);
  const std::uint64_t value = raw & ((std::uint64_t{1} << bits) - 1);
  return static_cast<std::int64_t>((value ^ mask) - mask);
}

// ---------------------------------------------------------------------
// XOR value decode (codec.hpp XorDecoder semantics).
struct XorLane {
  std::uint64_t prev = 0;
  unsigned lead = 0;
  unsigned trail = 0;
  bool valid = false;
};

// Decodes rows i..rows of one lane's stream.  Whole rows — repeat
// runs, control bits, window header, payload — are carved out of a
// peeked word that is refreshed in place only when its 57 guaranteed
// bits run dry, so repeats amortize to a fraction of a load and narrow
// value rows cost exactly one; a payload spilling past the window
// finishes with one split read.  Bit positions consumed are identical
// to the reference decoder's sequential reads, so zero-fill past the
// stream end agrees too.
void decode_xor_rows(FastBitReader& r, XorLane& lane, double* out, std::size_t i,
                     std::size_t rows) {
  double value;
  std::memcpy(&value, &lane.prev, 8);
  std::uint64_t w = r.peek();
  unsigned used = 0;
  while (i < rows) {
    std::uint64_t top = w << used;
    unsigned valid = 57 - used;
    if ((top >> 63) == 0) {
      // Run of repeats, bounded by the bits this word actually holds.
      unsigned run = static_cast<unsigned>(__builtin_clzll(top | 1));
      const bool spill = run >= valid;
      if (spill) run = valid;
      const std::size_t left = rows - i;
      const std::size_t n = run < left ? static_cast<std::size_t>(run) : left;
      for (std::size_t k = 0; k < n; ++k) out[i + k] = value;
      i += n;
      used += static_cast<unsigned>(n);
      if (!spill) continue;
      r.advance(used);  // the run may continue past this word
      w = r.peek();
      used = 0;
      continue;
    }
    if (valid < 13) {
      // Too few real bits to even pick a branch and parse a header:
      // refresh the word (always possible — used > 44 here).
      r.advance(used);
      w = r.peek();
      used = 0;
      top = w;
      valid = 57;
    }
    std::uint64_t x;
    unsigned trail;
    unsigned need;
    if ((top >> 62) & 1u) {
      // New window: 2 control + 5 lead + 6 length = 13 header bits.
      unsigned lead = static_cast<unsigned>((top >> 57) & 31u);
      const unsigned meaningful = static_cast<unsigned>((top >> 51) & 63u) + 1;
      if (lead + meaningful <= 64) {
        trail = 64 - lead - meaningful;
      } else {
        lead = 64 - meaningful;  // corrupt header: clamp, stay total
        trail = 0;
      }
      lane.lead = lead;
      lane.trail = trail;
      lane.valid = true;
      need = 13 + meaningful;
      if (need > valid) {
        // Payload spills past the window: finish the row with a split
        // read, then start a fresh word.
        r.advance(used + 13);
        x = r.take_wide(meaningful);
        lane.prev ^= x << trail;
        std::memcpy(&value, &lane.prev, 8);
        out[i++] = value;
        w = r.peek();
        used = 0;
        continue;
      }
      x = (top << 13) >> (64 - meaningful);
    } else {
      // Window reuse (an unseen window on a corrupt stream reads as 64
      // meaningful bits with an empty window, like the reference).
      unsigned meaningful;
      if (lane.valid) {
        meaningful = 64 - lane.lead - lane.trail;
      } else {
        lane.lead = 0;
        lane.trail = 0;
        lane.valid = true;
        meaningful = 64;
      }
      trail = lane.trail;
      need = 2 + meaningful;
      if (need > valid) {
        r.advance(used + 2);
        x = r.take_wide(meaningful);
        lane.prev ^= x << trail;
        std::memcpy(&value, &lane.prev, 8);
        out[i++] = value;
        w = r.peek();
        used = 0;
        continue;
      }
      x = (top << 2) >> (64 - meaningful);
    }
    lane.prev ^= x << trail;
    std::memcpy(&value, &lane.prev, 8);
    out[i++] = value;
    used += need;
  }
  r.advance(used);
}

// ---------------------------------------------------------------------
// Fold helpers.

// A NaN fold result canonicalizes to the default quiet NaN: compilers
// may commute FP adds, and x86 add propagates the payload of whichever
// NaN arrives as the first operand, so raw payloads are not stable
// across codegen — the canonical payload is.
[[nodiscard]] double canonicalize_nan(double d) {
  if (d != d) {
    constexpr std::uint64_t kQuietNan = 0x7ff8'0000'0000'0000ull;
    std::memcpy(&d, &kQuietNan, 8);
  }
  return d;
}

[[nodiscard]] bool is_negative_zero(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, 8);
  return bits == 0x8000'0000'0000'0000ull;
}
[[nodiscard]] bool is_positive_zero(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, 8);
  return bits == 0;
}

}  // namespace

const char* variant_name(Variant) { return "scalar"; }

Variant dispatched_variant() { return Variant::kScalar; }

// One XOR subchunk: `rows` values starting at `bit_offset`.
void decode_xor_subchunk(const std::uint8_t* stream, std::size_t stream_bytes,
                         std::size_t bit_offset, std::size_t rows, double* out) {
  if (rows == 0) return;
  FastBitReader r(stream, stream_bytes, bit_offset);
  XorLane lane;
  lane.prev = r.take64();
  std::memcpy(&out[0], &lane.prev, 8);
  decode_xor_rows(r, lane, out, 1, rows);
}

// Whole column: the per-subchunk restart offsets make every subchunk's
// stream self-contained, so each decodes independently from its own
// offset — which is also what lets aggregate()/downsample() jump to an
// arbitrary subchunk without replaying the block prefix.
void decode_xor_column(const std::uint8_t* stream, std::size_t stream_bytes,
                       const std::uint32_t* chunk_offsets, std::size_t chunks, std::size_t rows,
                       double* out) {
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t cb = c * kSubchunkRows;
    const std::size_t avail = rows > cb ? rows - cb : 0;
    const std::size_t n = avail < kSubchunkRows ? avail : kSubchunkRows;
    decode_xor_subchunk(stream, stream_bytes, chunk_offsets[c], n, out + cb);
  }
}

// ---------------------------------------------------------------------
// Delta-of-delta decode (codec.hpp DeltaOfDeltaDecoder semantics).
//
// Control codes are parsed table-style: the count of leading one bits
// (clamped to 5) selects the payload width, replacing the per-bit
// branch ladder; a run of zero control bits (dod == 0 rows — every
// fixed-interval tick stream) replays the previous delta per row
// without touching the parser.  Like the XOR path, whole rows are
// carved out of one peeked word until its 57 guaranteed bits run dry —
// only the 64-bit raw escape (69-bit row) takes the field-at-a-time
// fallback.
void decode_dod(const std::uint8_t* stream, std::size_t stream_bytes, std::size_t rows,
                std::int64_t* out) {
  if (rows == 0) return;
  static constexpr unsigned kWidths[6] = {0, 7, 14, 24, 40, 64};
  FastBitReader r(stream, stream_bytes, 0);
  std::uint64_t prev = r.take64();
  std::uint64_t delta = 0;
  out[0] = static_cast<std::int64_t>(prev);
  std::size_t i = 1;
  while (i < rows) {
    const std::uint64_t w = r.peek();
    unsigned used = 0;
    bool spilled = false;
    while (i < rows) {
      const std::uint64_t top = w << used;
      const unsigned valid = 57 - used;
      if ((top >> 63) == 0) {
        unsigned run = static_cast<unsigned>(__builtin_clzll(top | 1));
        const bool spill = run >= valid;
        if (spill) run = valid;
        const std::size_t left = rows - i;
        const std::size_t n = run < left ? static_cast<std::size_t>(run) : left;
        for (std::size_t k = 0; k < n; ++k) {
          prev += delta;
          out[i + k] = static_cast<std::int64_t>(prev);
        }
        i += n;
        used += static_cast<unsigned>(n);
        if (spill) break;  // the run may continue past this word
        continue;
      }
      if (valid < 6) break;  // the 5-one prefix + terminator must be real bits
      unsigned ones = static_cast<unsigned>(__builtin_clzll(~top | 1));
      if (ones > 5) ones = 5;
      const unsigned ctrl = ones + (ones < 5 ? 1u : 0u);
      const unsigned width = kWidths[ones];
      const unsigned need = ctrl + width;
      if (need > valid) {
        // 64-bit raw escape, or a payload spilling past the window:
        // finish the row with a split read and start a fresh word.
        r.advance(used + ctrl);
        if (width > 57) {
          delta += r.take_wide(width);
        } else {
          delta += static_cast<std::uint64_t>(
              sign_extend(r.take(width), width));
        }
        prev += delta;
        out[i++] = static_cast<std::int64_t>(prev);
        spilled = true;
        break;
      }
      delta += static_cast<std::uint64_t>(
          sign_extend((top << ctrl) >> (64u - width), width));
      prev += delta;
      out[i++] = static_cast<std::int64_t>(prev);
      used += need;
    }
    if (!spilled) r.advance(used);
  }
}

// ---------------------------------------------------------------------
// Canonical folds (grammar in simd.hpp).

void fold_subchunk(const double* v, std::size_t n, SubchunkFold& out) {
  if (n == kSubchunkRows) {
    // Full subchunk: the 4-lane tree.
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    double acc_sq[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < kSubchunkRows; k += 4) {
      for (std::size_t j = 0; j < 4; ++j) {
        acc[j] += v[k + j];
        acc_sq[j] += v[k + j] * v[k + j];
      }
    }
    out.sum = canonicalize_nan((acc[0] + acc[1]) + (acc[2] + acc[3]));
    out.sum_sq = canonicalize_nan((acc_sq[0] + acc_sq[1]) + (acc_sq[2] + acc_sq[3]));
  } else {
    // Short run (tail / bucket edge): plain left-to-right.
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += v[i];
      sum_sq += v[i] * v[i];
    }
    out.sum = canonicalize_nan(sum);
    out.sum_sq = canonicalize_nan(sum_sq);
  }

  // min/max/finite: order-independent by the canonical zero rule.
  double mn = 0.0, mx = 0.0;
  std::uint32_t finite = 0;
  bool neg_zero = false, pos_zero = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = v[i];
    if (std::isnan(d)) continue;
    if (finite == 0) {
      mn = mx = d;
    } else {
      if (d < mn) mn = d;
      if (d > mx) mx = d;
    }
    ++finite;
    if (d == 0.0) {
      if (is_negative_zero(d)) neg_zero = true;
      else pos_zero = true;
    }
  }
  if (finite > 0 && mn == 0.0) mn = neg_zero ? -0.0 : 0.0;
  if (finite > 0 && mx == 0.0) mx = pos_zero ? 0.0 : -0.0;
  out.min = mn;
  out.max = mx;
  out.finite = finite;
}

double sum_subchunk(const double* v, std::size_t n) {
  if (n == kSubchunkRows) {
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < kSubchunkRows; k += 4) {
      for (std::size_t j = 0; j < 4; ++j) acc[j] += v[k + j];
    }
    return canonicalize_nan((acc[0] + acc[1]) + (acc[2] + acc[3]));
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  return canonicalize_nan(sum);
}

void FoldCombine::add(const SubchunkFold& f) {
  sum += f.sum;
  sum_sq += f.sum_sq;
  if (f.finite > 0) {
    if (finite == 0) {
      min = f.min;
      max = f.max;
    } else {
      if (f.min < min) min = f.min;
      if (f.max > max) max = f.max;
    }
    if (is_negative_zero(f.min)) min_has_neg_zero = true;
    if (is_positive_zero(f.max)) max_has_pos_zero = true;
    finite += f.finite;
  }
}

SubchunkFold FoldCombine::finish() const {
  SubchunkFold out;
  out.sum = canonicalize_nan(sum);
  out.sum_sq = canonicalize_nan(sum_sq);
  out.min = min;
  out.max = max;
  out.finite = finite;
  if (finite > 0 && out.min == 0.0) out.min = min_has_neg_zero ? -0.0 : 0.0;
  if (finite > 0 && out.max == 0.0) out.max = max_has_pos_zero ? 0.0 : -0.0;
  return out;
}

}  // namespace envmon::tsdb::simd
