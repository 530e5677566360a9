// Tests for the sealed-block storage format: the bit-level codecs
// (codec.hpp), block sealing and decode (block.hpp), the two-tier
// series (series.hpp), and the database-level contracts that ride on
// them — seal invariance, retention over blocks, pushdown accounting,
// and the memory-footprint roll-up.  `ctest -L tsdb` runs just these.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "daemon/digest.hpp"
#include "tsdb/block.hpp"
#include "tsdb/codec.hpp"
#include "tsdb/database.hpp"
#include "tsdb/seq_order.hpp"
#include "tsdb/series.hpp"
#include "tsdb/simd.hpp"

namespace envmon::tsdb {
namespace {

using sim::Duration;
using sim::SimTime;

// ---------------------------------------------------------------- bits

TEST(BitStream, RoundTripsMixedWidthFields) {
  BitWriter w;
  w.put_bit(true);
  w.put_bits(0b1011, 4);
  w.put_bits(0xDEADBEEFCAFEBABEull, 64);
  w.put_bits(0, 1);
  w.put_bits(0x7F, 7);
  const auto bytes = w.take();

  BitReader r(bytes);
  EXPECT_TRUE(r.get_bit());
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_EQ(r.get_bits(64), 0xDEADBEEFCAFEBABEull);
  EXPECT_FALSE(r.get_bit());
  EXPECT_EQ(r.get_bits(7), 0x7Fu);
  EXPECT_FALSE(r.exhausted());
}

TEST(BitStream, ReadsPastEndYieldZerosAndSetExhausted) {
  BitWriter w;
  w.put_bits(0b101, 3);
  const auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(3), 0b101u);
  // The partial final byte pads with zeros; past the byte it's all
  // zeros with exhausted() raised — never UB.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.get_bits(7), 0u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, SeekRepositionsTheCursor) {
  BitWriter w;
  w.put_bits(0xAA, 8);
  w.put_bits(0x55, 8);
  const auto bytes = w.take();
  BitReader r(bytes);
  r.seek(8);
  EXPECT_EQ(r.get_bits(8), 0x55u);
  r.seek(0);
  EXPECT_EQ(r.get_bits(8), 0xAAu);
}

// ------------------------------------------------------ delta-of-delta

std::vector<std::int64_t> dod_round_trip(const std::vector<std::int64_t>& in) {
  BitWriter w;
  DeltaOfDeltaEncoder enc;
  for (const std::int64_t v : in) enc.append(v, w);
  const auto bytes = w.take();
  BitReader r(bytes);
  DeltaOfDeltaDecoder dec;
  std::vector<std::int64_t> out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out.push_back(dec.next(r));
  EXPECT_FALSE(r.exhausted());
  return out;
}

TEST(DeltaOfDelta, FixedIntervalTicksCostOneBitPerRow) {
  std::vector<std::int64_t> ts;
  for (int i = 0; i < 1000; ++i) ts.push_back(1'000'000'000ll + i * 300'000'000'000ll);
  BitWriter w;
  DeltaOfDeltaEncoder enc;
  for (const std::int64_t v : ts) enc.append(v, w);
  // 64 raw + one delta bucket + 998 single '0' bits, rounded to bytes.
  EXPECT_LT(w.bit_size(), 64u + 64u + 1000u);
  EXPECT_EQ(dod_round_trip(ts), ts);
}

TEST(DeltaOfDelta, RoundTripsIrregularStreams) {
  const std::vector<std::vector<std::int64_t>> cases = {
      {},                      // empty
      {0},                     // single row
      {-5},                    // single negative
      {7, 7, 7, 7},            // repeated timestamps (duplicates allowed)
      {100, 50, 0, -50},       // negative deltas
      {0, 1, 1'000'000'000'000ll, 1'000'000'000'001ll},  // huge jump (escape path)
      {std::numeric_limits<std::int64_t>::min(), 0,
       std::numeric_limits<std::int64_t>::max()},  // extreme wraparound deltas
  };
  for (const auto& c : cases) EXPECT_EQ(dod_round_trip(c), c);
}

TEST(DeltaOfDelta, RandomWalkRoundTripsExactly) {
  std::mt19937_64 rng(42);
  std::vector<std::int64_t> ts;
  std::int64_t t = -1'000'000;
  for (int i = 0; i < 5000; ++i) {
    t += static_cast<std::int64_t>(rng() % 1'000'003) - 500'000;
    ts.push_back(t);
  }
  EXPECT_EQ(dod_round_trip(ts), ts);
}

TEST(DeltaOfDelta, TruncatedStreamDecodesWithoutCrashing) {
  std::vector<std::int64_t> ts;
  for (int i = 0; i < 100; ++i) ts.push_back(i * 1'000'000'007ll);
  BitWriter w;
  DeltaOfDeltaEncoder enc;
  for (const std::int64_t v : ts) enc.append(v, w);
  auto bytes = w.take();
  for (std::size_t keep = 0; keep <= bytes.size(); keep += 3) {
    BitReader r(std::span<const std::uint8_t>(bytes.data(), keep));
    DeltaOfDeltaDecoder dec;
    for (int i = 0; i < 100; ++i) (void)dec.next(r);  // total: values arbitrary
  }
}

// ----------------------------------------------------------------- xor

std::vector<double> xor_round_trip(const std::vector<double>& in) {
  BitWriter w;
  XorEncoder enc;
  for (const double v : in) enc.append(v, w);
  const auto bytes = w.take();
  BitReader r(bytes);
  XorDecoder dec;
  std::vector<double> out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out.push_back(dec.next(r));
  return out;
}

void expect_bitwise_equal(const std::vector<double>& got, const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << "index " << i;
  }
}

TEST(XorCodec, RoundTripsSpecialValuesBitwise) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      6.02214076e23,
  };
  expect_bitwise_equal(xor_round_trip(values), values);
}

TEST(XorCodec, IdenticalRunsCostOneBitPerValue) {
  std::vector<double> values(512, 21.75);
  BitWriter w;
  XorEncoder enc;
  for (const double v : values) enc.append(v, w);
  EXPECT_LT(w.bit_size(), 64u + 512u);
  expect_bitwise_equal(xor_round_trip(values), values);
}

TEST(XorCodec, SlowDriftRoundTripsExactly) {
  std::mt19937_64 rng(7);
  std::normal_distribution<double> step(0.0, 0.3);
  std::vector<double> values;
  double v = 55.0;  // a plausible input-power reading, watts
  for (int i = 0; i < 4096; ++i) {
    v += step(rng);
    values.push_back(v);
  }
  const auto out = xor_round_trip(values);
  expect_bitwise_equal(out, values);
}

TEST(XorCodec, RandomBitPatternsRoundTripExactly) {
  std::mt19937_64 rng(0xfeed);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(std::bit_cast<double>(rng()));
  expect_bitwise_equal(xor_round_trip(values), values);
}

TEST(XorCodec, TruncatedStreamDecodesWithoutCrashing) {
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) values.push_back(1.0 + 0.001 * i);
  BitWriter w;
  XorEncoder enc;
  for (const double v : values) enc.append(v, w);
  auto bytes = w.take();
  for (std::size_t keep = 0; keep <= bytes.size(); ++keep) {
    BitReader r(std::span<const std::uint8_t>(bytes.data(), keep));
    XorDecoder dec;
    for (int i = 0; i < 64; ++i) (void)dec.next(r);
  }
}

// --------------------------------------------------------------- block

Block make_block(std::size_t rows, bool compress, std::uint64_t seq0 = 0) {
  std::vector<std::int64_t> ts;
  std::vector<double> values;
  std::vector<std::uint64_t> seq;
  std::mt19937_64 rng(rows * 31 + seq0);
  std::normal_distribution<double> step(0.0, 0.5);
  double v = 40.0;
  for (std::size_t i = 0; i < rows; ++i) {
    ts.push_back(static_cast<std::int64_t>(i) * 560'000'000ll);  // MonEQ tick
    v += step(rng);
    values.push_back(v);
    seq.push_back(seq0 + i * 7);  // ascending, gappy
  }
  return Block::seal(ts, values, seq, compress);
}

TEST(Block, CompressedAndRawDecodeIdentically) {
  for (const std::size_t rows : {1u, 15u, 16u, 17u, 100u, 4096u}) {
    const Block c = make_block(rows, true);
    const Block r = make_block(rows, false);
    std::vector<std::int64_t> ts_c, ts_r;
    std::vector<double> v_c, v_r;
    std::vector<std::uint64_t> q_c, q_r;
    c.decode_timestamps(ts_c);
    r.decode_timestamps(ts_r);
    c.decode_values(v_c);
    r.decode_values(v_r);
    c.decode_seq(q_c);
    r.decode_seq(q_r);
    EXPECT_EQ(ts_c, ts_r);
    expect_bitwise_equal(v_c, v_r);
    EXPECT_EQ(q_c, q_r);
    EXPECT_EQ(c.rows(), rows);
    EXPECT_EQ(c.summary().rows, r.summary().rows);
    EXPECT_EQ(c.summary().value_sum, r.summary().value_sum);  // bit-exact
  }
}

TEST(Block, SubchunkDecodeMatchesFullDecodeSlice) {
  const Block b = make_block(1000, true);
  std::vector<double> full;
  b.decode_values(full);
  double chunk[Block::kSubchunkRows];
  for (std::size_t c = 0; c < b.subchunk_count(); ++c) {
    b.decode_subchunk_values(c, chunk);
    const std::size_t begin = c * Block::kSubchunkRows;
    for (std::size_t i = 0; i < b.subchunk_rows(c); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(chunk[i]),
                std::bit_cast<std::uint64_t>(full[begin + i]));
    }
  }
}

TEST(Block, SubchunkSumsAreTheCanonicalFolds) {
  // 200 rows: twelve full 16-row subchunks (4-lane tree fold) plus one
  // 8-row tail (left-to-right fold) — the canonical grammar in simd.hpp.
  const Block b = make_block(200, true);
  std::vector<double> full;
  b.decode_values(full);
  for (std::size_t c = 0; c < b.subchunk_count(); ++c) {
    const std::size_t begin = c * Block::kSubchunkRows;
    const std::size_t n = b.subchunk_rows(c);
    double sum = 0.0;
    if (n == Block::kSubchunkRows) {
      double lane[4] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t i = 0; i < n; ++i) lane[i % 4] += full[begin + i];
      sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    } else {
      for (std::size_t i = 0; i < n; ++i) sum += full[begin + i];
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sum),
              std::bit_cast<std::uint64_t>(b.subchunk_sum(c)));  // identical fold
  }
}

TEST(Block, SummaryTracksNaNAwareMinMax) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::int64_t> ts = {0, 1, 2, 3, 4};
  const std::vector<double> values = {nan, 3.0, -2.0, nan, 7.0};
  const std::vector<std::uint64_t> seq = {0, 1, 2, 3, 4};
  const Block b = Block::seal(ts, values, seq, true);
  EXPECT_EQ(b.summary().rows, 5u);
  EXPECT_EQ(b.summary().finite_rows, 3u);
  EXPECT_EQ(b.summary().value_min, -2.0);
  EXPECT_EQ(b.summary().value_max, 7.0);
  EXPECT_TRUE(std::isnan(b.summary().value_sum));  // NaN participates in sums
}

TEST(Block, SmoothStreamsCompressWellBelowRawFootprint) {
  const Block c = make_block(4096, true);
  const Block r = make_block(4096, false);
  // Raw is 24 B/row before overheads; the gate for the full engine is
  // 8 B/row, so a single smooth block should sit far below raw.
  EXPECT_LT(c.bytes_used() * 3, r.bytes_used());
}

// ------------------------------------------------------------- golden

// Absolute bits of the fold grammar and of one sealed block, pinned as
// checked-in constants: any change to the decode & fold kernels, the
// fold grammar, the codecs or the seal layout that moves a stored or
// returned bit fails here, whatever else still agrees with itself.
TEST(Codec, GoldenFoldAndSealBits) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const double inf = std::numeric_limits<double>::infinity();
  const double subnormal = std::numeric_limits<double>::denorm_min() * 12345;
  const double nan_payload = std::bit_cast<double>(0x7ff800000000beefull);
  const double tiny = std::ldexp(1.0, -27);         // tiny² + tiny² = 2^-53
  const double one_eps = 1.0 + std::ldexp(1.0, -30);  // one_eps² drops 2^-60
  // 16 rows: lane 1 folds tiny², tiny², one_eps² — a tie that a fused
  // multiply-add would round up instead of to even.  All rows >= 0 with
  // both zeros present, so min takes the canonical -0.0.
  const double full[16] = {0.5,  tiny,    0.0, 0.25,   0.1,  tiny, subnormal, 0.125,
                           -0.0, one_eps, 0.2, 1e-300, 0.75, 0.0,  0.0625,    0.375};
  // 10 rows: the same FMA-sensitive triple first (rows 0-2 fold
  // left-to-right on their own), then a non-canonical NaN payload,
  // both infinities, both zeros and a subnormal.
  const double tail[10] = {tiny, tiny, one_eps, nan_payload, -0.0, inf, 0.0, subnormal, -inf, 3.5};

  simd::SubchunkFold f16;
  simd::SubchunkFold f10;
  simd::fold_subchunk(full, 16, f16);
  simd::fold_subchunk(tail, 10, f10);
  simd::FoldCombine combine;
  combine.add(f16);
  combine.add(f10);
  const simd::SubchunkFold total = combine.finish();

  const auto expect_fold = [&](const simd::SubchunkFold& f, const std::uint64_t (&want)[4],
                               std::uint32_t finite, const char* what) {
    EXPECT_EQ(bits(f.sum), want[0]) << what << " sum";
    EXPECT_EQ(bits(f.sum_sq), want[1]) << what << " sum_sq";
    EXPECT_EQ(bits(f.min), want[2]) << what << " min";
    EXPECT_EQ(bits(f.max), want[3]) << what << " max";
    EXPECT_EQ(f.finite, finite) << what << " finite";
  };
  expect_fold(f16, {0x400ae66668866666ull, 0x4000ae6666a66666ull, 0x8000000000000000ull,
                    0x3ff0000000400000ull}, 16, "16-row fold");
  expect_fold(f10, {0x7ff8000000000000ull, 0x7ff8000000000000ull, 0xfff0000000000000ull,
                    0x7ff0000000000000ull}, 9, "10-row fold");
  expect_fold(total, {0x7ff8000000000000ull, 0x7ff8000000000000ull, 0xfff0000000000000ull,
                      0x7ff0000000000000ull}, 25, "combined fold");
  EXPECT_EQ(bits(simd::sum_subchunk(full, 16)), bits(f16.sum));
  EXPECT_EQ(bits(simd::sum_subchunk(tail, 10)), bits(f10.sum));
  simd::SubchunkFold f3;
  simd::fold_subchunk(tail, 3, f3);
  EXPECT_EQ(bits(f3.sum_sq), 0x3ff0000000800000ull) << "3-row fold sum_sq";

  // One seeded sensor-shaped column: a 560 ms MonEQ tick with jitter,
  // gappy seq, and a 0.1 W-resolution random walk with repeats.
  std::vector<std::int64_t> ts;
  std::vector<double> values;
  std::vector<std::uint64_t> seq;
  SplitMix64 rng(0x5eed'601d);
  std::int64_t t = 1'700'000'000'000'000'000ll;
  std::uint64_t q = 1000;
  std::int64_t level = 0;
  for (std::size_t i = 0; i < Block::kMaxRows; ++i) {
    const std::uint64_t r = rng.next();
    t += 560'000'000ll + ((r & 3u) == 0 ? static_cast<std::int64_t>((r >> 8) % 3'000'000) : 0);
    q += 1 + (r >> 20) % 3;
    if ((r >> 40) & 1u) level += static_cast<std::int64_t>((r >> 44) % 9) - 4;
    ts.push_back(t);
    seq.push_back(q);
    values.push_back(40.0 + static_cast<double>(level) * 0.1);
  }
  const Block block = Block::seal(ts, values, seq, true);
  std::vector<std::uint8_t> extent;
  std::vector<std::uint8_t> seq_stream;
  block.encode_extent(extent);
  block.encode_seq_stream(seq_stream);
  daemon::Fnv1a h;
  h.mix(extent.data(), extent.size());
  h.mix(seq_stream.data(), seq_stream.size());
  const BlockSummary& s = block.summary();
  for (const std::uint64_t field :
       {std::uint64_t{s.rows}, std::uint64_t{s.finite_rows}, static_cast<std::uint64_t>(s.ts_min),
        static_cast<std::uint64_t>(s.ts_max), s.seq_first, s.seq_last, bits(s.value_min),
        bits(s.value_max), bits(s.value_sum), bits(s.value_sum_sq)}) {
    h.mix_u64(field);
  }
  EXPECT_EQ(h.value(), 0xe92247441e0da97dull) << std::hex << h.value();
}

// -------------------------------------------------------------- series

TEST(Series, AutoSealsAtBlockCapacity) {
  Series s(board_location(0, 0, 0), 0, true);
  bool sealed = false;
  for (std::size_t i = 0; i < Block::kMaxRows; ++i) {
    sealed = s.append(static_cast<std::int64_t>(i), 1.0, i);
  }
  EXPECT_TRUE(sealed);  // the 4096th append sealed the head
  EXPECT_EQ(s.block_count(), 1u);
  EXPECT_EQ(s.head_rows(), 0u);
  EXPECT_EQ(s.size(), Block::kMaxRows);
}

TEST(Series, SealHeadHonorsMinRows) {
  Series s(board_location(0, 0, 0), 0, true);
  for (int i = 0; i < 10; ++i) s.append(i, 1.0, static_cast<std::uint64_t>(i));
  EXPECT_FALSE(s.seal_head(11));  // too few rows
  EXPECT_EQ(s.block_count(), 0u);
  EXPECT_TRUE(s.seal_head(10));
  EXPECT_EQ(s.block_count(), 1u);
  EXPECT_EQ(s.head_rows(), 0u);
}

TEST(Series, DropBeforeDropsWholeBlocksAndRebuildsTheBoundary) {
  Series s(board_location(0, 0, 0), 0, true);
  // 3 sealed blocks of 100 rows at ts = row index, then a 50-row head.
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < 100; ++i) {
      const int row = b * 100 + i;
      s.append(row, static_cast<double>(row), static_cast<std::uint64_t>(row));
    }
    s.seal_head(1);
  }
  for (int i = 300; i < 350; ++i) s.append(i, static_cast<double>(i), static_cast<std::uint64_t>(i));
  ASSERT_EQ(s.block_count(), 3u);
  ASSERT_EQ(s.size(), 350u);

  // Cutoff inside block 1: block 0 drops whole, block 1 is rebuilt.
  EXPECT_EQ(s.drop_before(150), 150u);
  EXPECT_EQ(s.size(), 200u);
  ASSERT_EQ(s.block_count(), 2u);  // rebuilt boundary + the untouched block
  ASSERT_NE(s.block(0), nullptr);
  EXPECT_EQ(s.block(0)->rows(), 50u);  // the re-materialized boundary
  EXPECT_EQ(s.front_ts_ns(), 150);
  std::vector<std::int64_t> ts;
  s.block(0)->decode_timestamps(ts);
  EXPECT_EQ(ts.front(), 150);
  EXPECT_EQ(ts.back(), 199);

  // Cutoff beyond all blocks: everything sealed drops, head is trimmed.
  EXPECT_EQ(s.drop_before(320), 170u);
  EXPECT_EQ(s.block_count(), 0u);
  EXPECT_EQ(s.size(), 30u);
  EXPECT_EQ(s.front_ts_ns(), 320);
}

TEST(Series, HeadRangeBinarySearchesBothBounds) {
  Series s(board_location(0, 0, 0), 0, false);
  for (int i = 0; i < 100; ++i) s.append(i * 10, 1.0, static_cast<std::uint64_t>(i));
  const auto all = s.head_range(std::nullopt, std::nullopt);
  EXPECT_EQ(all.size(), 100u);
  const auto mid = s.head_range(250, 500);  // 250 rounds up to row 25
  EXPECT_EQ(mid.first, 25u);
  EXPECT_EQ(mid.last, 51u);  // inclusive upper bound
  const auto none = s.head_range(2000, std::nullopt);
  EXPECT_EQ(none.size(), 0u);
}

// ----------------------------------------------------------- seq order

struct SeqRow {
  std::uint64_t seq = 0;
  std::size_t input = 0;  // position before ordering: pins stability
};

TEST(SeqOrder, PassCountFollowsTheSeqSpanBitWidth) {
  using detail::kSeqDigitBits;
  using detail::seq_radix_passes;
  EXPECT_EQ(seq_radix_passes(0), 0u);
  EXPECT_EQ(seq_radix_passes(1), 1u);
  for (unsigned passes = 1; passes <= 3; ++passes) {
    const std::uint64_t boundary = std::uint64_t{1} << (passes * kSeqDigitBits);
    EXPECT_EQ(seq_radix_passes(boundary - 1), passes);
    EXPECT_EQ(seq_radix_passes(boundary), passes + 1);
  }
  EXPECT_EQ(seq_radix_passes(std::numeric_limits<std::uint64_t>::max()), 6u);
}

TEST(SeqOrder, RadixOrderMatchesStableSortAcrossDigitBoundaries) {
  // Rows whose seqs fill [base, base + span] with both ends present and
  // some repeated, in shuffled order; the reference is std::stable_sort.
  // The spans sit just below and at each digit boundary up to three
  // passes, and at the full 64-bit range: six passes, whose shifts must
  // stay below 64 (UBSan flags one that does not).
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cases;  // (base, span)
  for (unsigned passes = 1; passes <= 3; ++passes) {
    const std::uint64_t boundary = std::uint64_t{1} << (passes * detail::kSeqDigitBits);
    for (const std::uint64_t span : {boundary - 1, boundary}) {
      cases.emplace_back(0, span);
      cases.emplace_back(1'000'003, span);
      cases.emplace_back(kMax - span, span);
    }
  }
  cases.emplace_back(0, kMax);
  cases.emplace_back(kMax - 5, 5);
  cases.emplace_back(42, 0);
  std::mt19937_64 rng(18);
  for (const auto& [base, span] : cases) {
    for (const std::size_t n : {0u, 1u, 2u, 3000u}) {
      SCOPED_TRACE(testing::Message() << "base " << base << " span " << span << " n " << n);
      std::vector<SeqRow> rows;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t seq = base + (span == kMax ? rng() : rng() % (span + 1));
        if (i == 1) seq = base + span;
        if (i == 0) seq = base;
        if (i > 2 && i % 7 == 0) seq = rows[i / 2].seq;
        rows.push_back(SeqRow{seq, 0});
      }
      std::shuffle(rows.begin(), rows.end(), rng);
      for (std::size_t i = 0; i < n; ++i) rows[i].input = i;
      std::vector<SeqRow> expected = rows;
      std::stable_sort(expected.begin(), expected.end(),
                       [](const SeqRow& a, const SeqRow& b) { return a.seq < b.seq; });
      detail::order_by_seq(rows);
      ASSERT_EQ(rows.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(rows[i].seq, expected[i].seq) << "row " << i;
        ASSERT_EQ(rows[i].input, expected[i].input) << "row " << i;
      }
    }
  }
}

// ------------------------------------------------------------ database

Record rec(double t_s, int board, const char* metric, double value) {
  return Record{SimTime::from_seconds(t_s), board_location(0, 0, board), metric, value};
}

TEST(EnvDatabaseBlocks, SealingNeverChangesQueryOrDownsampleResults) {
  // Sealing converts the head into a block with the same row positions,
  // so the subchunk aggregation grid — and every computed result — is
  // preserved bit-exactly.  Cache disabled: both sides must recompute.
  DatabaseOptions opts;
  opts.downsample_cache_capacity = 0;
  EnvDatabase db(opts);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.insert(rec(0.5 * i, i % 4, "power_w", 40.0 + 0.25 * (i % 13))).is_ok());
  }
  QueryFilter f;
  f.metric = "power_w";
  const auto rows_before = db.query(f);
  const auto buckets_before = db.downsample(f, Duration::seconds(30));
  const auto agg_before = db.aggregate(f);

  ASSERT_GT(db.seal_blocks(), 0u);
  ASSERT_GT(db.sealed_block_count(), 0u);

  const auto rows_after = db.query(f);
  ASSERT_EQ(rows_after.size(), rows_before.size());
  for (std::size_t i = 0; i < rows_before.size(); ++i) {
    EXPECT_EQ(rows_after[i].timestamp, rows_before[i].timestamp);
    EXPECT_EQ(rows_after[i].value, rows_before[i].value);
  }
  const auto buckets_after = db.downsample(f, Duration::seconds(30));
  ASSERT_EQ(buckets_after.size(), buckets_before.size());
  for (std::size_t i = 0; i < buckets_before.size(); ++i) {
    EXPECT_EQ(buckets_after[i].mean, buckets_before[i].mean);  // bit-exact
    EXPECT_EQ(buckets_after[i].count, buckets_before[i].count);
  }
  const auto agg_after = db.aggregate(f);
  EXPECT_EQ(agg_after.sum, agg_before.sum);
  EXPECT_EQ(agg_after.min, agg_before.min);
  EXPECT_EQ(agg_after.max, agg_before.max);
}

TEST(EnvDatabaseBlocks, SealKeepsMemoizedDownsampleResultsValid) {
  EnvDatabase db;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db.insert(rec(1.0 * i, i % 2, "power_w", 20.0 + i)).is_ok());
  }
  QueryFilter f;
  f.metric = "power_w";
  const auto before = db.downsample(f, Duration::seconds(60));
  ASSERT_GT(db.seal_blocks(), 0u);
  // Sealing is not a mutation: the memoized result stays valid and must
  // be served from cache.
  const auto hits = db.query_stats().cache_hits;
  const auto after = db.downsample(f, Duration::seconds(60));
  EXPECT_EQ(db.query_stats().cache_hits, hits + 1);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].mean, before[i].mean);
  }
}

TEST(EnvDatabaseBlocks, DownsamplePushdownServesFullSubchunksFromSums) {
  EnvDatabase db;
  // 1 Hz samples, 64 s buckets: every bucket fully covers 4 subchunks.
  for (int i = 0; i < 2048; ++i) {
    ASSERT_TRUE(db.insert(rec(1.0 * i, 0, "power_w", 40.0 + 0.1 * (i % 7))).is_ok());
  }
  db.seal_blocks();
  QueryFilter f;
  f.metric = "power_w";
  const auto before = db.query_stats();
  const auto buckets = db.downsample(f, Duration::seconds(64));
  const auto& after = db.query_stats();
  EXPECT_EQ(buckets.size(), 32u);
  EXPECT_GT(after.pushdown_chunks, before.pushdown_chunks);
  EXPECT_GT(after.pushdown_rows, before.pushdown_rows);
  // Fully aligned buckets: everything but stray boundary chunks pushes down.
  EXPECT_GT(after.pushdown_rows - before.pushdown_rows, 2048u / 2);
}

TEST(EnvDatabaseBlocks, RetentionInvalidatesDownsampleCache) {
  DatabaseOptions opts;
  opts.retention = Duration::seconds(100);
  EnvDatabase db(opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.insert(rec(1.0 * i, 0, "power_w", 1.0 * i)).is_ok());
  }
  db.seal_blocks();
  QueryFilter f;
  f.metric = "power_w";
  const auto before = db.downsample(f, Duration::seconds(10));
  ASSERT_EQ(before.size(), 10u);
  EXPECT_EQ(before.front().count, 10u);

  // Advancing time to 160 s moves the cutoff to 60 s: the first 60
  // sealed rows drop (the boundary block is re-materialized) and the
  // cached result must not be served stale.
  ASSERT_TRUE(db.insert(rec(160.0, 0, "power_w", 0.0)).is_ok());
  const auto misses_before = db.query_stats().cache_misses;
  const auto after = db.downsample(f, Duration::seconds(10));
  EXPECT_EQ(db.query_stats().cache_misses, misses_before + 1);
  ASSERT_EQ(after.size(), 5u);  // buckets 60..90 plus the one at 160
  EXPECT_EQ(after.front().start, SimTime::from_seconds(60.0));
  EXPECT_EQ(after.front().count, 10u);
  const auto rows = db.query(f);
  EXPECT_EQ(rows.size(), 41u);  // rows 60..99 survive, plus the new record
  EXPECT_EQ(rows.front().timestamp, SimTime::from_seconds(60.0));
}

TEST(EnvDatabaseBlocks, RetentionAndRateWindowInteractAcrossBlocks) {
  // Regression: retention drops sealed rows, but the ingest-rate window
  // must keep counting them until they age out of the *window* — a
  // vacuum cannot retroactively free ingest budget.
  DatabaseOptions opts;
  opts.max_insert_rate_per_second = 10.0;
  opts.rate_window = Duration::seconds(10);  // budget: 100 per window
  opts.retention = Duration::seconds(1);     // much shorter than the window
  EnvDatabase db(opts);
  // 100 records in the first second exhaust the window budget.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.insert(rec(0.01 * i, 0, "power_w", 1.0)).is_ok());
  }
  db.seal_blocks();
  EXPECT_FALSE(db.insert(rec(5.0, 0, "power_w", 1.0)).is_ok());  // budget full

  // At t = 10.495 s half the window has aged out, so the insert lands —
  // and retention (cutoff 9.495 s) then drops every original row.
  ASSERT_TRUE(db.insert(rec(10.495, 0, "power_w", 1.0)).is_ok());
  EXPECT_EQ(db.size(), 1u);
  // The dropped rows still occupy the rate window: only 49 more fit.
  int accepted = 0;
  for (int i = 0; i < 60; ++i) {
    if (db.insert(rec(10.495, 0, "power_w", 1.0)).is_ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 49);
}

TEST(EnvDatabaseBlocks, BytesUsedAccountsDownsampleCacheEntries) {
  DatabaseOptions opts;
  EnvDatabase db(opts);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(db.insert(rec(1.0 * i, i % 4, "power_w", 1.0 * i)).is_ok());
  }
  const auto before = db.bytes_used();
  // Distinct widths -> distinct cache entries, each holding buckets.
  for (int w = 1; w <= 8; ++w) {
    (void)db.downsample(QueryFilter{}, Duration::seconds(w));
  }
  EXPECT_GT(db.bytes_used(), before);  // cache footprint is visible now
  EXPECT_GT(db.query_stats().cache_misses, 0u);
}

TEST(EnvDatabaseBlocks, BatchReservesHeadForRunsWithoutChangingResults) {
  // One batch with long same-series runs (the collector layout) must
  // land identically to record-at-a-time inserts.
  std::vector<Record> batch;
  for (int board = 0; board < 4; ++board) {
    for (int i = 0; i < 100; ++i) {
      batch.push_back(rec(10.0 * board + 0.1 * i, board, "power_w", 40.0 + i));
    }
  }
  std::stable_sort(batch.begin(), batch.end(), [](const Record& a, const Record& b) {
    return a.timestamp.ns() < b.timestamp.ns();
  });
  EnvDatabase via_batch;
  EnvDatabase via_single;
  EXPECT_TRUE(via_batch.insert_batch(batch).all_accepted());
  for (const auto& r : batch) ASSERT_TRUE(via_single.insert(r).is_ok());
  const auto a = via_batch.query(QueryFilter{});
  const auto b = via_single.query(QueryFilter{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].location, b[i].location);
  }
}

TEST(EnvDatabaseBlocks, ParallelQueryMatchesSerialAcrossThreadCounts) {
  // The worker pool decodes scan parts concurrently and the rows are
  // then radix-ordered on the insertion sequence, so output is
  // byte-identical at any thread count.  This is the TSan workload for
  // the parallel executor.
  DatabaseOptions serial_opts;
  DatabaseOptions parallel_opts;
  parallel_opts.query_threads = 4;
  parallel_opts.parallel_query_min_rows = 1;  // engage the pool even here
  EnvDatabase serial(serial_opts);
  EnvDatabase parallel(parallel_opts);
  for (int i = 0; i < 4000; ++i) {
    const Record r = rec(0.25 * i, i % 8, i % 2 == 0 ? "power_w" : "temp_c",
                         20.0 + 0.5 * (i % 37));
    ASSERT_TRUE(serial.insert(r).is_ok());
    ASSERT_TRUE(parallel.insert(r).is_ok());
  }
  serial.seal_blocks();
  parallel.seal_blocks();

  for (const char* metric : {"power_w", "temp_c"}) {
    QueryFilter f;
    f.metric = metric;
    const auto a = serial.query(f);
    const auto b = parallel.query(f);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].timestamp, b[i].timestamp);
      EXPECT_EQ(a[i].location, b[i].location);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].value),
                std::bit_cast<std::uint64_t>(b[i].value));
    }
  }
}

TEST(EnvDatabaseBlocks, QueryReturnsRowsInInsertionOrderAtAnyThreadCount) {
  // query() orders its rows by the global insertion sequence.  The
  // reference is independent of the engine: the accepted records in
  // insertion order (which is seq order), filtered by the query.  The
  // windows give results of 0 and 1 rows and seq spans just below and
  // at the first radix digit boundary (2^11), over sealed blocks and
  // heads of eight series; the 4-thread store engages its pool on every
  // read.  With ParallelQueryMatchesSerialAcrossThreadCounts this is
  // the TSan workload for the parallel materialize sink.
  constexpr int kRows = (1 << 11) + 64;
  DatabaseOptions serial_opts;
  serial_opts.parallel_query_min_rows = 1;
  DatabaseOptions parallel_opts = serial_opts;
  parallel_opts.query_threads = 4;
  EnvDatabase serial(serial_opts);
  EnvDatabase parallel(parallel_opts);
  std::vector<Record> accepted;
  for (int i = 0; i < kRows; ++i) {
    accepted.push_back(rec(0.25 * i, i % 8, i % 2 == 0 ? "power_w" : "temp_c",
                           20.0 + 0.5 * (i % 37)));
  }
  // Three insert phases with seals between: every series ends with two
  // sealed blocks and a head.
  for (const auto& [lo, hi] : {std::pair{0, 700}, std::pair{700, 1400}, std::pair{1400, kRows}}) {
    const std::span<const Record> phase(accepted.data() + lo, accepted.data() + hi);
    ASSERT_TRUE(serial.insert_batch(phase).all_accepted());
    ASSERT_TRUE(parallel.insert_batch(phase).all_accepted());
    if (hi < kRows) {
      serial.seal_blocks();
      parallel.seal_blocks();
    }
  }

  const auto at = [](int row) { return SimTime::from_seconds(0.25 * row); };
  const auto window = [&](int first, int last) {
    QueryFilter f;
    f.from = at(first);
    f.to = at(last);
    return f;
  };
  std::vector<std::pair<const char*, QueryFilter>> cases = {
      {"everything", QueryFilter{}},
      {"after the last row", window(kRows, kRows + 10)},
      {"one row", window(1234, 1234)},
      {"seq span 2^11 - 1", window(0, (1 << 11) - 1)},
      {"seq span 2^11", window(0, 1 << 11)},
      {"seq span 2^11 - 1, offset", window(37, 37 + (1 << 11) - 1)},
      {"seq span 2^11, offset", window(37, 37 + (1 << 11))},
  };
  QueryFilter metric = window(1, 1 << 11);  // even rows 2 .. 2^11
  metric.metric = "power_w";
  cases.emplace_back("one metric", metric);
  QueryFilter unknown;
  unknown.metric = "fan_rpm";
  cases.emplace_back("unknown metric", unknown);
  QueryFilter board;
  board.location_prefix = board_location(0, 0, 3);
  cases.emplace_back("one board", board);

  for (const auto& [name, f] : cases) {
    SCOPED_TRACE(name);
    std::vector<Record> expected;
    for (const Record& r : accepted) {
      if (f.location_prefix && !f.location_prefix->contains(r.location)) continue;
      if (f.metric && *f.metric != r.metric) continue;
      if (f.from && r.timestamp < *f.from) continue;
      if (f.to && *f.to < r.timestamp) continue;
      expected.push_back(r);
    }
    for (const EnvDatabase* db : {&serial, &parallel}) {
      const auto got = db->query(f);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].timestamp, expected[i].timestamp);
        EXPECT_EQ(got[i].location, expected[i].location);
        EXPECT_EQ(got[i].metric, expected[i].metric);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
                  std::bit_cast<std::uint64_t>(expected[i].value));
      }
    }
  }
}

}  // namespace
}  // namespace envmon::tsdb
