// Property suite for the decode & fold kernels (ctest label
// `prop`; DESIGN.md §15).  Every invariant here is universally
// quantified over generated inputs rather than pinned examples:
//
//  * codec roundtrip — delta-of-delta over arbitrary (wrapping) int64
//    streams and XOR over arbitrary 64-bit patterns decode back exactly,
//    through the reference decoders AND through the batch decoders in
//    simd.hpp;
//  * decode totality — garbage bytes with garbage offsets decode to the
//    reference decoders' bits and never read out of bounds
//    (ci/check.sh re-runs this suite under ASan/UBSan);
//  * decode identity on production shapes — one fixed sensor-shaped
//    value column and one 240 s-cadence timestamp stream, the workload
//    bench/tsdb_scale times the decode kernels on;
//  * fold grammar — the subchunk folds are bit-identical to an
//    independent transcription of the canonical grammar in simd.hpp,
//    for every lane count 0..16 including NaN/±inf/±0 mixes;
//  * sealed blocks — compressed and raw seals of the same rows produce
//    bit-identical summaries and subchunk sums, and cursor subchunk reads
//    agree with full decodes;
//  * engine oracle — query/downsample/aggregate results match a flat
//    mirror scan and are bit-identical across the default, reference
//    (raw + no pushdown), and parallel-query engines;
//  * retention — vacuum keeps exactly the rows at or after the cutoff,
//    bit-preserved, and is idempotent.
//
// Case counts scale with ENVMON_PROP_CASES (proptest.hpp); ci/check.sh
// raises them in the Bench configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "proptest.hpp"
#include "tsdb/block.hpp"
#include "tsdb/codec.hpp"
#include "tsdb/database.hpp"
#include "tsdb/simd.hpp"

namespace envmon::tsdb {
namespace {

using envmon::proptest::Rng;
using sim::Duration;
using sim::SimTime;

constexpr std::size_t kRows = Block::kSubchunkRows;

std::uint64_t bits_of(double d) { return std::bit_cast<std::uint64_t>(d); }

// EXPECT_EQ on doubles fails on NaN == NaN; the engine's contract is
// about bit patterns, so compare those.
void expect_bits_eq(double actual, double expected, const char* what) {
  EXPECT_EQ(bits_of(actual), bits_of(expected)) << what;
}

// ---------------------------------------------------------------------
// Codec roundtrip
// ---------------------------------------------------------------------

ENVMON_PROP(PropCodec, DeltaOfDeltaRoundtripsOnAllVariants, 120) {
  const std::size_t rows = 1 + rng.index(3 * kRows + 5);
  std::vector<std::int64_t> vals(rows);
  std::uint64_t cur = rng.u64();
  std::uint64_t delta = rng.range(0, 2'000'000'000) - 1'000'000'000ull;
  for (auto& v : vals) {
    switch (rng.index(4)) {
      case 0: break;                                      // perfect tick (0-bit row)
      case 1: delta += rng.range(0, 2000) - 1000ull; break;  // jitter buckets
      case 2: delta = rng.u64() >> rng.index(64); break;  // regime jump / escape
      default: break;
    }
    cur += delta;  // uint64: wraparound is the codec's own arithmetic
    v = static_cast<std::int64_t>(cur);
  }

  BitWriter w;
  DeltaOfDeltaEncoder enc;
  for (const std::int64_t v : vals) enc.append(v, w);
  const auto& stream = w.bytes();

  BitReader r(stream);
  DeltaOfDeltaDecoder dec;
  for (std::size_t i = 0; i < rows; ++i) {
    ASSERT_EQ(dec.next(r), vals[i]) << "reference decoder, row " << i;
  }

  std::vector<std::int64_t> out(rows, -1);
  simd::decode_dod(stream.data(), stream.size(), rows, out.data());
  for (std::size_t i = 0; i < rows; ++i) ASSERT_EQ(out[i], vals[i]) << "row " << i;
}

ENVMON_PROP(PropCodec, XorColumnRoundtripsAnyBitPatternsOnAllVariants, 120) {
  const std::size_t rows = 1 + rng.index(5 * kRows + 7);
  std::vector<double> vals(rows);
  double walk = 21.5;
  for (auto& v : vals) {
    if (rng.chance(40)) {
      v = rng.any_double();  // arbitrary bits incl. NaN payloads, ±inf, -0.0
    } else {
      walk = rng.smooth_step(walk);
      v = walk;
    }
  }

  // Encode exactly as Block::seal lays out the value column: the XOR
  // state restarts at every subchunk and the restart bit offset is
  // recorded for random access.
  BitWriter w;
  std::vector<std::uint32_t> offsets;
  for (std::size_t begin = 0; begin < rows; begin += kRows) {
    offsets.push_back(static_cast<std::uint32_t>(w.bit_size()));
    XorEncoder enc;
    const std::size_t end = std::min(begin + kRows, rows);
    for (std::size_t i = begin; i < end; ++i) enc.append(vals[i], w);
  }
  const auto& stream = w.bytes();

  BitReader r(stream);
  for (std::size_t c = 0; c < offsets.size(); ++c) {
    r.seek(offsets[c]);
    XorDecoder dec;
    const std::size_t end = std::min((c + 1) * kRows, rows);
    for (std::size_t i = c * kRows; i < end; ++i) {
      const double got = dec.next(r);
      ASSERT_EQ(bits_of(got), bits_of(vals[i])) << "reference decoder, row " << i;
    }
  }

  std::vector<double> out(rows, -7.25);
  simd::decode_xor_column(stream.data(), stream.size(), offsets.data(), offsets.size(), rows,
                          out.data());
  for (std::size_t i = 0; i < rows; ++i) {
    ASSERT_EQ(bits_of(out[i]), bits_of(vals[i])) << "row " << i;
  }
  // Single-subchunk decode from a random restart offset.
  const std::size_t c = rng.index(offsets.size());
  const std::size_t begin = c * kRows;
  const std::size_t n = std::min(begin + kRows, rows) - begin;
  double chunk[kRows];
  simd::decode_xor_subchunk(stream.data(), stream.size(), offsets[c], n, chunk);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bits_of(chunk[i]), bits_of(vals[begin + i]))
        << "subchunk " << c << ", lane " << i;
  }
}

// ---------------------------------------------------------------------
// Decode totality: garbage in, the reference's garbage out, no OOB
// ---------------------------------------------------------------------

ENVMON_PROP(PropCodec, GarbageDecodesIdenticallyOnAllVariants, 150) {
  std::vector<std::uint8_t> stream(rng.index(160));
  for (auto& b : stream) b = static_cast<std::uint8_t>(rng.u64());
  const std::size_t rows = 1 + rng.index(4 * kRows);

  // Garbage restart offsets too — including offsets past the end of the
  // stream, which must decode as a zero-padded tail.
  const std::size_t chunks = (rows + kRows - 1) / kRows;
  std::vector<std::uint32_t> offsets(chunks);
  for (auto& o : offsets) {
    o = static_cast<std::uint32_t>(rng.range(0, stream.size() * 8 + 256));
  }

  std::vector<double> ref(rows);
  BitReader r(stream);
  for (std::size_t c = 0; c < chunks; ++c) {
    r.seek(offsets[c]);
    XorDecoder dec;
    const std::size_t end = std::min((c + 1) * kRows, rows);
    for (std::size_t i = c * kRows; i < end; ++i) ref[i] = dec.next(r);
  }

  std::vector<double> out(rows, 0.0);
  simd::decode_xor_column(stream.data(), stream.size(), offsets.data(), chunks, rows,
                          out.data());
  for (std::size_t i = 0; i < rows; ++i) {
    ASSERT_EQ(bits_of(out[i]), bits_of(ref[i])) << "row " << i;
  }

  BitReader dr(stream);
  DeltaOfDeltaDecoder ddec;
  std::vector<std::int64_t> dref(rows);
  for (auto& v : dref) v = ddec.next(dr);
  std::vector<std::int64_t> dout(rows, 0);
  simd::decode_dod(stream.data(), stream.size(), rows, dout.data());
  for (std::size_t i = 0; i < rows; ++i) ASSERT_EQ(dout[i], dref[i]) << "row " << i;
}

// ---------------------------------------------------------------------
// Decode identity on the production shapes, at fixed seeds
// ---------------------------------------------------------------------

TEST(PropCodec, SensorColumnAndCadenceStreamDecodeBitIdentical) {
  constexpr std::size_t kN = std::size_t{1} << 15;

  // Sensor-shaped values: long same-value runs (the XOR codec's 1-bit
  // case), small mantissa drifts, occasional regulator steps — laid
  // out as Block::seal lays out a value column.
  std::vector<double> vals(kN);
  std::mt19937_64 vrng(0x5eed);
  double v = 1.2;
  for (auto& out : vals) {
    const std::uint64_t roll = vrng() % 100;
    if (roll < 55) {
      // repeat
    } else if (roll < 90) {
      v += 0.0005 * static_cast<double>(static_cast<std::int64_t>(vrng() % 9) - 4);
    } else {
      v = 1.2 + 0.01 * static_cast<double>(vrng() % 8);
    }
    out = v;
  }
  BitWriter vw;
  std::vector<std::uint32_t> offsets;
  for (std::size_t begin = 0; begin < kN; begin += kRows) {
    offsets.push_back(static_cast<std::uint32_t>(vw.bit_size()));
    XorEncoder enc;
    for (std::size_t i = begin; i < std::min(begin + kRows, kN); ++i) enc.append(vals[i], vw);
  }
  const auto& vstream = vw.bytes();

  // Near-fixed-interval ticks with jitter: the paper's 240 s polling
  // cadence.
  std::vector<std::int64_t> ts(kN);
  std::mt19937_64 trng(0xd0d);
  std::int64_t t = 1'000'000'000;
  for (auto& out : ts) {
    t += 240'000'000'000 + static_cast<std::int64_t>(trng() % 2'000'001) - 1'000'000;
    out = t;
  }
  BitWriter tw;
  DeltaOfDeltaEncoder tenc;
  for (const std::int64_t x : ts) tenc.append(x, tw);
  const auto& tstream = tw.bytes();

  // The reference decoders round-trip ...
  std::vector<double> ref_vals(kN);
  BitReader vr(vstream);
  for (std::size_t c = 0; c < offsets.size(); ++c) {
    vr.seek(offsets[c]);
    XorDecoder dec;
    for (std::size_t i = c * kRows; i < std::min((c + 1) * kRows, kN); ++i) {
      ref_vals[i] = dec.next(vr);
    }
  }
  std::vector<std::int64_t> ref_ts(kN);
  BitReader tr(tstream);
  DeltaOfDeltaDecoder tdec;
  for (auto& out : ref_ts) out = tdec.next(tr);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(bits_of(ref_vals[i]), bits_of(vals[i])) << "reference XOR, row " << i;
    ASSERT_EQ(ref_ts[i], ts[i]) << "reference delta-of-delta, row " << i;
  }

  // ... and the kernels reproduce them bit for bit.
  std::vector<double> out_vals(kN, -7.25);
  simd::decode_xor_column(vstream.data(), vstream.size(), offsets.data(), offsets.size(), kN,
                          out_vals.data());
  std::vector<std::int64_t> out_ts(kN, -1);
  simd::decode_dod(tstream.data(), tstream.size(), kN, out_ts.data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(bits_of(out_vals[i]), bits_of(ref_vals[i])) << "kernel XOR, row " << i;
    ASSERT_EQ(out_ts[i], ref_ts[i]) << "kernel delta-of-delta, row " << i;
  }
}

// ---------------------------------------------------------------------
// Canonical fold grammar (simd.hpp): independent transcription
// ---------------------------------------------------------------------

constexpr std::uint64_t kCanonicalNan = 0x7ff8000000000000ull;

double canonical(double d) { return d != d ? std::bit_cast<double>(kCanonicalNan) : d; }

simd::SubchunkFold grammar_fold(const double* v, std::size_t n) {
  simd::SubchunkFold out;
  if (n == kRows) {
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    double lane_sq[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < kRows; ++i) {
      lane[i % 4] += v[i];
      lane_sq[i % 4] += v[i] * v[i];
    }
    out.sum = canonical((lane[0] + lane[1]) + (lane[2] + lane[3]));
    out.sum_sq = canonical((lane_sq[0] + lane_sq[1]) + (lane_sq[2] + lane_sq[3]));
  } else {
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += v[i];
      sum_sq += v[i] * v[i];
    }
    out.sum = canonical(sum);
    out.sum_sq = canonical(sum_sq);
  }
  bool first = true;
  bool neg_zero = false, pos_zero = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] != v[i]) continue;  // min/max skip NaN
    if (first || v[i] < out.min) out.min = v[i];
    if (first || v[i] > out.max) out.max = v[i];
    first = false;
    ++out.finite;
    if (v[i] == 0.0) (std::signbit(v[i]) ? neg_zero : pos_zero) = true;
  }
  // Canonical zero signs make the fold order-independent when both
  // zeros are present: min resolves to the -0.0 that was seen, max to
  // the +0.0 — never a sign that was not in the input.
  if (out.finite > 0) {
    if (out.min == 0.0) out.min = neg_zero ? -0.0 : 0.0;
    if (out.max == 0.0) out.max = pos_zero ? 0.0 : -0.0;
  }
  return out;
}

ENVMON_PROP(PropSimd, FoldsMatchGrammarBitwiseOnEveryLaneCount, 250) {
  double v[kRows];
  const std::size_t n = rng.index(kRows + 1);  // 0..16: tails and full chunks
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = rng.chance(50) ? rng.any_double()
                          : static_cast<double>(rng.range(0, 4000)) * 0.125 - 250.0;
  }
  const simd::SubchunkFold want = grammar_fold(v, n);
  simd::SubchunkFold got;
  simd::fold_subchunk(v, n, got);
  expect_bits_eq(got.sum, want.sum, "sum");
  expect_bits_eq(got.sum_sq, want.sum_sq, "sum_sq");
  EXPECT_EQ(got.finite, want.finite);
  if (want.finite > 0) {
    expect_bits_eq(got.min, want.min, "min");
    expect_bits_eq(got.max, want.max, "max");
  }
  expect_bits_eq(simd::sum_subchunk(v, n), want.sum, "sum_subchunk");
}

// ---------------------------------------------------------------------
// Sealed blocks: compressed ≡ raw, cursor subchunks ≡ full decode
// ---------------------------------------------------------------------

ENVMON_PROP(PropBlock, CompressedAndRawSealsAgreeBitwise, 60) {
  const std::size_t rows = 1 + rng.index(5 * kRows + 3);
  std::vector<std::int64_t> ts(rows);
  std::vector<double> values(rows);
  std::vector<std::uint64_t> seq(rows);
  std::int64_t t = static_cast<std::int64_t>(rng.range(0, 1'000'000));
  for (std::size_t i = 0; i < rows; ++i) {
    t += static_cast<std::int64_t>(rng.range(0, 1'000'000'000));  // ascending, dups allowed
    ts[i] = t;
    values[i] = rng.chance(30) ? rng.any_double()
                               : static_cast<double>(rng.range(0, 100'000)) * 0.01;
    seq[i] = 1000 + 3 * static_cast<std::uint64_t>(i);  // strictly ascending
  }

  const Block compressed = Block::seal(ts, values, seq, /*compress=*/true);
  const Block raw = Block::seal(ts, values, seq, /*compress=*/false);

  const BlockSummary& cs = compressed.summary();
  const BlockSummary& rs = raw.summary();
  EXPECT_EQ(cs.rows, rows);
  EXPECT_EQ(cs.finite_rows, rs.finite_rows);
  EXPECT_EQ(cs.ts_min, rs.ts_min);
  EXPECT_EQ(cs.ts_max, rs.ts_max);
  expect_bits_eq(cs.value_min, rs.value_min, "summary min");
  expect_bits_eq(cs.value_max, rs.value_max, "summary max");
  expect_bits_eq(cs.value_sum, rs.value_sum, "summary sum");
  expect_bits_eq(cs.value_sum_sq, rs.value_sum_sq, "summary sum_sq");
  ASSERT_EQ(compressed.subchunk_count(), raw.subchunk_count());

  // Summaries and subchunk sums are exactly the canonical grammar over
  // the input rows — recomputed here via FoldCombine.
  simd::FoldCombine combine;
  for (std::size_t c = 0; c < compressed.subchunk_count(); ++c) {
    simd::SubchunkFold fold;
    simd::fold_subchunk(values.data() + c * kRows, compressed.subchunk_rows(c), fold);
    expect_bits_eq(compressed.subchunk_sum(c), fold.sum, "subchunk sum");
    combine.add(fold);
  }
  const simd::SubchunkFold total = combine.finish();
  expect_bits_eq(cs.value_sum, total.sum, "fold sum");
  expect_bits_eq(cs.value_sum_sq, total.sum_sq, "fold sum_sq");
  EXPECT_EQ(cs.finite_rows, total.finite);
  if (total.finite > 0) {
    expect_bits_eq(cs.value_min, total.min, "fold min");
    expect_bits_eq(cs.value_max, total.max, "fold max");
  }

  for (const Block* b : {&compressed, &raw}) {
    std::vector<std::int64_t> got_ts;
    std::vector<double> got_values;
    std::vector<std::uint64_t> got_seq;
    b->decode_timestamps(got_ts);
    b->decode_values(got_values);
    b->decode_seq(got_seq);
    ASSERT_EQ(got_ts, ts);
    ASSERT_EQ(got_seq, seq);
    ASSERT_EQ(got_values.size(), rows);
    for (std::size_t i = 0; i < rows; ++i) {
      ASSERT_EQ(bits_of(got_values[i]), bits_of(values[i])) << "row " << i;
    }

    // Random subchunk reads through one reused cursor against the full
    // decode — repeats and out-of-order jumps included, since the cursor
    // caches the last subchunk it decoded.
    BlockValueCursor cursor(*b);
    for (int probe = 0; probe < 8; ++probe) {
      const std::size_t c = rng.index(b->subchunk_count());
      const double* chunk = cursor.subchunk(c);
      for (std::size_t i = 0; i < b->subchunk_rows(c); ++i) {
        const std::size_t row = c * Block::kSubchunkRows + i;
        ASSERT_EQ(bits_of(chunk[i]), bits_of(values[row])) << "cursor row " << row;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Engine oracle: three engines vs a flat mirror scan
// ---------------------------------------------------------------------

bool flat_matches(const Record& r, const QueryFilter& f) {
  if (f.location_prefix && !f.location_prefix->contains(r.location)) return false;
  if (f.metric && r.metric != *f.metric) return false;
  if (f.from && r.timestamp < *f.from) return false;
  if (f.to && r.timestamp > *f.to) return false;
  return true;
}

Location random_location(Rng& rng) {
  const int rack = static_cast<int>(rng.index(3));
  const int midplane = static_cast<int>(rng.index(2));
  const int board = static_cast<int>(rng.index(4));
  switch (rng.index(3)) {
    case 0: return rack_location(rack);
    case 1: return midplane_location(rack, midplane);
    default: return board_location(rack, midplane, board);
  }
}

QueryFilter random_filter(Rng& rng, const char* const (&metrics)[3]) {
  QueryFilter f;
  if (rng.chance(70)) f.location_prefix = random_location(rng);
  if (rng.chance(60)) f.metric = metrics[rng.index(3)];
  if (rng.chance(10)) f.metric = "absent_metric";
  if (rng.chance(60)) f.from = SimTime::from_seconds(static_cast<double>(rng.index(60)));
  if (rng.chance(60)) {
    f.to = SimTime::from_seconds(static_cast<double>(20 + rng.index(80)));
  }
  return f;
}

ENVMON_PROP(PropEngine, QueryDownsampleAggregateMatchFlatOracle, 6) {
  DatabaseOptions ref_opts;
  ref_opts.compress_blocks = false;
  ref_opts.aggregation_pushdown = false;
  DatabaseOptions mt_opts;
  mt_opts.query_threads = 4;
  mt_opts.parallel_query_min_rows = 1;
  EnvDatabase db;
  EnvDatabase ref(ref_opts);
  EnvDatabase mt(mt_opts);

  const char* metrics[3] = {"power_w", "temp_c", "flow_lpm"};
  const std::size_t rows = 120 + rng.index(200);
  const std::size_t seal_at = rng.index(rows);
  std::vector<Record> mirror;
  double t = 0.0;
  double walk = 40.0;
  for (std::size_t i = 0; i < rows; ++i) {
    t += 0.05 * static_cast<double>(rng.index(5));  // duplicates and gaps
    walk = rng.smooth_step(walk);
    const Record r{SimTime::from_seconds(t), random_location(rng),
                   metrics[rng.index(3)], walk};
    ASSERT_TRUE(db.insert(r).is_ok());
    ASSERT_TRUE(ref.insert(r).is_ok());
    ASSERT_TRUE(mt.insert(r).is_ok());
    mirror.push_back(r);
    if (i == seal_at) {  // queries straddle sealed blocks and heads
      db.seal_blocks();
      ref.seal_blocks();
      mt.seal_blocks();
    }
  }

  for (int fi = 0; fi < 5; ++fi) {
    const QueryFilter f = fi == 0 ? QueryFilter{} : random_filter(rng, metrics);
    std::vector<Record> expected;
    for (const auto& r : mirror) {
      if (flat_matches(r, f)) expected.push_back(r);
    }

    const auto actual = db.query(f);
    const auto from_ref = ref.query(f);
    const auto from_mt = mt.query(f);
    ASSERT_EQ(actual.size(), expected.size());
    ASSERT_EQ(from_ref.size(), expected.size());
    ASSERT_EQ(from_mt.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].timestamp, expected[i].timestamp);
      ASSERT_EQ(actual[i].location, expected[i].location);
      ASSERT_EQ(actual[i].metric, expected[i].metric);
      ASSERT_EQ(bits_of(actual[i].value), bits_of(expected[i].value));
      ASSERT_EQ(from_ref[i].timestamp, actual[i].timestamp);
      ASSERT_EQ(bits_of(from_ref[i].value), bits_of(actual[i].value));
      ASSERT_EQ(from_mt[i].timestamp, actual[i].timestamp);
      ASSERT_EQ(bits_of(from_mt[i].value), bits_of(actual[i].value));
    }

    const Duration width = Duration::seconds(static_cast<std::int64_t>(1 + rng.index(9)));
    struct Want {
      SimTime start;
      double sum = 0.0;
      std::size_t count = 0;
    };
    std::vector<Want> want;
    for (const auto& r : expected) {
      const std::int64_t ns = r.timestamp.ns(), wns = width.ns();
      std::int64_t idx = ns / wns;
      if (ns % wns != 0 && ns < 0) --idx;  // floor
      const SimTime start = SimTime::from_ns(idx * wns);
      if (want.empty() || want.back().start != start) want.push_back({start, 0.0, 0});
      want.back().sum += r.value;
      ++want.back().count;
    }
    const auto got = db.downsample(f, width);
    const auto got_ref = ref.downsample(f, width);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got_ref.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].start, want[i].start);
      ASSERT_EQ(got[i].count, want[i].count);
      // The mean is defined at subchunk granularity, so the flat fold
      // agrees only to rounding; bit-exactness is asserted between the
      // pushdown engine and the raw-block reference engine.
      EXPECT_NEAR(got[i].mean, want[i].sum / static_cast<double>(want[i].count), 1e-9);
      ASSERT_EQ(got_ref[i].start, got[i].start);
      ASSERT_EQ(got_ref[i].count, got[i].count);
      ASSERT_EQ(bits_of(got_ref[i].mean), bits_of(got[i].mean));
    }

    const auto agg = db.aggregate(f);
    const auto agg_ref = ref.aggregate(f);
    EXPECT_EQ(agg.count, expected.size());
    EXPECT_EQ(agg_ref.count, agg.count);
    expect_bits_eq(agg_ref.sum, agg.sum, "aggregate sum");
    expect_bits_eq(agg_ref.sum_sq, agg.sum_sq, "aggregate sum_sq");
    expect_bits_eq(agg_ref.min, agg.min, "aggregate min");
    expect_bits_eq(agg_ref.max, agg.max, "aggregate max");
  }
}

// ---------------------------------------------------------------------
// Retention: exact cutoff, bit-preserved survivors, idempotent vacuum
// ---------------------------------------------------------------------

ENVMON_PROP(PropEngine, RetentionKeepsExactlyTheUnexpiredRowsBitwise, 12) {
  const Duration retention =
      Duration::from_seconds(0.5 + 0.25 * static_cast<double>(rng.index(200)));
  DatabaseOptions opts;
  opts.retention = retention;
  EnvDatabase db(opts);
  EnvDatabase unretained;

  const char* metrics[3] = {"power_w", "temp_c", "flow_lpm"};
  const std::size_t rows = 80 + rng.index(160);
  std::vector<Record> mirror;
  double t = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    t += 0.2 * static_cast<double>(rng.index(6));
    const Record r{SimTime::from_seconds(t), random_location(rng), metrics[rng.index(3)],
                   static_cast<double>(rng.range(0, 1000)) * 0.5};
    ASSERT_TRUE(db.insert(r).is_ok());
    ASSERT_TRUE(unretained.insert(r).is_ok());
    mirror.push_back(r);
    if (rng.chance(5)) db.seal_blocks();  // retention crosses sealed blocks too
  }

  // vacuum() drops rows strictly before newest - retention, so the
  // survivor set is exactly computable from the mirror.
  const std::int64_t cutoff = mirror.back().timestamp.ns() - retention.ns();
  std::vector<Record> expected;
  for (const auto& r : mirror) {
    if (r.timestamp.ns() >= cutoff) expected.push_back(r);
  }

  const auto survivors = db.query({});
  ASSERT_EQ(survivors.size(), expected.size());
  ASSERT_EQ(db.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(survivors[i].timestamp, expected[i].timestamp);
    ASSERT_EQ(survivors[i].location, expected[i].location);
    ASSERT_EQ(survivors[i].metric, expected[i].metric);
    ASSERT_EQ(bits_of(survivors[i].value), bits_of(expected[i].value));
  }

  // Survivors are untouched by retention: bit-identical to the same
  // rows in the engine that never vacuumed.
  const auto all = unretained.query({});
  ASSERT_EQ(all.size(), mirror.size());
  const std::size_t dropped = mirror.size() - expected.size();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(all[dropped + i].timestamp, survivors[i].timestamp);
    ASSERT_EQ(bits_of(all[dropped + i].value), bits_of(survivors[i].value));
  }

  // Idempotence: vacuuming again with the same newest row drops nothing.
  db.vacuum();
  const auto again = db.query({});
  ASSERT_EQ(again.size(), survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    ASSERT_EQ(again[i].timestamp, survivors[i].timestamp);
    ASSERT_EQ(bits_of(again[i].value), bits_of(survivors[i].value));
  }
}

}  // namespace
}  // namespace envmon::tsdb
