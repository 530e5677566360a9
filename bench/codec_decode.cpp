// Decode-path microbench for the decode kernels (simd.hpp).
//
// Lays out one sealed-block value column (XOR streams restarted every
// 16 rows, restart offsets recorded — exactly Block::seal's layout) and
// one delta-of-delta timestamp stream over sensor-shaped data, then
// times both decode implementations over the identical bytes:
//
//   reference : the row-at-a-time codec.hpp decoders (XorDecoder /
//               DeltaOfDeltaDecoder over BitReader), kept as the
//               baseline
//   kernels   : the batch decoders in simd.hpp the engine reads through
//
// Every timed decode is also checked bit-identical to the reference
// output — a decoder that got fast by being wrong fails the run.
//
// Gate: the kernels' XOR column decode must clear 2x the reference
// throughput.  The speedup comes from load discipline (DESIGN.md §15),
// not from SIMD lanes, so the gate holds on every host.
//
// Results land in BENCH_codec.json (rows/s and MB/s for both decoders,
// speedups, gate verdict); regenerate via `./build/bench/codec_decode`
// or `ctest --test-dir build -C Bench -L bench`.  `--smoke` runs a
// small workload, checks identity, and skips the JSON + perf gate —
// ci/check.sh drives that after tier-1 on every configuration.

#include <algorithm>
#include <bit>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "tsdb/codec.hpp"
#include "tsdb/simd.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace tsdb = envmon::tsdb;
namespace simd = envmon::tsdb::simd;

constexpr std::size_t kSubchunkRows = 16;

struct Column {
  std::vector<double> values;
  std::vector<std::uint8_t> stream;
  std::vector<std::uint32_t> offsets;  // restart bit offset per subchunk
};

struct DodStream {
  std::vector<std::int64_t> values;
  std::vector<std::uint8_t> stream;
};

// Sensor-shaped values: long same-value runs (the XOR codec's 1-bit
// case dominates production streams), small mantissa drifts, occasional
// regulator steps.
Column make_column(std::size_t rows, std::uint64_t seed) {
  Column col;
  col.values.resize(rows);
  std::mt19937_64 rng(seed);
  double v = 1.2;
  for (auto& out : col.values) {
    const std::uint64_t roll = rng() % 100;
    if (roll < 55) {
      // repeat
    } else if (roll < 90) {
      v += 0.0005 * static_cast<double>(static_cast<std::int64_t>(rng() % 9) - 4);
    } else {
      v = 1.2 + 0.01 * static_cast<double>(rng() % 8);
    }
    out = v;
  }
  tsdb::BitWriter w;
  for (std::size_t begin = 0; begin < rows; begin += kSubchunkRows) {
    col.offsets.push_back(static_cast<std::uint32_t>(w.bit_size()));
    tsdb::XorEncoder enc;
    const std::size_t end = std::min(begin + kSubchunkRows, rows);
    for (std::size_t i = begin; i < end; ++i) enc.append(col.values[i], w);
  }
  col.stream = w.take();
  return col;
}

// Near-fixed-interval ticks with jitter: the timestamp stream the paper's
// 240 s polling cadence produces.
DodStream make_dod(std::size_t rows, std::uint64_t seed) {
  DodStream s;
  s.values.resize(rows);
  std::mt19937_64 rng(seed);
  std::int64_t t = 1'000'000'000;
  for (auto& out : s.values) {
    t += 240'000'000'000 + static_cast<std::int64_t>(rng() % 2'000'001) - 1'000'000;
    out = t;
  }
  tsdb::BitWriter w;
  tsdb::DeltaOfDeltaEncoder enc;
  for (const std::int64_t v : s.values) enc.append(v, w);
  s.stream = w.take();
  return s;
}

// Best-of-N CPU seconds for `fn` (which must decode `rows` rows).
// CPU time, not wall time: decode microbenches run on shared build
// hosts where other tenants steal the core, and a wall clock would
// charge their timeslices to whichever decoder was unlucky enough to
// be running.  CLOCK_PROCESS_CPUTIME_ID counts only this process's
// execution, so the reference/kernel ratio the gate checks survives
// background load.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = cpu_seconds();
    fn();
    best = std::min(best, cpu_seconds() - t0);
  }
  return best;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Throughput {
  double rows_per_s = 0.0;
  double mb_per_s = 0.0;
};

Throughput throughput(std::size_t rows, std::size_t stream_bytes, double seconds) {
  Throughput t;
  t.rows_per_s = static_cast<double>(rows) / seconds;
  t.mb_per_s = static_cast<double>(stream_bytes) / seconds / (1024.0 * 1024.0);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::size_t rows = smoke ? (std::size_t{1} << 15) : (std::size_t{1} << 21);
  const int reps = smoke ? 2 : 7;

  std::printf("== Codec decode throughput (%zu rows%s) ==\n\n", rows, smoke ? ", smoke" : "");

  const Column col = make_column(rows, 0x5eed);
  const DodStream dod = make_dod(rows, 0xd0d);
  const std::size_t chunks = col.offsets.size();

  // --- Reference: the row-at-a-time decode loop. ------------------------
  std::vector<double> ref_values(rows);
  const double ref_xor_s = best_seconds(reps, [&] {
    tsdb::BitReader r(col.stream);
    for (std::size_t c = 0; c < chunks; ++c) {
      r.seek(col.offsets[c]);
      tsdb::XorDecoder dec;
      const std::size_t end = std::min((c + 1) * kSubchunkRows, rows);
      for (std::size_t i = c * kSubchunkRows; i < end; ++i) ref_values[i] = dec.next(r);
    }
  });
  if (!bits_equal(ref_values, col.values)) {
    std::printf("FAIL: reference XOR decode does not round-trip\n");
    return 1;
  }

  std::vector<std::int64_t> ref_ts(rows);
  const double ref_dod_s = best_seconds(reps, [&] {
    tsdb::BitReader r(dod.stream);
    tsdb::DeltaOfDeltaDecoder dec;
    for (std::size_t i = 0; i < rows; ++i) ref_ts[i] = dec.next(r);
  });
  if (ref_ts != dod.values) {
    std::printf("FAIL: reference delta-of-delta decode does not round-trip\n");
    return 1;
  }

  const Throughput ref_xor = throughput(rows, col.stream.size(), ref_xor_s);
  const Throughput ref_dod = throughput(rows, dod.stream.size(), ref_dod_s);
  std::printf("%-12s xor %8.1f Mrows/s %8.1f MB/s   dod %8.1f Mrows/s %8.1f MB/s\n",
              "reference", ref_xor.rows_per_s / 1e6, ref_xor.mb_per_s,
              ref_dod.rows_per_s / 1e6, ref_dod.mb_per_s);

  // --- The kernels, over the same bytes. -------------------------------
  bool identical = true;
  std::vector<double> out_values(rows);
  std::vector<std::int64_t> out_ts(rows);
  const double xor_s = best_seconds(reps, [&] {
    simd::decode_xor_column(col.stream.data(), col.stream.size(), col.offsets.data(), chunks,
                            rows, out_values.data());
  });
  if (!bits_equal(out_values, col.values)) {
    std::printf("FAIL: kernel XOR decode differs from the reference bits\n");
    identical = false;
  }
  const double dod_s = best_seconds(reps, [&] {
    simd::decode_dod(dod.stream.data(), dod.stream.size(), rows, out_ts.data());
  });
  if (out_ts != dod.values) {
    std::printf("FAIL: kernel delta-of-delta decode differs from the reference\n");
    identical = false;
  }
  const Throughput kernel_xor = throughput(rows, col.stream.size(), xor_s);
  const Throughput kernel_dod = throughput(rows, dod.stream.size(), dod_s);
  std::printf("%-12s xor %8.1f Mrows/s %8.1f MB/s   dod %8.1f Mrows/s %8.1f MB/s\n",
              "kernels", kernel_xor.rows_per_s / 1e6, kernel_xor.mb_per_s,
              kernel_dod.rows_per_s / 1e6, kernel_dod.mb_per_s);

  const double xor_speedup = kernel_xor.rows_per_s / ref_xor.rows_per_s;
  const double dod_speedup = kernel_dod.rows_per_s / ref_dod.rows_per_s;
  std::printf("\nxor speedup vs reference: %.2fx\n", xor_speedup);
  std::printf("dod speedup vs reference: %.2fx\n", dod_speedup);
  std::printf("byte-identical decodes  : %s\n", identical ? "PASS" : "FAIL");

  if (smoke) {
    // Tier-1 smoke: identity only — timing gates need the Bench config.
    return identical ? 0 : 1;
  }

  const bool gate_ok = xor_speedup >= 2.0;
  std::printf(">= 2x decode speedup    : %s (%.2fx)\n", gate_ok ? "PASS" : "FAIL", xor_speedup);

  std::FILE* out = std::fopen("BENCH_codec.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"rows\": %zu,\n"
                 "  \"value_stream_bytes\": %zu,\n"
                 "  \"ts_stream_bytes\": %zu,\n"
                 "  \"xor_reference_mrows_per_s\": %.1f,\n"
                 "  \"xor_reference_mb_per_s\": %.1f,\n"
                 "  \"dod_reference_mrows_per_s\": %.1f,\n"
                 "  \"dod_reference_mb_per_s\": %.1f,\n"
                 "  \"xor_kernel_mrows_per_s\": %.1f,\n"
                 "  \"xor_kernel_mb_per_s\": %.1f,\n"
                 "  \"dod_kernel_mrows_per_s\": %.1f,\n"
                 "  \"dod_kernel_mb_per_s\": %.1f,\n"
                 "  \"xor_speedup_vs_reference\": %.2f,\n"
                 "  \"dod_speedup_vs_reference\": %.2f,\n"
                 "  \"speedup_gate\": \"%s\"\n"
                 "}\n",
                 rows, col.stream.size(), dod.stream.size(), ref_xor.rows_per_s / 1e6,
                 ref_xor.mb_per_s, ref_dod.rows_per_s / 1e6, ref_dod.mb_per_s,
                 kernel_xor.rows_per_s / 1e6, kernel_xor.mb_per_s, kernel_dod.rows_per_s / 1e6,
                 kernel_dod.mb_per_s, xor_speedup, dod_speedup, gate_ok ? "pass" : "fail");
    std::fclose(out);
    std::printf("\nwrote BENCH_codec.json\n");
  }

  return (identical && gate_ok) ? 0 : 1;
}
