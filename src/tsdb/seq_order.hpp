#pragma once
// The materialize sink's ordering step (database.cpp, DESIGN.md §10):
// the rows a read gathered from its scan parts are put in global
// insertion order by a stable LSD radix sort on `seq - min(seq)`,
// kSeqDigitBits per pass.  The number of passes follows from the bit
// width of the rows' seq span, so a read whose rows were inserted within
// 2^22 of each other takes at most two.  The cost is O(passes * n) row
// moves and no comparisons, plus one scratch buffer of n rows.  There is
// no comparison-sort fallback for small inputs: every read takes the
// same code.  Private to tsdb: database.hpp does not include it.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace envmon::tsdb::detail {

inline constexpr unsigned kSeqDigitBits = 11;

// Radix passes that order keys in [0, span].
constexpr unsigned seq_radix_passes(std::uint64_t span) {
  return (static_cast<unsigned>(std::bit_width(span)) + kSeqDigitBits - 1) / kSeqDigitBits;
}

// Sorts `rows` by their `seq` member, stably.
template <class Row>
void order_by_seq(std::vector<Row>& rows) {
  if (rows.size() < 2) return;
  std::uint64_t min_seq = rows.front().seq;
  std::uint64_t max_seq = min_seq;
  for (const Row& r : rows) {
    min_seq = std::min(min_seq, r.seq);
    max_seq = std::max(max_seq, r.seq);
  }
  const std::uint64_t span = max_seq - min_seq;
  const unsigned passes = seq_radix_passes(span);
  if (passes == 0) return;  // one seq: already in order
  constexpr std::size_t kBuckets = std::size_t{1} << kSeqDigitBits;
  constexpr std::uint64_t kMask = kBuckets - 1;
  // Pass p's digit never exceeds span >> (p * kSeqDigitBits), so the top
  // pass only needs the buckets the span reaches.
  const auto buckets = [&](unsigned p) -> std::size_t {
    return std::min<std::uint64_t>(kMask, span >> (p * kSeqDigitBits)) + 1;
  };
  // Every pass's digit histogram in one read of the rows.
  std::vector<std::size_t> offsets((passes - 1) * kBuckets + buckets(passes - 1));
  for (const Row& r : rows) {
    const std::uint64_t key = r.seq - min_seq;
    for (unsigned p = 0; p < passes; ++p) {
      ++offsets[p * kBuckets + ((key >> (p * kSeqDigitBits)) & kMask)];
    }
  }
  std::vector<Row> scratch(rows.size());  // the passes alternate buffers
  for (unsigned p = 0; p < passes; ++p) {
    std::size_t* const next = offsets.data() + p * kBuckets;
    std::exclusive_scan(next, next + buckets(p), next, std::size_t{0});
    const unsigned shift = p * kSeqDigitBits;
    for (const Row& r : rows) scratch[next[((r.seq - min_seq) >> shift) & kMask]++] = r;
    rows.swap(scratch);
  }
}

}  // namespace envmon::tsdb::detail
