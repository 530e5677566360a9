#include "tsdb/block.hpp"

#include <cmath>

#include "tsdb/simd.hpp"
#include "tsdb/wire.hpp"

namespace envmon::tsdb {

namespace {
constexpr std::uint8_t kExtentFlagCompressed = 0x01;
}

Block Block::seal(std::span<const std::int64_t> ts, std::span<const double> values,
                  std::span<const std::uint64_t> seq, bool compress) {
  Block block;
  block.compressed_ = compress;
  const std::size_t n = ts.size();
  auto& s = block.summary_;
  s.rows = static_cast<std::uint32_t>(n);
  if (n > 0) {
    s.ts_min = ts.front();
    s.ts_max = ts.back();
    s.seq_first = seq.front();
    s.seq_last = seq.back();
  }
  // Canonical fold grammar (simd.hpp): fold each subchunk, combine
  // left-to-right.
  const std::size_t chunks = (n + kSubchunkRows - 1) / kSubchunkRows;
  simd::FoldCombine combine;
  block.subchunk_sums_.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * kSubchunkRows;
    const std::size_t end = begin + kSubchunkRows < n ? begin + kSubchunkRows : n;
    simd::SubchunkFold fold;
    simd::fold_subchunk(values.data() + begin, end - begin, fold);
    block.subchunk_sums_.push_back(fold.sum);
    combine.add(fold);
  }
  const simd::SubchunkFold total = combine.finish();
  s.finite_rows = total.finite;
  s.value_min = total.min;
  s.value_max = total.max;
  s.value_sum = total.sum;
  s.value_sum_sq = total.sum_sq;

  if (!compress) {
    block.raw_ts_.assign(ts.begin(), ts.end());
    block.raw_seq_.assign(seq.begin(), seq.end());
    block.raw_values_.assign(values.begin(), values.end());
    return block;
  }

  BitWriter ts_writer;
  DeltaOfDeltaEncoder ts_encoder;
  for (const std::int64_t t : ts) ts_encoder.append(t, ts_writer);
  block.ts_stream_ = ts_writer.take();
  block.ts_stream_.shrink_to_fit();

  BitWriter seq_writer;
  DeltaOfDeltaEncoder seq_encoder;
  for (const std::uint64_t q : seq) {
    seq_encoder.append(static_cast<std::int64_t>(q), seq_writer);
  }
  block.seq_stream_ = seq_writer.take();
  block.seq_stream_.shrink_to_fit();

  BitWriter value_writer;
  block.value_chunk_offsets_.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    block.value_chunk_offsets_.push_back(static_cast<std::uint32_t>(value_writer.bit_size()));
    XorEncoder encoder;  // restart per subchunk: decodable without prefix
    const std::size_t begin = c * kSubchunkRows;
    const std::size_t end = begin + kSubchunkRows < n ? begin + kSubchunkRows : n;
    for (std::size_t i = begin; i < end; ++i) encoder.append(values[i], value_writer);
  }
  block.value_stream_ = value_writer.take();
  block.value_stream_.shrink_to_fit();
  return block;
}

void Block::decode_timestamps(std::vector<std::int64_t>& out) const {
  if (!compressed_) {
    out.assign(raw_ts_.begin(), raw_ts_.end());
    return;
  }
  out.resize(summary_.rows);
  simd::decode_dod(ts_stream_.data(), ts_stream_.size(), summary_.rows, out.data());
}

void Block::decode_seq(std::vector<std::uint64_t>& out) const {
  if (!compressed_) {
    out.assign(raw_seq_.begin(), raw_seq_.end());
    return;
  }
  out.resize(summary_.rows);
  // seq values are encoded as int64 deltas; the bit patterns round-trip.
  simd::decode_dod(seq_stream_.data(), seq_stream_.size(), summary_.rows,
                   reinterpret_cast<std::int64_t*>(out.data()));
}

void Block::decode_values(std::vector<double>& out) const {
  if (!compressed_) {
    out.assign(raw_values_.begin(), raw_values_.end());
    return;
  }
  out.resize(summary_.rows);
  simd::decode_xor_column(value_stream_.data(), value_stream_.size(),
                          value_chunk_offsets_.data(), value_chunk_offsets_.size(),
                          summary_.rows, out.data());
}

void Block::decode_subchunk_values(std::size_t chunk, double* out) const {
  const std::size_t count = subchunk_rows(chunk);
  if (!compressed_) {
    const double* src = raw_values_.data() + chunk * kSubchunkRows;
    for (std::size_t i = 0; i < count; ++i) out[i] = src[i];
    return;
  }
  simd::decode_xor_subchunk(value_stream_.data(), value_stream_.size(),
                            value_chunk_offsets_[chunk], count, out);
}

const double* BlockValueCursor::subchunk(std::size_t chunk) {
  if (!block_->compressed_) {
    return block_->raw_values_.data() + chunk * Block::kSubchunkRows;
  }
  if (chunk != cached_chunk_) {
    block_->decode_subchunk_values(chunk, buf_);
    cached_chunk_ = chunk;
  }
  return buf_;
}

void Block::encode_extent(std::vector<std::uint8_t>& out) const {
  wire::Writer w;
  w.u8(compressed_ ? kExtentFlagCompressed : 0);
  w.u32(summary_.rows);
  w.u32(summary_.finite_rows);
  w.i64(summary_.ts_min);
  w.i64(summary_.ts_max);
  w.f64(summary_.value_min);
  w.f64(summary_.value_max);
  w.f64(summary_.value_sum);
  w.f64(summary_.value_sum_sq);
  w.u32(static_cast<std::uint32_t>(subchunk_sums_.size()));
  for (const double s : subchunk_sums_) w.f64(s);
  if (compressed_) {
    w.blob(ts_stream_);
    w.blob(value_stream_);
    for (const std::uint32_t off : value_chunk_offsets_) w.u32(off);
  } else {
    for (const std::int64_t t : raw_ts_) w.i64(t);
    for (const double v : raw_values_) w.f64(v);
  }
  out = w.take();
}

void Block::encode_seq_stream(std::vector<std::uint8_t>& out) const {
  if (compressed_) {
    out = seq_stream_;
    return;
  }
  wire::Writer w;
  for (const std::uint64_t q : raw_seq_) w.u64(q);
  out = w.take();
}

std::optional<Block> Block::decode_extent(std::span<const std::uint8_t> payload,
                                          std::span<const std::uint8_t> seq_stream,
                                          std::uint64_t seq_first, std::uint64_t seq_last) {
  wire::Reader r(payload);
  Block block;
  const std::uint8_t flags = r.u8();
  block.compressed_ = (flags & kExtentFlagCompressed) != 0;
  auto& s = block.summary_;
  s.rows = r.u32();
  s.finite_rows = r.u32();
  s.ts_min = r.i64();
  s.ts_max = r.i64();
  s.value_min = r.f64();
  s.value_max = r.f64();
  s.value_sum = r.f64();
  s.value_sum_sq = r.f64();
  s.seq_first = seq_first;
  s.seq_last = seq_last;
  if (!r.ok() || s.rows == 0 || s.rows > kMaxRows || s.finite_rows > s.rows ||
      (flags & ~kExtentFlagCompressed) != 0) {
    return std::nullopt;
  }
  const std::size_t chunks = (s.rows + kSubchunkRows - 1) / kSubchunkRows;
  if (r.u32() != chunks) return std::nullopt;
  block.subchunk_sums_.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) block.subchunk_sums_.push_back(r.f64());
  if (block.compressed_) {
    const auto ts = r.blob();
    const auto values = r.blob();
    block.ts_stream_.assign(ts.begin(), ts.end());
    block.value_stream_.assign(values.begin(), values.end());
    block.value_chunk_offsets_.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) block.value_chunk_offsets_.push_back(r.u32());
    block.seq_stream_.assign(seq_stream.begin(), seq_stream.end());
  } else {
    block.raw_ts_.reserve(s.rows);
    for (std::uint32_t i = 0; i < s.rows; ++i) block.raw_ts_.push_back(r.i64());
    block.raw_values_.reserve(s.rows);
    for (std::uint32_t i = 0; i < s.rows; ++i) block.raw_values_.push_back(r.f64());
    if (seq_stream.size() != static_cast<std::size_t>(s.rows) * sizeof(std::uint64_t)) {
      return std::nullopt;
    }
    wire::Reader sq(seq_stream);
    block.raw_seq_.reserve(s.rows);
    for (std::uint32_t i = 0; i < s.rows; ++i) block.raw_seq_.push_back(sq.u64());
  }
  if (!r.done()) return std::nullopt;
  return block;
}

std::size_t Block::bytes_used() const {
  return ts_stream_.capacity() + seq_stream_.capacity() + value_stream_.capacity() +
         value_chunk_offsets_.capacity() * sizeof(std::uint32_t) +
         raw_ts_.capacity() * sizeof(std::int64_t) +
         raw_seq_.capacity() * sizeof(std::uint64_t) +
         raw_values_.capacity() * sizeof(double) +
         subchunk_sums_.capacity() * sizeof(double);
}

}  // namespace envmon::tsdb
