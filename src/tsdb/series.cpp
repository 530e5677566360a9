#include "tsdb/series.hpp"

#include <algorithm>

namespace envmon::tsdb {

namespace {

// Head vectors grow in bounded steps instead of the libstdc++ 2x-from-1
// ramp: fleet ingest touches thousands of series per epoch, and the
// 1/2/4/8 reallocation churn on every young series is measurable.
constexpr std::size_t kHeadInitialCapacity = 32;

}  // namespace

bool Series::append(std::int64_t ts_ns, double value, std::uint64_t seq) {
  append_raw(ts_ns, value, seq);
  if (head_ts_.size() >= Block::kMaxRows) return seal_head(1);
  return false;
}

void Series::append_raw(std::int64_t ts_ns, double value, std::uint64_t seq) {
  if (head_ts_.size() == head_ts_.capacity()) {
    const std::size_t grown =
        std::max(kHeadInitialCapacity, head_ts_.capacity() * 2);
    reserve_head(std::min(grown, Block::kMaxRows) - head_ts_.size());
  }
  head_ts_.push_back(ts_ns);
  head_values_.push_back(value);
  head_seq_.push_back(seq);
}

void Series::reserve_head(std::size_t extra) {
  const std::size_t target = std::min(head_ts_.size() + extra, Block::kMaxRows);
  head_ts_.reserve(target);
  head_values_.reserve(target);
  head_seq_.reserve(target);
}

bool Series::seal_head(std::size_t min_rows) {
  if (head_ts_.empty() || head_ts_.size() < std::max<std::size_t>(min_rows, 1)) return false;
  push_block(Block::seal(head_ts_, head_values_, head_seq_, compress_));
  block_rows_ += head_ts_.size();
  clear_head();
  return true;
}

void Series::clear_head() {
  head_ts_.clear();
  head_values_.clear();
  head_seq_.clear();
  head_ts_.shrink_to_fit();
  head_values_.shrink_to_fit();
  head_seq_.shrink_to_fit();
}

void Series::push_block(Block block) {
  Sealed entry;
  entry.summary = block.summary();
  if (store_ != nullptr && store_->is_open()) {
    // Durable seal: the seq-free payload becomes (or re-references) a
    // content-addressed extent; the seq sidecar stays with this entry.
    std::vector<std::uint8_t> payload;
    block.encode_extent(payload);
    ExtentRef ref;
    bool dedup_hit = false;
    if (store_->append(payload, ref, dedup_hit).is_ok()) {
      entry.ref = ref;
      block.encode_seq_stream(entry.seq_stream);
      entry.seq_stream.shrink_to_fit();
    }
    // On store failure the block simply stays memory-resident with no
    // durable reference; its rows recover from the WAL as head rows.
  }
  entry.hot.store(new Block(std::move(block)), std::memory_order_release);
  sealed_.push_back(std::move(entry));
}

bool Series::adopt_sealed(const BlockSummary& summary, const ExtentRef& ref,
                          std::vector<std::uint8_t> seq_stream,
                          std::size_t rows_from_head) {
  // A seal record always consumed the series' entire head, so replay
  // must find exactly that prefix; anything else is WAL corruption.
  if (rows_from_head != head_ts_.size() || rows_from_head != summary.rows ||
      rows_from_head == 0) {
    return false;
  }
  if (head_ts_.front() != summary.ts_min || head_ts_.back() != summary.ts_max ||
      head_seq_.front() != summary.seq_first || head_seq_.back() != summary.seq_last) {
    return false;
  }
  restore_sealed(summary, ref, std::move(seq_stream));
  clear_head();
  return true;
}

void Series::restore_sealed(const BlockSummary& summary, const ExtentRef& ref,
                            std::vector<std::uint8_t> seq_stream) {
  Sealed entry;
  entry.summary = summary;
  entry.ref = ref;
  entry.seq_stream = std::move(seq_stream);
  sealed_.push_back(std::move(entry));  // cold: materialized on first touch
  block_rows_ += summary.rows;
}

const Block* Series::block(std::size_t i) const {
  const Sealed& entry = sealed_[i];
  if (Block* hot = entry.hot.load(std::memory_order_acquire); hot != nullptr) return hot;
  if (entry.quarantined.load(std::memory_order_acquire)) return nullptr;
  if (!entry.ref || store_ == nullptr) return nullptr;
  std::vector<std::uint8_t> payload;
  if (!store_->load(*entry.ref, payload).is_ok()) {
    entry.quarantined.store(true, std::memory_order_release);
    return nullptr;
  }
  std::optional<Block> decoded = Block::decode_extent(
      payload, entry.seq_stream, entry.summary.seq_first, entry.summary.seq_last);
  if (!decoded || decoded->rows() != entry.summary.rows) {
    store_->note_decode_failure();
    entry.quarantined.store(true, std::memory_order_release);
    return nullptr;
  }
  // Parallel materializers race benignly: first CAS wins, losers free.
  auto* fresh = new Block(std::move(*decoded));
  Block* expected = nullptr;
  if (entry.hot.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;
  return expected;
}

std::size_t Series::evict_block(std::size_t i) {
  Sealed& entry = sealed_[i];
  if (!entry.ref || entry.quarantined.load(std::memory_order_relaxed)) return 0;
  Block* hot = entry.hot.exchange(nullptr, std::memory_order_acq_rel);
  if (hot == nullptr) return 0;
  const std::size_t bytes = hot->bytes_used();
  delete hot;
  return bytes;
}

std::size_t Series::resident_sealed_bytes() const {
  std::size_t bytes = 0;
  for (const Sealed& entry : sealed_) {
    if (const Block* hot = entry.hot.load(std::memory_order_acquire); hot != nullptr) {
      bytes += hot->bytes_used();
    }
  }
  return bytes;
}

std::size_t Series::drop_before(std::int64_t cutoff_ns) {
  std::size_t dropped = 0;
  // Whole expired blocks go without decoding.
  std::size_t whole = 0;
  while (whole < sealed_.size() && sealed_[whole].summary.ts_max < cutoff_ns) {
    dropped += sealed_[whole].summary.rows;
    ++whole;
  }
  bool rebuilt_boundary = false;
  Block boundary;
  if (whole < sealed_.size() && sealed_[whole].summary.ts_min < cutoff_ns) {
    // At most one block straddles the cutoff (blocks are time-ordered):
    // decode it, drop the expired prefix, re-seal the remainder.  A
    // quarantined straddler cannot be decoded — drop it whole instead
    // (its rows were already lost to corruption).
    if (const Block* b = block(whole); b != nullptr) {
      std::vector<std::int64_t> ts;
      std::vector<double> values;
      std::vector<std::uint64_t> seq;
      b->decode_timestamps(ts);
      b->decode_values(values);
      b->decode_seq(seq);
      const auto it = std::lower_bound(ts.begin(), ts.end(), cutoff_ns);
      const auto n = static_cast<std::size_t>(std::distance(ts.begin(), it));
      dropped += n;
      boundary = Block::seal({ts.data() + n, ts.size() - n},
                             {values.data() + n, values.size() - n},
                             {seq.data() + n, seq.size() - n}, compress_);
      rebuilt_boundary = true;
    } else {
      dropped += sealed_[whole].summary.rows;
    }
    ++whole;
  }
  if (whole > 0) {
    for (std::size_t i = 0; i < whole; ++i) {
      block_rows_ -= sealed_[i].summary.rows;
      if (sealed_[i].ref && store_ != nullptr) store_->release(*sealed_[i].ref);
    }
    sealed_.erase(sealed_.begin(), sealed_.begin() + static_cast<std::ptrdiff_t>(whole));
    if (rebuilt_boundary) {
      block_rows_ += boundary.rows();
      // Re-seal through the normal path (the trimmed payload usually
      // dedups against nothing and becomes a fresh extent), then move
      // the entry to its time-ordered place at the front.
      push_block(std::move(boundary));
      std::rotate(sealed_.begin(), sealed_.end() - 1, sealed_.end());
    }
  }
  if (sealed_.empty() && !head_ts_.empty() && head_ts_.front() < cutoff_ns) {
    const auto it = std::lower_bound(head_ts_.begin(), head_ts_.end(), cutoff_ns);
    const auto n = static_cast<std::size_t>(std::distance(head_ts_.begin(), it));
    if (n > 0) {
      head_ts_.erase(head_ts_.begin(), it);
      head_values_.erase(head_values_.begin(), head_values_.begin() + static_cast<std::ptrdiff_t>(n));
      head_seq_.erase(head_seq_.begin(), head_seq_.begin() + static_cast<std::ptrdiff_t>(n));
      dropped += n;
    }
  }
  return dropped;
}

Series::RowRange Series::rows_between(std::span<const std::int64_t> ts,
                                      std::optional<std::int64_t> from_ns,
                                      std::optional<std::int64_t> to_ns) {
  RowRange r{0, ts.size()};
  if (from_ns) {
    r.first = static_cast<std::size_t>(
        std::distance(ts.begin(), std::lower_bound(ts.begin(), ts.end(), *from_ns)));
  }
  if (to_ns) {
    r.last = static_cast<std::size_t>(
        std::distance(ts.begin(), std::upper_bound(ts.begin(), ts.end(), *to_ns)));
  }
  if (r.last < r.first) r.last = r.first;
  return r;
}

std::size_t Series::bytes_used() const {
  std::size_t bytes = head_ts_.capacity() * sizeof(std::int64_t) +
                      head_values_.capacity() * sizeof(double) +
                      head_seq_.capacity() * sizeof(std::uint64_t) +
                      sealed_.capacity() * sizeof(Sealed);
  for (const Sealed& entry : sealed_) {
    if (const Block* hot = entry.hot.load(std::memory_order_acquire); hot != nullptr) {
      bytes += hot->bytes_used();
    }
    bytes += entry.seq_stream.capacity();
  }
  return bytes;
}

}  // namespace envmon::tsdb
