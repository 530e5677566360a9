#pragma once
// Checksums and content addresses for the durable storage layer.
//
// Two different integrity mechanisms, for two different questions:
//
//  * crc32c() — CRC-32C (Castagnoli polynomial, the iSCSI/ext4/LevelDB
//    choice) over segment extent payloads and WAL record payloads.
//    Answers "did these bytes survive the disk?"; verified on every
//    extent load and every WAL record replayed.
//  * ContentHash / content_hash() — a 128-bit mixing hash over the
//    compressed extent payload.  Answers "have I stored these bytes
//    already?" — the dedup index key that gives sealed blocks their
//    content-addressed identity (DESIGN.md §13).  Correctness never
//    rests on collision resistance: on an index hit the store compares
//    the stored extent byte-for-byte before reusing it, so a collision
//    costs one compare, not corruption.

#include <cstddef>
#include <cstdint>
#include <span>

namespace envmon::tsdb {

// CRC-32C over `bytes`, seeded with `seed` (0 for a fresh checksum;
// pass a previous result to continue an incremental computation).
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> bytes,
                                   std::uint32_t seed = 0);

struct ContentHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend auto operator<=>(const ContentHash&, const ContentHash&) = default;
};

[[nodiscard]] ContentHash content_hash(std::span<const std::uint8_t> bytes);

}  // namespace envmon::tsdb
