#include "tsdb/checksum.hpp"

#include <array>

namespace envmon::tsdb {

namespace {

// Reflected CRC-32C table (polynomial 0x1EDC6F41, reflected 0x82F63B78),
// generated at static-init time.
constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

// splitmix64 finalizer — the avalanche step of the per-rank seeding the
// fleet engine already uses; here it stirs 8-byte chunks into each hash
// lane.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint32_t crc32c_table_impl(std::span<const std::uint8_t> bytes, std::uint32_t c) {
  for (const std::uint8_t b : bytes) {
    c = kCrc32cTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)
// SSE4.2 carries CRC-32C in hardware (the instruction exists *because*
// of this polynomial).  8 bytes per crc32q against 1 byte per table
// lookup matters here: the WAL frames every record and the envmond wire
// protocol frames every message with this checksum.
__attribute__((target("sse4.2")))
std::uint32_t crc32c_hw_impl(std::span<const std::uint8_t> bytes, std::uint32_t c) {
  std::uint64_t crc = c;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint64_t chunk;
    __builtin_memcpy(&chunk, p, 8);
    crc = __builtin_ia32_crc32di(crc, chunk);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(crc);
  while (n > 0) {
    c32 = __builtin_ia32_crc32qi(c32, *p);
    ++p;
    --n;
  }
  return c32;
}

bool crc32c_hw_available() { return __builtin_cpu_supports("sse4.2") != 0; }
#else
bool crc32c_hw_available() { return false; }
std::uint32_t crc32c_hw_impl(std::span<const std::uint8_t> bytes, std::uint32_t c) {
  return crc32c_table_impl(bytes, c);
}
#endif

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  static const bool hw = crc32c_hw_available();
  const std::uint32_t c = seed ^ 0xFFFFFFFFu;
  return (hw ? crc32c_hw_impl(bytes, c) : crc32c_table_impl(bytes, c)) ^ 0xFFFFFFFFu;
}

ContentHash content_hash(std::span<const std::uint8_t> bytes) {
  // Two independently seeded 64-bit lanes over the same chunks.  Each
  // 8-byte (little-endian) chunk is absorbed with a multiply + splitmix
  // avalanche; the tail chunk is zero-padded with the length mixed in so
  // "abc" and "abc\0" hash differently.
  std::uint64_t h1 = 0x9e3779b97f4a7c15ull;
  std::uint64_t h2 = 0xc2b2ae3d27d4eb4full;
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t chunk = 0;
    for (unsigned b = 0; b < 8; ++b) {
      chunk |= static_cast<std::uint64_t>(bytes[i + b]) << (8 * b);
    }
    h1 = mix64(h1 ^ chunk) * 0xff51afd7ed558ccdull;
    h2 = mix64(h2 + chunk) ^ (h2 >> 29);
  }
  std::uint64_t tail = 0;
  for (unsigned b = 0; i + b < n; ++b) {
    tail |= static_cast<std::uint64_t>(bytes[i + b]) << (8 * b);
  }
  h1 = mix64(h1 ^ tail ^ n);
  h2 = mix64(h2 + tail + n);
  return ContentHash{mix64(h1 ^ (h2 >> 32)), mix64(h2 ^ (h1 << 17))};
}

}  // namespace envmon::tsdb
