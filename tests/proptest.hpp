#pragma once
// Minimal in-repo property-test harness — the base layer of the
// property pyramid locking down the decode & fold kernels
// (DESIGN.md §15).
//
// Tier-1 must build hermetically offline, so the universal invariants
// run on this dependency-free harness: each ENVMON_PROP() body executes N
// generated cases, every case seeded deterministically from (base
// seed, case index), and a failure prints the pair to replay with:
//
//   ENVMON_PROP_CASES=<n>   cases per property (overrides the default)
//   ENVMON_PROP_SEED=<n>    base seed
//
// ci/check.sh runs the `prop` ctest label at high case counts in the
// Bench configuration and again under ASan/UBSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>

namespace envmon::proptest {

inline std::uint64_t base_seed() {
  static const std::uint64_t seed = [] {
    if (const char* env = std::getenv("ENVMON_PROP_SEED"); env != nullptr && *env != '\0') {
      return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 0));
    }
    return std::uint64_t{0xe9b0'75d8'c01d'cafeull};
  }();
  return seed;
}

inline std::size_t case_count(std::size_t default_cases) {
  if (const char* env = std::getenv("ENVMON_PROP_CASES"); env != nullptr && *env != '\0') {
    const unsigned long long n = std::strtoull(env, nullptr, 0);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return default_cases;
}

// Deterministic per-case generator.  Every draw helper is stable given
// (base seed, case index), so a failure replays exactly.
class Rng {
 public:
  Rng(std::uint64_t base, std::uint64_t case_index)
      : engine_(base ^ (0x9e37'79b9'7f4a'7c15ull * (case_index + 1))) {}

  [[nodiscard]] std::uint64_t u64() { return engine_(); }

  // Uniform in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + engine_() % (hi - lo + 1);
  }
  [[nodiscard]] std::size_t index(std::size_t bound) {  // [0, bound)
    return static_cast<std::size_t>(engine_() % bound);
  }
  [[nodiscard]] bool chance(unsigned percent) { return engine_() % 100 < percent; }

  // All 2^64 bit patterns: NaN payloads, ±inf, denormals, -0.0 —
  // the codecs must treat every one as opaque bits.
  [[nodiscard]] double any_double() {
    double d;
    if (chance(25)) {
      switch (index(5)) {
        case 0: d = std::numeric_limits<double>::quiet_NaN(); break;
        case 1: d = std::numeric_limits<double>::infinity(); break;
        case 2: d = -std::numeric_limits<double>::infinity(); break;
        case 3: d = chance(50) ? 0.0 : -0.0; break;
        default: d = std::numeric_limits<double>::denorm_min(); break;
      }
      return d;
    }
    const std::uint64_t bits = engine_();
    std::memcpy(&d, &bits, 8);
    return d;
  }

  // Sensor-shaped: slow drift with occasional steps and repeats.  Kept
  // within a bounded magnitude so flat-fold oracles stay well within
  // absolute NEAR tolerances.
  [[nodiscard]] double smooth_step(double current) {
    if (current < -1.0e5 || current > 1.0e5) return 9.125;
    if (chance(55)) return current;  // repeated reading (XOR's 1-bit case)
    if (chance(10)) return current * -1.5 + 7.0;
    return current + static_cast<double>(static_cast<std::int64_t>(engine_() % 2001) - 1000) *
                         0.001;
  }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace envmon::proptest

// Defines a gtest TEST whose body runs once per generated case with a
// fresh deterministic Rng.  The body is an ordinary function scope with
// `rng` (envmon::proptest::Rng&) and `prop_case` (std::size_t) bound.
#define ENVMON_PROP(Suite, Name, default_cases)                                           \
  static void Suite##_##Name##_property(envmon::proptest::Rng& rng, std::size_t prop_case); \
  TEST(Suite, Name) {                                                                     \
    const std::size_t cases = envmon::proptest::case_count(default_cases);                \
    for (std::size_t i = 0; i < cases; ++i) {                                             \
      SCOPED_TRACE(::testing::Message() << "replay: ENVMON_PROP_SEED="                    \
                                        << envmon::proptest::base_seed()                  \
                                        << " case=" << i);                                \
      envmon::proptest::Rng rng(envmon::proptest::base_seed(), i);                        \
      Suite##_##Name##_property(rng, i);                                                  \
      if (::testing::Test::HasFatalFailure()) return;                                     \
    }                                                                                     \
  }                                                                                       \
  static void Suite##_##Name##_property([[maybe_unused]] envmon::proptest::Rng& rng,      \
                                        [[maybe_unused]] std::size_t prop_case)
