// The MonEQ node file's exact bytes, and the number formatting under it
// (ctest label `prop`).
//
//  * golden node file — samples, tags and gaps rendered through
//    moneq::render_node_file match a checked-in file byte for byte: the
//    "%.6f" round-half-even tie, -0.0, NaN, ±inf, and names and reasons
//    that need RFC 4180 quoting;
//  * append_fixed — std::to_chars in fixed notation prints exactly what
//    printf("%.*f") prints, at every precision the node files, the tsdb
//    export and the bench tables use most, over random bit patterns,
//    exact decimal ties and the special values.
//
// Case counts scale with ENVMON_PROP_CASES (proptest.hpp); ci/check.sh
// raises them and re-runs the label under ASan/UBSan and TSan, since
// append_fixed formats into a fixed stack buffer.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "moneq/output.hpp"
#include "proptest.hpp"
#include "sim/time.hpp"

namespace envmon {
namespace {

using moneq::GapMarker;
using moneq::Quantity;
using moneq::Sample;
using moneq::TagMarker;
using sim::SimTime;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(NodeFileGolden, SamplesTagsAndGapsRenderExactly) {
  const std::vector<Sample> samples = {
      {SimTime::from_seconds(0.5), "chip_core", Quantity::kPowerWatts, 0.0078125},
      {SimTime::from_seconds(1.0), "PKG", Quantity::kEnergyJoules, -0.0},
      {SimTime::from_seconds(1.5), "dram,\"ch0\"", Quantity::kTemperatureCelsius, kNaN},
      {SimTime::from_seconds(2.0), "gpu0", Quantity::kClockMhz, kInf},
      {SimTime::from_seconds(2.5), "gpu0", Quantity::kFanPercent, -kInf},
      {SimTime::from_seconds(3.0), "board", Quantity::kVoltageVolts, 208.25},
  };
  const std::vector<TagMarker> tags = {
      {SimTime::from_seconds(0.25), "solve", true},
      {SimTime::from_seconds(2.25), "solve", false},
  };
  const std::vector<GapMarker> gaps = {
      {SimTime::from_seconds(1.25), "nvml", true, "timeout, retrying"},
      {SimTime::from_seconds(1.75), "nvml", false, ""},
  };
  const std::string expected =
      "time_s,domain,quantity,unit,value\n"
      "0.500000,chip_core,0,W,0.007812\n"
      "1.000000,PKG,1,J,-0.000000\n"
      "1.500000,\"dram,\"\"ch0\"\"\",4,C,nan\n"
      "2.000000,gpu0,8,MHz,inf\n"
      "2.500000,gpu0,7,%,-inf\n"
      "3.000000,board,2,V,208.250000\n"
      "0.250000,solve,#TAG_START,,\n"
      "2.250000,solve,#TAG_END,,\n"
      "1.250000,nvml,#GAP_START,,\"timeout, retrying\"\n"
      "1.750000,nvml,#GAP_END,,\n";
  EXPECT_EQ(moneq::render_node_file(samples, tags, gaps), expected);

  // The streaming pieces the fleet spool uses build the same file.
  std::string spooled;
  moneq::append_node_file_header(spooled);
  moneq::append_sample_rows(spooled, std::span(samples).first(2));
  moneq::append_sample_rows(spooled, std::span(samples).subspan(2));
  moneq::append_marker_rows(spooled, tags, gaps);
  EXPECT_EQ(spooled, expected);
}

std::string printf_fixed(double v, int precision) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// One value for the property: random bit patterns below 1e50 in
// magnitude, exact ties at `precision` (odd multiples of 2^-(p+1) are
// the only doubles whose decimal expansion ends in a 5 right after the
// last printed digit), values of sensor magnitude, and the specials.
double draw(proptest::Rng& rng, int precision) {
  switch (rng.index(4)) {
    case 0: {
      const double v = rng.any_double();
      return std::isfinite(v) && std::fabs(v) >= 1e50 ? std::ldexp(v, -std::ilogb(v)) : v;
    }
    case 1: {
      const auto odd = static_cast<double>(2 * rng.range(0, 1u << 20) + 1);
      const double tie = std::ldexp(odd, -(precision + 1));
      return rng.chance(50) ? tie : -tie;
    }
    case 2: {
      const auto mantissa = static_cast<double>(rng.u64() >> 11);
      return std::ldexp(mantissa, static_cast<int>(rng.range(0, 100)) - 80);
    }
    default: {
      constexpr double kSpecial[] = {0.0, -0.0, kNaN, -kNaN, kInf, -kInf, 0.0078125,
                                     std::numeric_limits<double>::denorm_min(),
                                     std::numeric_limits<double>::max()};
      return kSpecial[rng.index(std::size(kSpecial))];
    }
  }
}

ENVMON_PROP(PropFixed, AppendFixedMatchesPrintf, 200) {
  for (const int precision : {1, 2, 6}) {
    for (int i = 0; i < 64; ++i) {
      const double v = draw(rng, precision);
      std::string got = "x";  // appends, never overwrites
      append_fixed(got, v, precision);
      // Prefix and text compared apart: GCC 12's -Werror=restrict
      // misfires at -O3 on `"x" + std::string`.
      ASSERT_EQ(got[0], 'x');
      ASSERT_EQ(got.substr(1), printf_fixed(v, precision))
          << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v) << std::dec
          << " precision " << precision;
    }
  }
}

}  // namespace
}  // namespace envmon
