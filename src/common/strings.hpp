#pragma once
// Small string utilities shared by the CSV layer, the MICRAS pseudo-file
// parser, and the table renderers.

#include <string>
#include <string_view>
#include <vector>

namespace envmon {

[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);
[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

// join({"a","b"}, ",") -> "a,b"
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

// Fixed-precision double formatting ("%.3f"-style) without locale surprises
// or a length limit: the bytes append_fixed (common/csv.hpp) appends.
[[nodiscard]] std::string format_double(double v, int precision);

// Parse helpers returning false on malformed input instead of throwing.
[[nodiscard]] bool parse_double(std::string_view s, double& out);
[[nodiscard]] bool parse_u64(std::string_view s, unsigned long long& out);

}  // namespace envmon
