#include "common/csv.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

namespace envmon {

namespace {

bool needs_quoting(std::string_view field, char delim) {
  for (const char c : field) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

constexpr int kMaxFixedPrecision = 17;
// "-", the 309 integer digits of DBL_MAX, ".", the fraction.
constexpr int kMaxFixedChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + kMaxFixedPrecision;

}  // namespace

void append_fixed(std::string& out, double v, int precision) {
  char buf[kMaxFixedChars];
  // Cannot fail: the buffer holds -DBL_MAX at the largest precision.
  const auto r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed,
                               std::clamp(precision, 0, kMaxFixedPrecision));
  out.append(buf, r.ptr);
}

void append_csv_field(std::string& out, std::string_view field) {
  if (!needs_quoting(field, ',')) {
    out += field;
    return;
  }
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void CsvWriter::write_field(std::string_view field, bool first) {
  if (!first) *os_ << delim_;
  if (needs_quoting(field, delim_)) {
    *os_ << '"';
    for (const char c : field) {
      if (c == '"') *os_ << '"';
      *os_ << c;
    }
    *os_ << '"';
  } else {
    *os_ << field;
  }
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& f : fields) {
    write_field(f, first);
    first = false;
  }
  *os_ << '\n';
  ++rows_written_;
}

Result<CsvTable> parse_csv(std::string_view text, bool has_header, char delim) {
  CsvTable table;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_data = false;

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
  };
  const auto end_row = [&] {
    end_field();
    if (has_header && table.header.empty() && table.rows.empty()) {
      table.header = std::move(row);
    } else {
      table.rows.push_back(std::move(row));
    }
    row.clear();
    row_has_data = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) {
          return Status::invalid_argument("quote appears mid-field at offset " + std::to_string(i));
        }
        in_quotes = true;
        row_has_data = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_has_data || !field.empty() || !row.empty()) end_row();
        break;
      default:
        if (c == delim) {
          end_field();
          row_has_data = true;
        } else {
          field += c;
          row_has_data = true;
        }
    }
  }
  if (in_quotes) {
    return Status::invalid_argument("unterminated quoted field");
  }
  if (row_has_data || !field.empty() || !row.empty()) end_row();
  return table;
}

}  // namespace envmon
