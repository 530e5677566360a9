#pragma once
// CSV reading/writing.
//
// MonEQ's on-disk artifact is one CSV file per node (the paper, §III); the
// bench harness also emits its figure series as CSV so they can be plotted
// externally.  Quoting follows RFC 4180: fields containing the delimiter,
// quotes, or newlines are quoted, embedded quotes doubled.
//
// Hot writers (the MonEQ node-file spool, tsdb::export_csv) skip the
// stream and append straight into a std::string with append_fixed and
// append_csv_field; CsvWriter quotes fields by the same rule.

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace envmon {

class CsvWriter {
 public:
  // The writer does not own the stream; it must outlive the writer.
  explicit CsvWriter(std::ostream& os, char delim = ',') : os_(&os), delim_(delim) {}

  void write_row(const std::vector<std::string>& fields);

  // Variadic convenience: accepts strings and arithmetic values.
  template <typename... Ts>
  void row(const Ts&... fields) {
    bool first = true;
    ((write_field(to_field(fields), first), first = false), ...);
    *os_ << '\n';
    ++rows_written_;
  }

  [[nodiscard]] std::size_t rows_written() const { return rows_written_; }

 private:
  static std::string to_field(const std::string& s) { return s; }
  static std::string to_field(std::string_view s) { return std::string(s); }
  static std::string to_field(const char* s) { return s; }
  template <typename T>
  static std::string to_field(const T& v) {
    return std::to_string(v);
  }

  void write_field(std::string_view field, bool first);

  std::ostream* os_;
  char delim_;
  std::size_t rows_written_ = 0;
};

// Appends `v` exactly as printf("%.*f", precision, v) prints it in the C
// locale ("nan", "-inf", "-0.000000" included): std::to_chars in fixed
// notation rounds the exact binary value, as glibc does.  `precision` is
// clamped to [0, 17]; every caller uses 0..6.
void append_fixed(std::string& out, double v, int precision);

// Appends one comma-separated field, quoted by CsvWriter's RFC 4180 rule.
void append_csv_field(std::string& out, std::string_view field);

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

// Parses CSV text (with RFC 4180 quoting).  First row becomes the header
// when `has_header` is true.
[[nodiscard]] Result<CsvTable> parse_csv(std::string_view text, bool has_header = true,
                                         char delim = ',');

}  // namespace envmon
