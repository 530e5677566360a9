#include "tsdb/export.hpp"

#include "common/csv.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace envmon::tsdb {

namespace {

// Export/import are cold paths, so re-resolving the counter per call
// (one registry mutex hop) is fine.
void count_rows(const char* name, const char* help, std::size_t n) {
  if (n > 0 && obs::enabled()) {
    obs::default_registry().counter(name, help).inc(static_cast<std::uint64_t>(n));
  }
}

}  // namespace

std::string export_csv(const EnvDatabase& db, const QueryFilter& filter) {
  std::string out = "timestamp_s,location,metric,value\n";
  const std::vector<Record> records = db.query(filter);
  for (const auto& record : records) {
    append_fixed(out, record.timestamp.to_seconds(), 6);
    out += ',';
    append_csv_field(out, record.location.to_string());
    out += ',';
    append_csv_field(out, record.metric);
    out += ',';
    append_fixed(out, record.value, 6);
    out += '\n';
  }
  count_rows("envmon_tsdb_export_rows_total",
             "Records rendered by environmental database CSV exports", records.size());
  return out;
}

Result<std::size_t> import_csv(std::string_view text, EnvDatabase& db) {
  auto table = parse_csv(text);
  if (!table) return table.status();
  const auto& header = table.value().header;
  if (header.size() != 4 || header[0] != "timestamp_s") {
    return Status::invalid_argument("not an environmental database export");
  }
  std::size_t inserted = 0;
  for (const auto& row : table.value().rows) {
    if (row.size() != 4) {
      return Status::invalid_argument("malformed export row");
    }
    double t = 0.0, value = 0.0;
    if (!parse_double(row[0], t) || !parse_double(row[3], value)) {
      return Status::invalid_argument("unparseable numeric field");
    }
    const auto location = parse_location(row[1]);
    if (!location) {
      return Status::invalid_argument("bad location: " + row[1]);
    }
    const Status s =
        db.insert(Record{sim::SimTime::from_seconds(t), *location, row[2], value});
    if (!s.is_ok()) return s;
    ++inserted;
  }
  count_rows("envmon_tsdb_import_rows_total",
             "Records inserted from environmental database CSV imports", inserted);
  return inserted;
}

}  // namespace envmon::tsdb
