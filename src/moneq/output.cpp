#include "moneq/output.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>

#include "common/csv.hpp"

namespace envmon::moneq {

Status DiskOutput::write(const std::string& filename, const std::string& content) {
  const std::string path = directory_.empty() ? filename : directory_ + "/" + filename;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::unavailable("cannot open " + path + " for writing");
  }
  out << content;
  if (!out) {
    return Status::internal("short write to " + path);
  }
  return Status::ok();
}

std::string render_node_file(std::span<const Sample> samples,
                             std::span<const TagMarker> tags,
                             std::span<const GapMarker> gaps) {
  std::string out;
  append_node_file_header(out);
  append_sample_rows(out, samples);
  append_marker_rows(out, tags, gaps);
  return out;
}

void append_node_file_header(std::string& out) {
  out += "time_s,domain,quantity,unit,value\n";
}

// Rows are rendered straight into the spool: append_fixed prints the
// bytes "%.6f" would, and names are quoted as CsvWriter quotes them.
void append_sample_rows(std::string& out, std::span<const Sample> samples) {
  for (const auto& s : samples) {
    append_fixed(out, s.t.to_seconds(), 6);
    out += ',';
    append_csv_field(out, s.domain);
    char quantity[4];
    const auto q = std::to_chars(quantity, quantity + sizeof(quantity),
                                 static_cast<int>(s.quantity));
    out += ',';
    out.append(quantity, q.ptr);
    out += ',';
    append_csv_field(out, unit_string(s.quantity));
    out += ',';
    append_fixed(out, s.value, 6);
    out += '\n';
  }
}

void append_marker_rows(std::string& out, std::span<const TagMarker> tags,
                        std::span<const GapMarker> gaps) {
  // Tag markers are appended post-run ("the injection happens after the
  // program has completed").
  for (const auto& tag : tags) {
    append_fixed(out, tag.t.to_seconds(), 6);
    out += ',';
    append_csv_field(out, tag.name);
    out += tag.is_start ? ",#TAG_START,,\n" : ",#TAG_END,,\n";
  }
  // Gap markers follow the tags, same sentinel scheme.
  for (const auto& gap : gaps) {
    append_fixed(out, gap.t.to_seconds(), 6);
    out += ',';
    append_csv_field(out, gap.backend);
    if (gap.is_start) {
      out += ",#GAP_START,,";
      append_csv_field(out, gap.reason);
      out += '\n';
    } else {
      out += ",#GAP_END,,\n";
    }
  }
}

std::string node_file_name(int rank) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "moneq_node_%05d.csv", rank);
  return buf;
}

tsdb::Location node_location(int rank) {
  const int card = rank % 32;
  const int board = (rank / 32) % 16;
  const int midplane = (rank / (32 * 16)) % 2;
  const int rack = rank / (32 * 16 * 2);
  return tsdb::card_location(rack, midplane, board, card);
}

tsdb::EnvDatabase::BatchResult store_node_samples(tsdb::EnvDatabase& db, int rank,
                                                  std::span<const Sample> samples) {
  const tsdb::Location loc = node_location(rank);
  std::vector<tsdb::Record> batch;
  batch.reserve(samples.size());
  for (const Sample& s : samples) {
    batch.push_back({s.t, loc, "moneq_" + s.domain, s.value});
  }
  return db.insert_batch(batch);
}

}  // namespace envmon::moneq
