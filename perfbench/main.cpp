// envbench: runs one workload of the repository benchmark in this
// process and prints its metrics as the last line of stdout (one JSON
// object).  run.py builds this binary, runs every workload in its own
// process and merges their lines; see README.md for the workloads.
//
//   envbench --workload collect|ingest|query --seed N --seconds S
//            --trace 0|1 --setups K --workdir DIR
//
// The measured phase runs in slices granted over stdin (bench.hpp,
// class Slices).
//
// Exit status: 0 when every output check passed, 1 on a mismatch or a
// failed layer call, 2 on bad arguments.

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/meminfo.hpp"
#include "tsdb/simd.hpp"

namespace envbench {

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

void Report::snapshot_rss() {
  peak_rss_mb = static_cast<double>(envmon::common::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[names_[s.name]] += static_cast<double>(s.end_ns - s.start_ns - child_ns[s.id]) * 1e-9;
  }
  return out;
}

std::map<std::string, double> self_seconds(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, double> out;
  for (const SpanLog* log : logs) {
    for (const auto& [name, s] : log->self_seconds()) out[name] += s;
  }
  return out;
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& s : log->spans()) {
      out << "{\"workload\":\"" << workload << "\",\"thread\":" << log->thread()
          << ",\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
          << log->names()[s.name] << "\",\"request\":" << s.request
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

// The traced run's self times should account for the untraced wall of
// the same work within this share.  The check is advisory: it is printed
// but does not fail the run, because the untraced and traced passes run
// one after the other, and on a shared 4-core host their walls alone
// differ by up to ~14% (README.md, "Tracing").
constexpr double kTraceTolerance = 0.15;

void report_trace(Report& report, const std::string& workload,
                  const std::map<std::string, double>& self, double untraced_wall,
                  double traced_wall) {
  double layers = 0.0;
  for (const auto& [name, s] : self) {
    report.note(format("  self %-28s %10.6f s", name.c_str(), s));
    layers += s;
  }
  const double coverage = untraced_wall > 0.0 ? layers / untraced_wall : 0.0;
  report.note(format("trace %s: self-time sum %.4f s vs untraced wall %.4f s (%.3f, %s +/-%.0f%%) "
                     "and traced wall %.4f s (%.3f); tracing overhead %.4f s",
                     workload.c_str(), layers, untraced_wall, coverage,
                     std::abs(coverage - 1.0) <= kTraceTolerance ? "within" : "outside, advisory",
                     kTraceTolerance * 100.0, traced_wall,
                     traced_wall > 0.0 ? layers / traced_wall : 0.0, traced_wall - untraced_wall));
  report.metric("trace." + workload + ".self_over_wall", coverage, "ratio");
  report.metric("trace." + workload + ".overhead_s", traced_wall - untraced_wall, "s");
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: envbench --workload collect|ingest|query --seed N --seconds S "
               "--trace 0|1 --setups K --workdir DIR\n");
  return 2;
}

}  // namespace
}  // namespace envbench

int main(int argc, char** argv) {
  using namespace envbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value);
    else if (key == "--trace") args.trace = std::atoi(value) != 0;
    else if (key == "--setups") args.setups = std::atoi(value);
    else if (key == "--workdir") args.workdir = value;
    else return usage();
  }
  if (argc % 2 != 1 || args.workdir.empty() || args.seconds <= 0.0 || args.setups < 1) {
    return usage();
  }
  // Everything a workload writes (stores, sockets, span dumps) lives in
  // its working directory, named relative to it.
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (!ec) std::filesystem::current_path(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "envbench: cannot create %s\n", args.workdir.c_str());
    return 2;
  }

  Report report;
  Slices slices;
  if (args.workload == "collect") run_collect(args, slices, report);
  else if (args.workload == "ingest") run_ingest(args, slices, report);
  else if (args.workload == "query") run_query(args, slices, report);
  else return usage();

  if (!args.trace) {
    if (report.peak_rss_mb < 0.0) report.mismatch("peak RSS was never taken");
    report.metric("peak_rss_mb", report.peak_rss_mb, "MB");
  }
  const char* simd_env = std::getenv("ENVMON_SIMD");
  const std::string simd_json =
      simd_env != nullptr ? "\"" + json_escape(simd_env) + "\"" : std::string("null");
  const std::string host = format(
      "{\"nproc\":%u,\"cpu\":\"%s\",\"simd\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"ENVMON_SIMD\":%s}",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      envmon::tsdb::simd::variant_name(envmon::tsdb::simd::dispatched_variant()),
      ENVBENCH_COMPILER, ENVBENCH_BUILD_TYPE,
      simd_json.c_str());

  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::string metrics;
  for (const auto& [name, vu] : report.metrics) {
    if (!metrics.empty()) metrics += ",";
    metrics += format("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", name.c_str(), vu.first,
                      vu.second.c_str());
  }
  std::printf("{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"host\":%s,\"metrics\":{%s}}\n",
              args.workload.c_str(), report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), host.c_str(), metrics.c_str());
  return report.correct ? 0 : 1;
}
