#pragma once
// Shared plumbing for the envbench workloads: arguments, raw-sample
// percentiles, the in-memory span trace, and the per-workload report
// that main.cpp prints as one JSON line.
//
// Every timing here comes from std::chrono::steady_clock around a call
// into a public envmon layer; percentiles are computed from the
// benchmark's own raw samples (never from obs::Histogram buckets).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "daemon/digest.hpp"

namespace envbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;     // measuring budget of this process
  bool trace = false;       // per-layer run instead of end-to-end
  int setups = 1;           // set-up repetitions behind setup_s
  std::string workdir;      // working directory of this process
};

// Length of one measured slice.
constexpr double kSliceSeconds = 1.0;

// Pacing of the measured phase.  run.py keeps the three workload
// processes alive side by side and grants them slices of about
// kSliceSeconds in turn, one process working at a time, so each
// workload's samples spread over the whole run rather than one stretch
// of it: on a shared host the speed drifts over tens of seconds, and a
// median over the whole run moves less than one over a third of it.
//
// Protocol (one word per line): the workload prints "ready" after its
// set-up, then for every "slice" on stdin it works for one slice and
// prints "done", or "complete" once it has measured all it needs.  The
// next line after "complete" (run.py sends "finish"), or the end of
// stdin, ends the measured phase; the output checks and the trace passes
// run after it.  By hand: `yes slice | envbench ...`.
class Slices {
 public:
  void ready() { say("ready"); }

  // Ends the previous slice, telling whether the workload is complete,
  // and waits for the next one; false once the measured phase is over.
  bool next(bool complete) {
    if (started_) say(complete ? "complete" : "done");
    started_ = true;
    std::string word;
    const bool granted = std::getline(std::cin, word) && word == "slice";
    return granted && !complete;
  }

 private:
  static void say(const char* word) {
    std::printf("%s\n", word);
    std::fflush(stdout);
  }

  bool started_ = false;
};

// Hash of one 64-bit value (one splitmix64 step); seeds every generated
// input from --seed.
inline std::uint64_t mix64(std::uint64_t x) { return envmon::SplitMix64(x).next(); }

// Digests of outputs; f64 values mix in by their bit pattern.
using Digest = envmon::daemon::Fnv1a;
inline void mix_f64(Digest& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  h.mix_u64(bits);
}

// Skewed toward 0 over [0, n): n times the cube of a uniform draw.
inline std::uint64_t skewed(envmon::Rng& rng, std::uint64_t n) {
  const double u = rng.uniform();
  const auto i = static_cast<std::uint64_t>(static_cast<double>(n) * u * u * u);
  return std::min(i, n - 1);
}

// A p99 read from fewer raw samples than this is not reported: the run
// fails its output check instead.
constexpr std::size_t kMinP99Samples = 1000;

// Nearest-rank percentile (p in [0, 1]) over raw samples.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size());
  auto idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  idx = std::clamp<std::size_t>(idx, 1, samples.size());
  return samples[idx - 1];
}

inline double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

// ------------------------------------------------------------- tracing

// Spans recorded by one thread, kept in memory until the process ends.
// A span names the layer call it brackets, its parent span (0 = root)
// and the request it belongs to (an epoch, an operation index, a node).
class SpanLog {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint32_t name = 0;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanLog(std::uint32_t thread) : thread_(thread) { spans_.reserve(1u << 16); }

  void begin(std::string_view name, std::uint64_t request) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : open_.back();
    s.name = intern(name);
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(s.id);
  }
  void end() {
    spans_[open_.back() - 1].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] std::uint32_t thread() const { return thread_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  // Per-name self time in seconds: a span's duration minus the part its
  // direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  std::uint32_t intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::vector<std::string> names_;
};

// RAII span; a null log records nothing (the untraced run).
class Scope {
 public:
  Scope(SpanLog* log, std::string_view name, std::uint64_t request) : log_(log) {
    if (log_ != nullptr) log_->begin(name, request);
  }
  ~Scope() {
    if (log_ != nullptr) log_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

// Sums self time per span name across threads.
std::map<std::string, double> self_seconds(const std::vector<const SpanLog*>& logs);

// Writes every span as JSON lines to `path` (the end-of-process dump).
void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs);

// ------------------------------------------------------------- report

// What one workload process reports.  Metrics print by name with their
// unit; `lines` are human-readable notes printed before the JSON.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> lines;
  // Process peak RSS (VmHWM) as snapshot_rss() read it at the end of the
  // measured phase, before the output checks build their reference
  // stores; main() reports it as peak_rss_mb.  Negative until taken.
  double peak_rss_mb = -1.0;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), {value, std::move(unit)}});
  }
  void note(std::string line) { lines.push_back(std::move(line)); }
  // A correctness mismatch: recorded, printed, and turned into a
  // non-zero exit by main().
  void mismatch(const std::string& what) {
    correct = false;
    lines.push_back("MISMATCH: " + what);
  }
  void snapshot_rss();
};

// Trace accounting shared by the workloads: per-layer self times, their
// sum against the untraced wall of the same work, and the tracing
// overhead (traced wall - untraced wall).
void report_trace(Report& report, const std::string& workload,
                  const std::map<std::string, double>& self, double untraced_wall,
                  double traced_wall);

// The workloads.  Each sets up, calls slices.ready(), measures in the
// slices it is granted, then checks its outputs and fills `report`;
// main() adds the host block and peak RSS.
void run_collect(const Args& args, Slices& slices, Report& report);
void run_ingest(const Args& args, Slices& slices, Report& report);
void run_query(const Args& args, Slices& slices, Report& report);

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace envbench
