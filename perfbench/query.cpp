// Workload `query`: one reader over a durable store built at set-up from
// a seeded stream of 256 BG/Q node boards x 7 power domains.  Set-up
// inserts the stream with insert_batch (sealing every kSealEvery rows per
// series), seals, flushes, closes and reopens it with the resident
// sealed tier bounded to about half the sealed bytes, so the data is
// larger than the store's own cache.
//
// Why: this workload is all read path — decode/fold kernels, pushdown,
// the downsample cache, cold loads and the parallel executor.  Nothing
// is written after set-up; it is the read counterpart of `ingest` on
// the same tsdb layer.
//
// Closed loop, one reader, a seeded mix:
//   40% query      range reads of one midplane (16 boards), one domain;
//   35% downsample over recent-skewed windows of a popular subset of
//                  midplanes — far more distinct keys than the 16-entry
//                  cache, so it both hits and misses;
//   25% aggregate  rack or midplane windows;
//   every 256th op a full-metric scan (one domain, every board) with
//                  query_threads = nproc.
// Every result must equal a reference engine built from the same stream
// with compress_blocks = false, aggregation_pushdown = false and
// query_threads = 1.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "bgq/domains.hpp"
#include "tsdb/database.hpp"

namespace envbench {
namespace {

namespace tsdb = envmon::tsdb;
using envmon::sim::Duration;
using envmon::sim::SimTime;

constexpr int kRacks = 8;               // x 2 midplanes x 16 boards = 256
constexpr int kMidplanes = kRacks * 2;
constexpr int kBoards = kMidplanes * 16;
constexpr std::int64_t kSteps = 256;  // rows per series, one per second
constexpr std::int64_t kSealEvery = 64;
constexpr std::int64_t kStepsPerBatch = 8;
constexpr std::uint64_t kScanEvery = 256;
// Only writes make the store enforce its resident bound, so the reader
// does it every kEvictEvery ops, outside the timed calls, as a
// concurrent writer would: the working set stays twice the cache.
constexpr std::uint64_t kEvictEvery = 32;
// Ops repeated by each pass of the trace run.
constexpr std::size_t kTraceOps = 8192;

std::string metric_name(std::size_t domain) {
  return "bgq_" + std::string(envmon::bgq::to_string(envmon::bgq::kAllDomains[domain])) +
         "_watts";
}

tsdb::Location board_location(int b) { return {b / 32, (b / 16) % 2, b % 16, -1}; }

SimTime step_time(std::int64_t step) { return SimTime::from_ns(step * 1'000'000'000); }

tsdb::DatabaseOptions store_options(std::size_t max_resident) {
  tsdb::DatabaseOptions o;
  o.max_insert_rate_per_second = 0.0;
  o.query_threads = std::max(1u, std::thread::hardware_concurrency());
  o.durability.fsync_policy = tsdb::FsyncPolicy::kOnSeal;
  o.durability.max_resident_sealed_bytes = max_resident;
  return o;
}

tsdb::DatabaseOptions reference_options() {
  tsdb::DatabaseOptions o;
  o.max_insert_rate_per_second = 0.0;
  o.compress_blocks = false;
  o.aggregation_pushdown = false;
  o.query_threads = 1;
  return o;
}

// Feeds the seeded stream into `db`: board power readings per domain,
// a slow wave plus noise, quantized to 10 mW.
void feed(tsdb::EnvDatabase& db, std::uint64_t seed) {
  std::vector<tsdb::Record> rows;
  rows.reserve(static_cast<std::size_t>(kStepsPerBatch) * kBoards * envmon::bgq::kDomainCount);
  std::vector<std::string> names;
  for (std::size_t d = 0; d < envmon::bgq::kDomainCount; ++d) names.push_back(metric_name(d));
  for (std::int64_t step = 0; step < kSteps; step += kStepsPerBatch) {
    rows.clear();
    for (std::int64_t t = step; t < step + kStepsPerBatch; ++t) {
      for (int b = 0; b < kBoards; ++b) {
        for (std::size_t d = 0; d < envmon::bgq::kDomainCount; ++d) {
          const std::uint64_t h = mix64(seed ^ (static_cast<std::uint64_t>(b) * 8 + d));
          const double base = 10.0 + static_cast<double>(h % 5000) / 100.0;
          const double wave =
              4.0 * std::sin(static_cast<double>(t) / 45.0 + static_cast<double>(h >> 44) * 1e-5);
          const double noise =
              static_cast<double>(mix64(h ^ static_cast<std::uint64_t>(t)) % 40) / 100.0;
          rows.push_back({step_time(t), board_location(b), names[d],
                          std::round((base + wave + noise) * 100.0) / 100.0});
        }
      }
    }
    (void)db.insert_batch(rows);
    if ((step + kStepsPerBatch) % kSealEvery == 0) (void)db.seal_blocks(1);
  }
  (void)db.seal_blocks(1);
}

enum class Kind : std::uint8_t { kQuery = 0, kDownsample, kAggregate, kScan };
constexpr std::size_t kKinds = 4;
const char* kKindNames[kKinds] = {"query", "downsample", "aggregate", "scan"};

struct Op {
  Kind kind = Kind::kQuery;
  tsdb::QueryFilter filter;
  std::int64_t width_s = 0;  // downsample bucket width
  std::uint64_t key = 0;     // identity of (kind, filter, width)
};

tsdb::Location midplane_location(int m) { return {m / 2, m % 2, -1, -1}; }

Op make_op(envmon::Rng& rng, std::uint64_t index) {
  Op op;
  auto window = [&](std::int64_t length, std::int64_t end) {
    op.filter.from = step_time(end - length);
    op.filter.to = step_time(end - 1);
  };
  const std::size_t domain = rng.uniform_u64(envmon::bgq::kDomainCount);
  op.filter.metric = metric_name(domain);
  if (index % kScanEvery == kScanEvery - 1) {
    op.kind = Kind::kScan;
  } else if (const std::uint64_t r = rng.uniform_u64(100); r < 40) {
    op.kind = Kind::kQuery;
    op.filter.location_prefix = midplane_location(static_cast<int>(rng.uniform_u64(kMidplanes)));
    const std::int64_t length = 32 << rng.uniform_u64(3);  // 32..128 s
    window(length, length + static_cast<std::int64_t>(rng.uniform_u64(kSteps - length + 1)));
  } else if (r < 75) {
    op.kind = Kind::kDownsample;
    // Popular midplanes first, recent windows first.
    op.filter.location_prefix = midplane_location(static_cast<int>(skewed(rng, kMidplanes)));
    window(64, kSteps - 12 * static_cast<std::int64_t>(skewed(rng, 16)));
    op.width_s = rng.uniform_u64(2) == 0 ? 16 : 60;
  } else {
    op.kind = Kind::kAggregate;
    const int m = static_cast<int>(rng.uniform_u64(kMidplanes));
    op.filter.location_prefix =
        rng.uniform_u64(2) == 0 ? midplane_location(m) : tsdb::Location{m / 2, -1, -1, -1};
    const std::int64_t length = 64 << rng.uniform_u64(3);  // 64..256 s
    window(length, length + static_cast<std::int64_t>(rng.uniform_u64(kSteps - length + 1)));
  }
  Digest k;
  k.mix_u64(static_cast<std::uint64_t>(op.kind));
  k.mix_str(*op.filter.metric);
  k.mix_str(op.filter.location_prefix ? op.filter.location_prefix->to_string() : "");
  k.mix_u64(op.filter.from ? static_cast<std::uint64_t>(op.filter.from->ns()) : 0);
  k.mix_u64(op.filter.to ? static_cast<std::uint64_t>(op.filter.to->ns()) : 0);
  k.mix_u64(static_cast<std::uint64_t>(op.width_s));
  op.key = k.value();
  return op;
}

// Runs `op`, timing only the call into the store; returns the result's
// digest and its row count (records, buckets, or aggregated rows).
std::uint64_t execute(const tsdb::EnvDatabase& db, const Op& op, double* seconds,
                      std::uint64_t* rows, SpanLog* log, std::uint64_t request) {
  Digest h;
  const auto t0 = Clock::now();
  switch (op.kind) {
    case Kind::kQuery:
    case Kind::kScan: {
      std::vector<tsdb::Record> out;
      {
        const Scope s(log, op.kind == Kind::kScan ? "tsdb.scan" : "tsdb.query", request);
        out = db.query(op.filter);
      }
      if (seconds != nullptr) *seconds = seconds_since(t0);
      for (const tsdb::Record& r : out) {
        h.mix_u64(static_cast<std::uint64_t>(r.timestamp.ns()));
        h.mix_u64(static_cast<std::uint64_t>(r.location.rack * 64 + r.location.midplane * 16 +
                                         r.location.board));
        h.mix_str(r.metric);
        mix_f64(h, r.value);
      }
      *rows = out.size();
      break;
    }
    case Kind::kDownsample: {
      std::vector<tsdb::EnvDatabase::Bucket> out;
      {
        const Scope s(log, "tsdb.downsample", request);
        out = db.downsample(op.filter, Duration::seconds(op.width_s));
      }
      if (seconds != nullptr) *seconds = seconds_since(t0);
      for (const auto& b : out) {
        h.mix_u64(static_cast<std::uint64_t>(b.start.ns()));
        mix_f64(h, b.mean);
        h.mix_u64(b.count);
      }
      *rows = out.size();
      break;
    }
    case Kind::kAggregate: {
      tsdb::EnvDatabase::Aggregate a;
      {
        const Scope s(log, "tsdb.aggregate", request);
        a = db.aggregate(op.filter);
      }
      if (seconds != nullptr) *seconds = seconds_since(t0);
      h.mix_u64(a.count);
      mix_f64(h, a.min);
      mix_f64(h, a.max);
      mix_f64(h, a.sum);
      mix_f64(h, a.sum_sq);
      *rows = a.count;
      break;
    }
  }
  return h.value();
}

// Builds the durable store in `dir` and reopens it with the resident
// tier bounded to half its sealed bytes.
std::unique_ptr<tsdb::EnvDatabase> build_store(const std::string& dir, std::uint64_t seed,
                                               std::size_t* bound, Report& report) {
  std::filesystem::remove_all(dir);
  std::size_t sealed = 0;
  {
    tsdb::EnvDatabase db(store_options(0));
    if (auto s = db.open(dir); !s.is_ok()) {
      report.mismatch("query store open: " + s.to_string());
      return nullptr;
    }
    feed(db, seed);
    sealed = db.durable_stats().resident_sealed_bytes;
    if (auto s = db.flush(); !s.is_ok()) report.mismatch("query store flush: " + s.to_string());
    if (auto s = db.close(); !s.is_ok()) report.mismatch("query store close: " + s.to_string());
  }
  *bound = sealed / 2;
  auto db = std::make_unique<tsdb::EnvDatabase>(store_options(*bound));
  if (auto s = db->open(dir); !s.is_ok()) {
    report.mismatch("query store reopen: " + s.to_string());
    return nullptr;
  }
  return db;
}

struct Phase {
  double wall_s = 0.0;
  std::vector<Op> ops;
  std::vector<std::uint64_t> digests;
  std::vector<double> ms[kKinds];
  std::vector<double> all_ms;
  std::vector<double> scan_rates;
  // Store counters accumulated per op kind.
  std::uint64_t rows_returned[kKinds] = {};
  std::uint64_t rows_scanned[kKinds] = {};
  std::uint64_t rows_decoded[kKinds] = {};
  std::uint64_t pushdown_rows[kKinds] = {};
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  tsdb::EnvDatabase::DurableStats durable_before, durable_after;
};

// The closed loop, resumable: each call issues the next ops of the
// seeded sequence until `deadline` passes or `op_limit` ops have been
// issued in all.  Per-op store-counter deltas are read outside the timed
// call.
class Reader {
 public:
  explicit Reader(std::uint64_t seed) : rng_(seed ^ 0x7175657279ull) {}

  void run(tsdb::EnvDatabase& db, std::size_t bound, Clock::time_point deadline,
           std::uint64_t op_limit, SpanLog* log) {
    if (p_.ops.empty()) p_.durable_before = db.durable_stats();
    const auto t0 = Clock::now();
    for (; op_limit > 0 ? next_ < op_limit : Clock::now() < deadline; ++next_) {
      const std::uint64_t i = next_;
      const Scope op_span(log, "bench.query_op", i);
      if (i % kEvictEvery == 0) {
        const Scope s(log, "tsdb.evict", i);
        (void)db.evict_sealed_blocks(bound);
      }
      Op op = make_op(rng_, i);
      const tsdb::EnvDatabase::QueryStats before = db.query_stats();
      double seconds = 0.0;
      std::uint64_t rows = 0;
      p_.digests.push_back(execute(db, op, &seconds, &rows, log, i));
      const tsdb::EnvDatabase::QueryStats& after = db.query_stats();
      const auto k = static_cast<std::size_t>(op.kind);
      p_.ms[k].push_back(seconds * 1e3);
      p_.all_ms.push_back(seconds * 1e3);
      p_.rows_returned[k] += rows;
      p_.rows_scanned[k] += after.rows_scanned - before.rows_scanned;
      p_.rows_decoded[k] += after.rows_decoded - before.rows_decoded;
      p_.pushdown_rows[k] += after.pushdown_rows - before.pushdown_rows;
      p_.cache_hits += after.cache_hits - before.cache_hits;
      p_.cache_misses += after.cache_misses - before.cache_misses;
      if (op.kind == Kind::kScan) p_.scan_rates.push_back(static_cast<double>(rows) / seconds);
      p_.ops.push_back(std::move(op));
    }
    p_.wall_s += seconds_since(t0);
    p_.durable_after = db.durable_stats();
  }

  [[nodiscard]] const Phase& phase() const { return p_; }

 private:
  envmon::Rng rng_;
  std::uint64_t next_ = 0;
  Phase p_;
};

// One pass of exactly `ops` ops from the start of the sequence.
Phase replay(tsdb::EnvDatabase& db, std::size_t bound, std::uint64_t seed, std::uint64_t ops,
             SpanLog* log) {
  Reader reader(seed);
  reader.run(db, bound, Clock::time_point::max(), ops, log);
  return reader.phase();
}

// Compares every op's digest with the reference engine's (memoized per
// distinct op).
void check(const tsdb::EnvDatabase& reference, const Phase& p, Report& report) {
  std::unordered_map<std::uint64_t, std::uint64_t> memo;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    auto [it, fresh] = memo.try_emplace(p.ops[i].key, 0);
    if (fresh) {
      std::uint64_t rows = 0;
      it->second = execute(reference, p.ops[i], nullptr, &rows, nullptr, i);
    }
    if (it->second != p.digests[i] && bad++ == 0) {
      report.mismatch(format("query op %zu (%s) differs from the reference engine", i,
                             kKindNames[static_cast<std::size_t>(p.ops[i].kind)]));
    }
  }
  if (bad > 1) report.mismatch(format("query: %zu ops differ from the reference engine", bad));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void run_query(const Args& args, Slices& slices, Report& report) {
  const std::string dir = "query-store";
  std::vector<double> setup_s;
  std::unique_ptr<tsdb::EnvDatabase> db;
  std::size_t bound = 0;
  for (int i = 0; i < args.setups; ++i) {
    db.reset();
    const auto t0 = Clock::now();
    db = build_store(dir, args.seed, &bound, report);
    if (db == nullptr) return;
    setup_s.push_back(seconds_since(t0));
  }
  // The trace run spends half the budget here; an untraced and a traced
  // pass then repeat the first kTraceOps of the same ops, each on a
  // freshly reopened store, so the two compared passes start equally
  // warm.
  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  Reader reader(args.seed);
  double measured_s = 0.0;
  bool complete = false;
  slices.ready();
  while (slices.next(complete)) {
    const auto t0 = Clock::now();
    reader.run(*db, bound,
               t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(kSliceSeconds)),
               0, nullptr);
    measured_s += seconds_since(t0);
    complete = measured_s >= budget;
  }
  const Phase& run = reader.phase();
  report.snapshot_rss();
  report.attempted += run.ops.size();

  // Output check, outside the timed calls and after the RSS snapshot.
  tsdb::EnvDatabase reference(reference_options());
  feed(reference, args.seed);
  check(reference, run, report);
  if (run.all_ms.size() < kMinP99Samples) {
    report.mismatch(format("query: %zu latency samples, a p99 needs %zu", run.all_ms.size(),
                           kMinP99Samples));
  }

  report.note(format("query: %d boards x %zu domains x %lld s = %zu rows, resident bound %zu B; "
                     "%zu ops in %.3f s (seed %llu)",
                     kBoards, envmon::bgq::kDomainCount, static_cast<long long>(kSteps),
                     reference.size(), bound, run.ops.size(), run.wall_s,
                     static_cast<unsigned long long>(args.seed)));
  if (run.scan_rates.empty()) {
    report.mismatch("query: no scan was measured");
    return;
  }
  report.note(format("query: scan rate median %.1f best %.1f rows/s over %zu scans",
                     median(run.scan_rates),
                     *std::max_element(run.scan_rates.begin(), run.scan_rates.end()),
                     run.scan_rates.size()));
  report.note(format("query: error_ratio 0 (0 failed / %zu reads; results checked against the "
                     "reference engine)",
                     run.ops.size()));
  report.note(format("query: latency samples %zu (p99 needs >= 1000): query %zu, downsample %zu, "
                     "aggregate %zu, scan %zu",
                     run.all_ms.size(), run.ms[0].size(), run.ms[1].size(), run.ms[2].size(),
                     run.ms[3].size()));

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("query_p50_ms", percentile(run.all_ms, 0.50), "ms");
    report.metric("query_p99_ms", percentile(run.all_ms, 0.99), "ms");
    report.metric("scan_rows_per_s", median(run.scan_rates), "rows/s");
    db.reset();
    std::filesystem::remove_all(dir);
    return;
  }

  const std::size_t n = run.ops.size();
  const std::size_t traced_ops = std::min(n, kTraceOps);
  for (std::size_t k = 0; k < 3; ++k) {
    report.metric(std::string("tsdb.") + kKindNames[k] + "_p50_ms", percentile(run.ms[k], 0.50),
                  "ms");
    report.metric(std::string("tsdb.") + kKindNames[k] + "_p99_ms", percentile(run.ms[k], 0.99),
                  "ms");
  }
  const auto q = static_cast<std::size_t>(Kind::kQuery);
  const auto s = static_cast<std::size_t>(Kind::kScan);
  const auto d = static_cast<std::size_t>(Kind::kDownsample);
  const auto a = static_cast<std::size_t>(Kind::kAggregate);
  // Ratios, each with its base: range reads and scans for rows scanned
  // per row returned; downsample + aggregate rows for pushdown.
  report.metric("tsdb.rows_scanned_per_row_returned",
                ratio(static_cast<double>(run.rows_scanned[q] + run.rows_scanned[s]),
                      static_cast<double>(run.rows_returned[q] + run.rows_returned[s])),
                "ratio");
  report.metric("tsdb.pushdown_fraction",
                ratio(static_cast<double>(run.pushdown_rows[d] + run.pushdown_rows[a]),
                      static_cast<double>(run.rows_scanned[d] + run.rows_scanned[a])),
                "ratio");
  report.metric("tsdb.cache_hit_ratio",
                ratio(static_cast<double>(run.cache_hits),
                      static_cast<double>(run.cache_hits + run.cache_misses)),
                "ratio");
  for (const std::size_t k : {q, d, a}) {
    report.metric(std::string("tsdb.rows_decoded.") + kKindNames[k],
                  ratio(static_cast<double>(run.rows_decoded[k]),
                        static_cast<double>(run.ms[k].size())),
                  "rows/op");
  }
  report.metric("tsdb.cold_loads_per_op",
                ratio(static_cast<double>(run.durable_after.cold_loads -
                                          run.durable_before.cold_loads),
                      static_cast<double>(n)),
                "1/op");
  report.metric("tsdb.evicted_blocks",
                ratio(static_cast<double>(run.durable_after.evicted_blocks -
                                          run.durable_before.evicted_blocks),
                      static_cast<double>(n)),
                "1/op");

  SpanLog log(0);
  double untraced_wall = 0.0;
  Phase traced;
  for (SpanLog* pass_log : {static_cast<SpanLog*>(nullptr), &log}) {
    db.reset();
    db = std::make_unique<tsdb::EnvDatabase>(store_options(bound));
    if (auto st = db->open(dir); !st.is_ok()) {
      report.mismatch("query store reopen: " + st.to_string());
      return;
    }
    traced = replay(*db, bound, args.seed, traced_ops, pass_log);
    check(reference, traced, report);
    if (pass_log == nullptr) untraced_wall = traced.wall_s;
  }
  db.reset();
  std::filesystem::remove_all(dir);
  write_spans("spans-query.jsonl", "query", {&log});
  const auto self = log.self_seconds();
  const auto it = self.find("tsdb.scan");
  report.metric("tsdb.scan_s",
                it == self.end() ? 0.0 : it->second / static_cast<double>(traced.ms[s].size()),
                "s");
  report_trace(report, "query", self, untraced_wall, traced.wall_s);
}

}  // namespace envbench
