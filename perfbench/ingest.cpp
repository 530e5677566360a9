// Workload `ingest`: two daemon::Client sessions over a Unix socket into
// an in-process daemon::Server on a durable store (open(dir), fsync on
// seal, no tenant throttle).  Rows are fleet-shaped — 64 node boards x
// the 7 BG/Q domains per client, one row per series per epoch, all
// stamped with the epoch time — and travel as v2 with dictionary sync.
//
// Why: this workload is all write path — protocol framing, session, the
// single-writer pump, insert_batch, seal/encode, WAL and segments.  No
// simulation runs and nothing is read.
//
// Closed loop: each client sends one epoch batch, drains its reply and
// waits at an epoch barrier before the next epoch.  The store keeps a
// global timestamp watermark; the barrier keeps both clients in the
// same epoch, so no batch ever lands behind it and rejects stay at 0.
// Batch latency runs from the start of send_batch to the return of
// drain.  The daemon's store must equal an in-process insert_batch of
// the same rows, client by client.
//
// Fixed work: per-batch cost grows with the epochs a store has taken
// (unsealed heads grow, then the WAL checkpoint storm starts near epoch
// 780; README.md), so every session runs exactly kEpochs epochs into a
// fresh store, and the run measures a fixed number of whole sessions
// (one per kSessionSeconds of its budget).  A faster program then
// measures the same work, not more of it.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "bgq/domains.hpp"
#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "obs/metrics.hpp"
#include "tsdb/database.hpp"

namespace envbench {
namespace {

namespace daemon = envmon::daemon;
namespace tsdb = envmon::tsdb;
using envmon::sim::SimTime;

constexpr std::size_t kClients = 2;
constexpr int kBoardsPerClient = 64;
constexpr std::size_t kRowsPerBatch = kBoardsPerClient * envmon::bgq::kDomainCount;
// Epochs per session: past the checkpoint-storm onset, so the p99 sits
// in the storm and both figures cover it.
constexpr std::uint64_t kEpochs = 800;
// A batch slower than this is counted as part of the storm (the notes
// print how many there were and where the first was).
constexpr double kStormBatchMs = 50.0;
// Budget seconds per session: --seconds / kSessionSeconds sessions run
// (about 6 s each on a 4-core host).
constexpr double kSessionSeconds = 6.0;

tsdb::DatabaseOptions store_options() {
  tsdb::DatabaseOptions o;
  o.max_insert_rate_per_second = 0.0;
  o.durability.fsync_policy = tsdb::FsyncPolicy::kOnSeal;
  return o;
}

// One client's epoch batch.  Locations and metric names are fixed per
// client (client c owns racks 2c and 2c+1); fill() stamps the epoch and
// the seeded board power readings, quantized to 10 mW like EMON's.
class BatchSource {
 public:
  BatchSource(std::uint64_t seed, std::size_t client) : seed_(mix64(seed ^ (client + 1))) {
    rows_.reserve(kRowsPerBatch);
    for (int b = 0; b < kBoardsPerClient; ++b) {
      const tsdb::Location loc{static_cast<int>(2 * client) + b / 32, (b / 16) % 2, b % 16, -1};
      for (const auto domain : envmon::bgq::kAllDomains) {
        rows_.push_back({SimTime::zero(), loc,
                         "bgq_" + std::string(envmon::bgq::to_string(domain)) + "_watts", 0.0});
      }
    }
  }

  const std::vector<tsdb::Record>& fill(std::uint64_t epoch) {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      tsdb::Record& r = rows_[i];
      r.timestamp = SimTime::from_ns(static_cast<std::int64_t>(epoch) * 1'000'000'000);
      const std::uint64_t h = mix64(seed_ + i);
      const double base = 20.0 + static_cast<double>(h % 4000) / 100.0;
      const double wave = 5.0 * std::sin(static_cast<double>(epoch) / 30.0 +
                                         static_cast<double>(h >> 40) * 1e-6);
      const double noise = static_cast<double>(mix64(h ^ epoch) % 50) / 100.0;
      r.value = std::round((base + wave + noise) * 100.0) / 100.0;
    }
    return rows_;
  }

 private:
  std::uint64_t seed_;
  std::vector<tsdb::Record> rows_;
};

// A store, a server on it, and connected clients.
struct Rig {
  std::unique_ptr<tsdb::EnvDatabase> db;
  std::unique_ptr<daemon::Server> server;
  std::vector<std::unique_ptr<daemon::Client>> clients;

  ~Rig() { (void)close(); }
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  envmon::Status open(const std::string& dir) {
    std::filesystem::remove_all(dir);
    db = std::make_unique<tsdb::EnvDatabase>(store_options());
    if (auto s = db->open(dir); !s.is_ok()) return s;
    daemon::ServerOptions sopt;
    sopt.socket_path = dir + ".sock";
    std::filesystem::remove(sopt.socket_path);
    server = std::make_unique<daemon::Server>(*db, sopt);
    if (auto s = server->start(); !s.is_ok()) return s;
    for (std::size_t c = 0; c < kClients; ++c) {
      daemon::Client::Options copt;
      copt.socket_path = sopt.socket_path;
      copt.tenant = "bench";
      clients.push_back(std::make_unique<daemon::Client>(copt));
      if (auto s = clients.back()->connect(); !s.is_ok()) return s;
    }
    return envmon::Status::ok();
  }

  // Goodbye on every session, then the server's stop, which drains the
  // pump and flushes the durable store.  The store stays open.
  envmon::Status stop() {
    envmon::Status status;
    for (auto& c : clients) {
      if (c->connected()) {
        if (auto s = c->close(); !s.is_ok() && status.is_ok()) status = s;
      }
    }
    clients.clear();
    if (server != nullptr) server->stop();
    return status;
  }

  envmon::Status close() {
    envmon::Status status = stop();
    server.reset();
    if (db != nullptr && db->durable()) {
      if (auto s = db->close(); !s.is_ok() && status.is_ok()) status = s;
    }
    db.reset();
    return status;
  }
};

struct LoopResult {
  bool ok = true;
  std::string error;
  double wall_s = 0.0;  // summed over the slices the loop ran in
  std::vector<std::vector<double>> client_ms = std::vector<std::vector<double>>(kClients);

  // Client 0's batch samples in epoch order, then client 1's.
  [[nodiscard]] std::vector<double> batch_ms() const {
    std::vector<double> out;
    for (const auto& ms : client_ms) out.insert(out.end(), ms.begin(), ms.end());
    return out;
  }
};

// Drives the closed loop from epoch `first` until kEpochs epochs are
// done, `deadline` has passed at an epoch barrier, or a call fails; adds
// the samples and wall time to `out` and returns the next epoch.  `logs`
// (one per client) records spans in the traced run.
std::uint64_t drive(Rig& rig, std::uint64_t seed, std::uint64_t first, Clock::time_point deadline,
                    const std::vector<SpanLog*>& logs, LoopResult& out) {
  std::vector<std::string> errors(kClients);
  std::atomic<bool> stop{false};
  std::uint64_t next = first;
  std::barrier sync(static_cast<std::ptrdiff_t>(kClients), [&]() noexcept {
    ++next;
    const bool failed = std::any_of(errors.begin(), errors.end(),
                                    [](const std::string& e) { return !e.empty(); });
    if (failed || next >= kEpochs || Clock::now() >= deadline) {
      stop.store(true, std::memory_order_relaxed);
    }
  });
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      BatchSource source(seed, c);
      daemon::Client& client = *rig.clients[c];
      SpanLog* log = logs.empty() ? nullptr : logs[c];
      std::vector<double>& samples = out.client_ms[c];
      samples.reserve(kEpochs);
      for (std::uint64_t e = first;; ++e) {
        {
          const Scope epoch_span(log, "bench.ingest_epoch", e);
          const auto& rows = source.fill(e);
          const auto b0 = Clock::now();
          envmon::Status s;
          {
            const Scope span(log, "daemon.send", e);
            s = client.send_batch(rows);
          }
          if (s.is_ok()) {
            const Scope span(log, "daemon.reply_wait", e);
            s = client.drain();
          }
          samples.push_back(seconds_since(b0) * 1e3);
          if (!s.is_ok() && errors[c].empty()) errors[c] = s.to_string();
          const Scope span(log, "bench.barrier_wait", e);
          sync.arrive_and_wait();
        }
        if (stop.load(std::memory_order_relaxed)) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s += seconds_since(t0);
  for (const std::string& e : errors) {
    if (!e.empty()) {
      out.ok = false;
      out.error = e;
    }
  }
  return next;
}

// Digest of every row one client owns, read back in bounded windows.
std::uint64_t client_digest(const tsdb::EnvDatabase& db, std::size_t client,
                            std::uint64_t epochs, std::uint64_t* rows) {
  Digest h;
  constexpr std::uint64_t kWindow = 256;
  for (int rack = static_cast<int>(2 * client); rack < static_cast<int>(2 * client + 2); ++rack) {
    for (std::uint64_t e0 = 0; e0 < epochs; e0 += kWindow) {
      tsdb::QueryFilter f;
      f.location_prefix = tsdb::Location{rack, -1, -1, -1};
      f.from = SimTime::from_ns(static_cast<std::int64_t>(e0) * 1'000'000'000);
      f.to = SimTime::from_ns(static_cast<std::int64_t>(std::min(e0 + kWindow, epochs)) *
                                  1'000'000'000 -
                              1);
      for (const tsdb::Record& r : db.query(f)) {
        h.mix_u64(static_cast<std::uint64_t>(r.timestamp.ns()));
        h.mix_u64(static_cast<std::uint64_t>(r.location.board + 16 * r.location.midplane));
        h.mix_str(r.metric);
        mix_f64(h, r.value);
        ++*rows;
      }
    }
  }
  return h.value();
}

// One store lifetime: set-up, the closed loop (possibly over several
// slices), a clean shutdown.  The store directory stays for the output
// check.
struct Session {
  std::string dir;
  double setup_s = 0.0;
  std::unique_ptr<Rig> rig;
  std::uint64_t next_epoch = 0;
  bool closed = false;
  LoopResult run;
  daemon::Server::Stats server;
  tsdb::EnvDatabase::DurableStats durable;
  std::uint64_t sent = 0;
  std::uint64_t rejected = 0;
  std::uint64_t wal_before = 0;
  std::uint64_t wal_written = 0;
  std::uint64_t footprint = 0;
};

// WAL bytes written come from the process-wide counter, which keeps
// counting across WAL rotations; only one store writes at a time.
envmon::obs::Counter& wal_bytes() {
  return envmon::obs::default_registry().counter(
      "envmon_tsdb_wal_bytes_total", "Bytes appended to the write-ahead log (frames and checkpoints)");
}

void open_session(Session& s, const std::string& dir) {
  s.dir = dir;
  s.wal_before = wal_bytes().value();
  s.rig = std::make_unique<Rig>();
  const auto t0 = Clock::now();
  if (auto st = s.rig->open(dir); !st.is_ok()) {
    s.run.ok = false;
    s.run.error = "setup: " + st.to_string();
    return;
  }
  s.setup_s = seconds_since(t0);
}

void close_session(Session& s) {
  Rig& rig = *s.rig;
  s.server = rig.server->stats();
  for (const auto& c : rig.clients) {
    s.sent += c->totals().rows_sent;
    s.rejected += c->totals().rows_rejected;
  }
  // Disk figures are read with every accepted row sealed, so they do not
  // depend on where the run stopped in a block's fill cycle (a series
  // seals every 4096 rows, longer than a session).  The footprint is the
  // store directory after a clean close: segments plus checkpoint WAL.
  const envmon::Status stopped = rig.stop();
  (void)rig.db->seal_blocks(1);
  const envmon::Status flushed = rig.db->flush();
  s.durable = rig.db->durable_stats();
  s.wal_written = wal_bytes().value() - s.wal_before;
  const envmon::Status closed = rig.close();
  s.rig.reset();
  s.closed = true;
  for (const auto& entry : std::filesystem::directory_iterator(s.dir)) {
    if (entry.is_regular_file()) s.footprint += entry.file_size();
  }
  for (const envmon::Status& st : {stopped, flushed, closed}) {
    if (!st.is_ok()) {
      s.run.ok = false;
      s.run.error = st.to_string();
    }
  }
}

// A whole session in one go (the trace run's traced pass).
Session run_session(const std::string& dir, std::uint64_t seed,
                    const std::vector<SpanLog*>& logs) {
  Session s;
  open_session(s, dir);
  if (!s.run.ok) return s;
  s.next_epoch = drive(*s.rig, seed, 0, Clock::time_point::max(), logs, s.run);
  if (s.run.ok) close_session(s);
  return s;
}

}  // namespace

void run_ingest(const Args& args, Slices& slices, Report& report) {
  // Set-up repetitions before the measured sessions: store open, server
  // start, both sessions handshaken, then torn down again.
  std::vector<double> setup_s;
  for (int i = 1; i < args.setups; ++i) {
    Rig rig;
    const auto t0 = Clock::now();
    if (auto s = rig.open("ingest-setup"); !s.is_ok()) {
      report.mismatch("ingest setup: " + s.to_string());
      return;
    }
    setup_s.push_back(seconds_since(t0));
    (void)rig.close();
    std::filesystem::remove_all("ingest-setup");
  }
  // Whole sessions, one per kSessionSeconds of the budget and one at
  // least (exactly one in the trace run, where it is also the untraced
  // pass).  A session runs on across slices; the next one opens as soon
  // as it closes.
  const std::size_t target =
      args.trace ? 1 : static_cast<std::size_t>(std::max(1.0, std::round(args.seconds / kSessionSeconds)));
  std::vector<Session> sessions;
  bool complete = false;
  slices.ready();
  while (slices.next(complete)) {
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(kSliceSeconds));
    do {
      if (sessions.empty() || sessions.back().closed) {
        sessions.emplace_back();
        open_session(sessions.back(), format("ingest-store-%zu", sessions.size() - 1));
        setup_s.push_back(sessions.back().setup_s);
      }
      Session& s = sessions.back();
      if (s.run.ok) s.next_epoch = drive(*s.rig, args.seed, s.next_epoch, deadline, {}, s.run);
      if (s.run.ok && s.next_epoch >= kEpochs) close_session(s);
      if (!s.run.ok) {
        report.mismatch("ingest session: " + s.run.error);
        return;
      }
      // Peak RSS of one session, as for one fleet run in collect.
      if (s.closed && sessions.size() == 1) report.snapshot_rss();
      complete = s.closed && sessions.size() >= target;
    } while (!complete && Clock::now() < deadline);
  }
  if (!complete) {
    report.mismatch(format("ingest: the measured phase ended before %zu sessions closed", target));
    return;
  }
  std::vector<double> batch_ms;
  std::vector<double> disk;
  double accepted = 0.0;
  double loop_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t rejected = 0;
  for (const Session& run : sessions) {
    const double rows = static_cast<double>(run.server.rows_accepted);
    const std::vector<double> ms = run.run.batch_ms();
    batch_ms.insert(batch_ms.end(), ms.begin(), ms.end());
    accepted += rows;
    loop_s += run.run.wall_s;
    disk.push_back(static_cast<double>(run.footprint) / rows);
    sent += run.sent;
    rejected += run.rejected;
  }
  report.attempted += sent;
  report.failed += rejected;

  // Reference: the same rows, epoch by epoch and client by client, into
  // an in-process store.  The trace run makes it a durable store and
  // traces it, timing encode/decode of every batch, insert_batch and the
  // seal/flush/reopen cycle; otherwise it is in memory, which is all the
  // output check needs.
  SpanLog replay_log(kClients);
  SpanLog* rlog = args.trace ? &replay_log : nullptr;
  const std::string ref_dir = "ingest-reference";
  std::filesystem::remove_all(ref_dir);
  auto ref = std::make_unique<tsdb::EnvDatabase>(store_options());
  if (args.trace) {
    if (auto s = ref->open(ref_dir); !s.is_ok()) {
      report.mismatch("reference open: " + s.to_string());
      return;
    }
  }
  {
    std::vector<BatchSource> sources;
    for (std::size_t c = 0; c < kClients; ++c) sources.emplace_back(args.seed, c);
    std::vector<std::string> dictionary;
    std::vector<std::uint32_t> ids;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      for (std::size_t c = 0; c < kClients; ++c) {
        const auto& rows = sources[c].fill(e);
        if (rlog != nullptr) {
          if (dictionary.empty()) {
            for (std::size_t i = 0; i < envmon::bgq::kDomainCount; ++i) {
              dictionary.push_back(rows[i].metric);
            }
            for (std::size_t i = 0; i < rows.size(); ++i) {
              ids.push_back(static_cast<std::uint32_t>(i % envmon::bgq::kDomainCount));
            }
          }
          std::vector<std::uint8_t> payload;
          {
            const Scope s(rlog, "daemon.encode_batch", e);
            payload = daemon::encode_insert_batch(e + 1, rows, true, ids);
          }
          const Scope s(rlog, "daemon.decode_batch", e);
          const auto decoded = daemon::decode_insert_batch(payload, true, dictionary);
          if (!decoded || decoded->records.size() != rows.size()) {
            report.mismatch("decode_insert_batch did not round-trip an encoded batch");
          }
        }
        const Scope s(rlog, "tsdb.insert_batch", e);
        (void)ref->insert_batch(rows);
      }
    }
  }
  if (rlog != nullptr) {
    {
      const Scope s(rlog, "tsdb.seal", 0);
      (void)ref->seal_blocks(1);
    }
    {
      const Scope s(rlog, "tsdb.flush", 0);
      if (auto st = ref->flush(); !st.is_ok()) report.mismatch("flush: " + st.to_string());
    }
    const Scope s(rlog, "tsdb.reopen", 0);
    if (auto st = ref->close(); !st.is_ok()) report.mismatch("close: " + st.to_string());
    ref = std::make_unique<tsdb::EnvDatabase>(store_options());
    if (auto st = ref->open(ref_dir); !st.is_ok()) report.mismatch("reopen: " + st.to_string());
  }

  // Output check, outside every timed region: each client's rows read
  // back from every session's daemon store equal the in-process
  // reference.
  std::vector<std::uint64_t> want(kClients);
  std::vector<std::uint64_t> want_rows(kClients);
  for (std::size_t c = 0; c < kClients; ++c) want[c] = client_digest(*ref, c, kEpochs, &want_rows[c]);
  for (const Session& run : sessions) {
    tsdb::EnvDatabase daemon_store(store_options());
    if (auto s = daemon_store.open(run.dir); !s.is_ok()) {
      report.mismatch("daemon store reopen: " + s.to_string());
      return;
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      std::uint64_t live_rows = 0;
      const std::uint64_t live = client_digest(daemon_store, c, kEpochs, &live_rows);
      if (live != want[c] || live_rows != want_rows[c] || live_rows != kEpochs * kRowsPerBatch) {
        report.mismatch(format("ingest %s client %zu: daemon store differs from in-process "
                               "insert_batch (%llu vs %llu rows)",
                               run.dir.c_str(), c, static_cast<unsigned long long>(live_rows),
                               static_cast<unsigned long long>(want_rows[c])));
      }
    }
  }
  ref.reset();
  std::filesystem::remove_all(ref_dir);
  for (const Session& run : sessions) std::filesystem::remove_all(run.dir);

  if (batch_ms.size() < kMinP99Samples) {
    report.mismatch(format("ingest: %zu batch samples, a p99 needs %zu", batch_ms.size(),
                           kMinP99Samples));
  }
  const Session& first = sessions.front();
  std::size_t storm = 0;
  std::uint64_t storm_epoch = kEpochs;
  const std::vector<double> first_ms = first.run.batch_ms();
  for (std::size_t i = 0; i < first_ms.size(); ++i) {
    if (first_ms[i] <= kStormBatchMs) continue;
    ++storm;
    storm_epoch = std::min<std::uint64_t>(storm_epoch, i % kEpochs);
  }
  // Client 0's batch time before and from the first storm batch.
  double before_storm_s = 0.0;
  double from_storm_s = 0.0;
  for (std::size_t e = 0; e < kEpochs && e < first_ms.size(); ++e) {
    (e < storm_epoch ? before_storm_s : from_storm_s) += first_ms[e] / 1e3;
  }
  report.note(format("ingest: %zu clients x %zu rows/batch x %llu epochs per session, %zu "
                     "sessions, first in %.3f s (seed %llu)",
                     kClients, kRowsPerBatch, static_cast<unsigned long long>(kEpochs),
                     sessions.size(), first.run.wall_s,
                     static_cast<unsigned long long>(args.seed)));
  report.note(format("ingest: first session: %zu batches over %.0f ms, the first at epoch %llu; "
                     "client 0 spent %.3f s in batches before it and %.3f s from it on",
                     storm, kStormBatchMs, static_cast<unsigned long long>(storm_epoch),
                     before_storm_s, from_storm_s));
  report.note(format("ingest: error_ratio %.6g (%llu rejected / %llu rows sent)",
                     sent > 0 ? static_cast<double>(rejected) / static_cast<double>(sent) : 0.0,
                     static_cast<unsigned long long>(rejected),
                     static_cast<unsigned long long>(sent)));
  // The batch p50 is a per-layer metric only: batches before the WAL
  // cliff are memory-bound (quadratic head growth), and their median
  // moves with the host's memory bandwidth by more than any usable bound.
  const double p50 = percentile(batch_ms, 0.50);
  const double p99 = percentile(batch_ms, 0.99);
  report.note(format("ingest: batch latency p50 %.3f ms, p99 %.3f ms over %zu samples",
                     p50, p99, batch_ms.size()));

  if (!args.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("ingest_rows_per_s", accepted / loop_s, "rows/s");
    report.metric("ingest_batch_p99_ms", p99, "ms");
    report.metric("disk_bytes_per_row", median(disk), "B/row");
    return;
  }

  const double rows = static_cast<double>(first.server.rows_accepted);
  report.metric("ingest_batch_p50_ms", p50, "ms");
  report.metric("daemon.frames", static_cast<double>(first.server.frames), "count");
  report.metric("daemon.rows_rejected", static_cast<double>(first.server.rows_rejected), "count");
  report.metric("daemon.protocol_errors", static_cast<double>(first.server.protocol_errors),
                "count");
  report.metric("tsdb.wal_bytes_per_row", static_cast<double>(first.wal_written) / rows, "B/row");
  report.metric("tsdb.segment_bytes_per_row",
                static_cast<double>(first.durable.disk_bytes) / rows, "B/row");
  report.metric("tsdb.wal_frames", static_cast<double>(first.durable.wal_frames), "count");
  report.metric("tsdb.extents_appended", static_cast<double>(first.durable.extents_appended),
                "count");

  // The traced pass repeats the first (untraced) session's work.
  std::vector<SpanLog> logs;
  for (std::size_t c = 0; c < kClients; ++c) logs.emplace_back(static_cast<std::uint32_t>(c));
  std::vector<SpanLog*> log_ptrs;
  for (auto& l : logs) log_ptrs.push_back(&l);
  const Session traced = run_session("ingest-traced", args.seed, log_ptrs);
  std::filesystem::remove_all(traced.dir);
  if (!traced.run.ok) report.mismatch("traced ingest loop: " + traced.run.error);
  write_spans("spans-ingest.jsonl", "ingest", {&logs[0], &logs[1], &replay_log});

  // Client-loop self time per client (the clients run side by side).
  std::map<std::string, double> self = self_seconds({&logs[0], &logs[1]});
  for (auto& [name, s] : self) s /= static_cast<double>(kClients);
  report.metric("daemon.send_s", self["daemon.send"], "s");
  report.metric("daemon.reply_wait_s", self["daemon.reply_wait"], "s");
  const auto replay = replay_log.self_seconds();
  auto get = [&](const char* name) {
    const auto it = replay.find(name);
    return it == replay.end() ? 0.0 : it->second;
  };
  report.metric("daemon.encode_batch_s", get("daemon.encode_batch"), "s");
  report.metric("daemon.decode_batch_s", get("daemon.decode_batch"), "s");
  report.metric("tsdb.insert_batch_s", get("tsdb.insert_batch"), "s");
  report.metric("tsdb.seal_s", get("tsdb.seal"), "s");
  report.metric("tsdb.flush_s", get("tsdb.flush"), "s");
  report.metric("tsdb.reopen_s", get("tsdb.reopen"), "s");
  report_trace(report, "ingest", self, first.run.wall_s, traced.run.wall_s);
}

}  // namespace envbench
