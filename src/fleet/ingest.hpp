#pragma once
// The fleet's concurrent batched ingest path into tsdb::EnvDatabase.
//
// The store itself is single-threaded by design (one writer, ordered
// timestamps — the DB2 stand-in).  Fleet workers therefore never touch
// it directly: each worker stages its shard's records during an epoch,
// the epoch barrier hands one ordered EpochBatch to a bounded queue, and
// a dedicated ingest thread applies batches in epoch order — node order
// within an epoch, timestamp-stable-sorted across nodes — so the store's
// contents are byte-identical no matter how many workers produced them.
//
// The queue is bounded: when the applier falls behind by `capacity`
// epochs, the barrier's producer side blocks (backpressure) instead of
// letting staged records grow without limit — the nvidia-smi failure
// mode of an unbounded decoupled sampler (arXiv:2312.02741) is exactly
// what this prevents.  Stall counts and stalled wall time are exported
// as metrics.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sim/time.hpp"
#include "tsdb/database.hpp"

namespace envmon::fleet {
inline namespace v2 {

// One node's records for one epoch, already in that node's time order.
struct NodeBatch {
  int node = 0;
  std::vector<tsdb::Record> records;
};

// Recycles record-vector capacity between the ingest thread and the
// shard workers.  A 100k-node epoch stages up to one vector per node;
// without recycling every epoch re-grows them from scratch.  Workers
// take a chunk per shard-epoch (one lock round-trip, not one per node)
// and the ingest thread returns the emptied buffers after applying a
// batch.  Bounded: buffers past kMaxBuffers are simply freed.
class RecordBufferPool {
 public:
  static constexpr std::size_t kMaxBuffers = 1 << 17;

  // Appends up to `want` recycled buffers (empty, capacity retained) to
  // `out`; returns how many were supplied.  Callers make up the balance
  // with fresh vectors.
  std::size_t take(std::vector<std::vector<tsdb::Record>>& out, std::size_t want);
  // Returns emptied buffers to the pool in one lock round-trip.
  void put(std::vector<std::vector<tsdb::Record>>&& buffers);

 private:
  std::mutex mutex_;
  std::vector<std::vector<tsdb::Record>> free_;
};

// Everything the fleet staged during one epoch, ordered by node index.
struct EpochBatch {
  std::uint64_t epoch = 0;
  std::vector<NodeBatch> nodes;
  std::size_t rows = 0;
  // Virtual-clock end of the epoch; stamps the flight-recorder events the
  // ingest side emits while applying this batch.
  sim::SimTime boundary{};
};

// Bounded MPSC queue of epoch batches (in practice one producer — the
// epoch-barrier completion — and one consumer, the ingest thread).
class IngestQueue {
 public:
  // `capacity` is in epochs; 0 is promoted to 1.  With a `recorder`,
  // queue stalls become kTiming flight-recorder events
  // ("queue"/"queue.stall"); timing events never land in the
  // deterministic post-mortem stream — stall durations depend on host
  // scheduling, not the virtual clock.
  explicit IngestQueue(std::size_t capacity, obs::FlightRecorder* recorder = nullptr);

  // Blocks while full.  Returns false (dropping the batch) after close().
  bool push(EpochBatch batch);

  // Blocks while empty; std::nullopt once closed and drained.
  [[nodiscard]] std::optional<EpochBatch> pop();

  // Wakes all waiters; further pushes fail, pops drain what remains.
  void close();

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] std::uint64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }
  [[nodiscard]] double stall_seconds() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<EpochBatch> items_;
  std::size_t capacity_;
  bool closed_ = false;
  std::atomic<std::uint64_t> stalls_{0};
  double stall_seconds_ = 0.0;  // guarded by mutex_
  obs::FlightRecorder* recorder_;

  obs::Gauge* depth_metric_ = nullptr;
  obs::Counter* stalls_metric_ = nullptr;
};

// The consumer side: drains the queue into the database, preserving the
// deterministic order (epoch, node, timestamp-stable).
//
// Every kSealInterval applied batches the worker asks the store to seal
// series heads holding at least kSealMinRows rows into immutable
// compressed blocks, bounding the mutable tier during long collection
// runs; a durable store flushes on the same schedule.  The schedule
// counts applied batches on the single ingest thread, so it is
// deterministic regardless of worker count — and sealing never changes
// query results (database.hpp).
class IngestWorker {
 public:
  static constexpr std::uint64_t kSealInterval = 64;
  static constexpr std::size_t kSealMinRows = 1024;

  // Applied batches' record buffers are cleared and returned to `pool`
  // instead of freed.  Seal and retention actions become deterministic
  // `recorder` events stamped with the applied batch's epoch boundary
  // ("tsdb"/"tsdb.seal", "tsdb"/"tsdb.retention", node = -1).
  IngestWorker(tsdb::EnvDatabase& db, IngestQueue& queue, RecordBufferPool& pool,
               obs::FlightRecorder& recorder);

  // Consumes until the queue is closed and drained.  Run on one thread.
  void run();

  struct Stats {
    std::uint64_t batches = 0;
    std::size_t accepted = 0;
    std::size_t rejected_out_of_order = 0;
    std::size_t rejected_rate_limited = 0;
    std::size_t rejected_unavailable = 0;
  };
  // Safe to read after run() returns (or the running thread is joined).
  [[nodiscard]] const Stats& stats() const { return stats_; }
  // The first failed durable flush (ok when every flush succeeded or the
  // store is in-memory).  Same read rule as stats().
  [[nodiscard]] const Status& status() const { return status_; }

 private:
  void apply(EpochBatch&& batch);

  tsdb::EnvDatabase* db_;
  IngestQueue* queue_;
  RecordBufferPool* pool_;
  obs::FlightRecorder* recorder_;
  Stats stats_;
  Status status_;
  std::vector<tsdb::Record> rows_;  // reused merge buffer
  std::vector<std::vector<tsdb::Record>> recycle_;  // reused return chunk
  obs::Counter* applied_metric_ = nullptr;
};

}  // namespace v2
}  // namespace envmon::fleet
