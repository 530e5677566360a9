#include "fleet/ingest.hpp"

#include <algorithm>
#include <chrono>

namespace envmon::fleet {
inline namespace v2 {

IngestQueue::IngestQueue(std::size_t capacity, obs::FlightRecorder* recorder)
    : capacity_(std::max<std::size_t>(capacity, 1)), recorder_(recorder) {
  if (obs::enabled()) {
    auto& registry = obs::default_registry();
    depth_metric_ = &registry.gauge("envmon_fleet_queue_depth",
                                    "Epoch batches staged in the fleet ingest queue");
    stalls_metric_ = &registry.counter(
        "envmon_fleet_ingest_stalls_total",
        "Epoch-barrier pushes that blocked on a full ingest queue");
  }
}

bool IngestQueue::push(EpochBatch batch) {
  std::unique_lock lock(mutex_);
  if (items_.size() >= capacity_ && !closed_) {
    stalls_.fetch_add(1, std::memory_order_relaxed);
    if (stalls_metric_ != nullptr) stalls_metric_->inc();
    const auto began = std::chrono::steady_clock::now();
    not_full_.wait(lock, [this] { return items_.size() < capacity_ || closed_; });
    stall_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - began).count();
    if (recorder_ != nullptr) {
      recorder_->record(batch.boundary, -1, "queue", "queue.stall",
                        "epoch " + std::to_string(batch.epoch), obs::EventClass::kTiming);
    }
  }
  if (closed_) return false;
  items_.push_back(std::move(batch));
  if (depth_metric_ != nullptr) depth_metric_->set(static_cast<double>(items_.size()));
  not_empty_.notify_one();
  return true;
}

std::optional<EpochBatch> IngestQueue::pop() {
  std::unique_lock lock(mutex_);
  not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
  if (items_.empty()) return std::nullopt;
  EpochBatch batch = std::move(items_.front());
  items_.pop_front();
  if (depth_metric_ != nullptr) depth_metric_->set(static_cast<double>(items_.size()));
  not_full_.notify_one();
  return batch;
}

void IngestQueue::close() {
  {
    const std::scoped_lock lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::size_t IngestQueue::depth() const {
  const std::scoped_lock lock(mutex_);
  return items_.size();
}

double IngestQueue::stall_seconds() const {
  const std::scoped_lock lock(mutex_);
  return stall_seconds_;
}

std::size_t RecordBufferPool::take(std::vector<std::vector<tsdb::Record>>& out,
                                   std::size_t want) {
  const std::scoped_lock lock(mutex_);
  const std::size_t n = std::min(want, free_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(free_.back()));
    free_.pop_back();
  }
  return n;
}

void RecordBufferPool::put(std::vector<std::vector<tsdb::Record>>&& buffers) {
  const std::scoped_lock lock(mutex_);
  for (std::vector<tsdb::Record>& buffer : buffers) {
    if (free_.size() >= kMaxBuffers) break;
    free_.push_back(std::move(buffer));
  }
  buffers.clear();
}

IngestWorker::IngestWorker(tsdb::EnvDatabase& db, IngestQueue& queue, RecordBufferPool& pool,
                           obs::FlightRecorder& recorder)
    : db_(&db), queue_(&queue), pool_(&pool), recorder_(&recorder) {
  if (obs::enabled()) {
    applied_metric_ = &obs::default_registry().counter(
        "envmon_fleet_records_applied_total",
        "Records the ingest thread applied to the environmental database");
  }
}

void IngestWorker::run() {
  while (auto batch = queue_->pop()) {
    apply(std::move(*batch));
  }
}

void IngestWorker::apply(EpochBatch&& batch) {
  // Per-node streams are already time-ordered; concatenating in node
  // order and stable-sorting by timestamp yields the one global order
  // the store accepts (non-decreasing timestamps, ties by node index) —
  // independent of which worker staged what.
  std::vector<tsdb::Record>& rows = rows_;
  rows.clear();
  rows.reserve(batch.rows);
  for (NodeBatch& node : batch.nodes) {
    rows.insert(rows.end(), std::make_move_iterator(node.records.begin()),
                std::make_move_iterator(node.records.end()));
    node.records.clear();  // destroy moved-from shells, keep capacity
    recycle_.push_back(std::move(node.records));
  }
  if (!recycle_.empty()) pool_->put(std::move(recycle_));
  std::stable_sort(rows.begin(), rows.end(),
                   [](const tsdb::Record& a, const tsdb::Record& b) {
                     return a.timestamp.ns() < b.timestamp.ns();
                   });
  const std::size_t size_before = db_->size();
  const auto result = db_->insert_batch(rows);
  ++stats_.batches;
  stats_.accepted += result.accepted;
  stats_.rejected_out_of_order += result.rejected_out_of_order;
  stats_.rejected_rate_limited += result.rejected_rate_limited;
  stats_.rejected_unavailable += result.rejected_unavailable;
  if (applied_metric_ != nullptr) applied_metric_->inc(result.accepted);
  // Retention runs inside insert: accepted rows that don't all show up in
  // the post-insert size mean the store aged something out this batch.
  if (size_before + result.accepted != db_->size()) {
    const std::size_t dropped = size_before + result.accepted - db_->size();
    recorder_->record(batch.boundary, -1, "tsdb", "tsdb.retention",
                      "epoch " + std::to_string(batch.epoch) + ": dropped " +
                          std::to_string(dropped) + " rows");
  }
  // Epoch-boundary seal: flush grown heads into immutable blocks on a
  // batch-count schedule (deterministic — this is the only db writer).
  if (stats_.batches % kSealInterval == 0) {
    const std::size_t sealed = db_->seal_blocks(kSealMinRows);
    if (sealed > 0) {
      recorder_->record(batch.boundary, -1, "tsdb", "tsdb.seal",
                        "epoch " + std::to_string(batch.epoch) + ": sealed " +
                            std::to_string(sealed) + " blocks");
    }
    // A durable store flushes on the same schedule: each epoch seal
    // pushes the sealed blocks' extents and WAL records to disk, so a
    // crash loses at most one seal interval of fleet data even under
    // FsyncPolicy::kNone.  The first failure is kept for run() to
    // return.
    if (db_->durable()) {
      const Status flushed = db_->flush();
      if (status_.is_ok()) status_ = flushed;
    }
  }
}

}  // namespace v2
}  // namespace envmon::fleet
