// Tests for the sharded columnar storage engine behind EnvDatabase:
// metric interning, the location-prefix shard index, the batch-ingest
// path, the downsample cache, retention/rate-window interaction, and
// result equivalence with a reference flat scan.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "moneq/output.hpp"
#include "moneq/unified.hpp"
#include "tsdb/database.hpp"
#include "tsdb/metric_table.hpp"
#include "tsdb/shard_index.hpp"

namespace envmon::tsdb {
namespace {

using sim::Duration;
using sim::SimTime;

Record make_record(double t_seconds, Location loc, std::string metric, double value) {
  return Record{SimTime::from_seconds(t_seconds), loc, std::move(metric), value};
}

// The pre-sharding implementation, kept as the behavioral oracle.
bool flat_matches(const Record& r, const QueryFilter& f) {
  if (f.location_prefix && !f.location_prefix->contains(r.location)) return false;
  if (f.metric && r.metric != *f.metric) return false;
  if (f.from && r.timestamp < *f.from) return false;
  if (f.to && r.timestamp > *f.to) return false;
  return true;
}

std::vector<Record> flat_query(const std::vector<Record>& records, const QueryFilter& f) {
  std::vector<Record> out;
  for (const auto& r : records) {
    if (flat_matches(r, f)) out.push_back(r);
  }
  return out;
}

TEST(MetricTable, InternsToDenseIdsAndDedupes) {
  MetricTable table;
  const MetricId power = table.intern("power_w");
  const MetricId temp = table.intern("temp_c");
  EXPECT_NE(power, temp);
  EXPECT_EQ(table.intern("power_w"), power);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.name(power), "power_w");
  ASSERT_TRUE(table.find("temp_c").has_value());
  EXPECT_EQ(*table.find("temp_c"), temp);
  EXPECT_FALSE(table.find("never_seen").has_value());
}

TEST(ShardIndex, ResolvesPrefixAndMetricFilters) {
  MetricTable metrics;
  const MetricId power = metrics.intern("p");
  const MetricId temp = metrics.intern("t");
  ShardIndex index;
  index.slot(board_location(0, 0, 3), power) = 0;
  index.slot(board_location(0, 1, 3), power) = 1;
  index.slot(board_location(1, 0, 3), power) = 2;
  index.slot(board_location(0, 0, 3), temp) = 3;
  EXPECT_EQ(index.series_count(), 4u);

  std::vector<std::uint32_t> out;
  index.collect(rack_location(0), std::nullopt, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 3, 1}));

  out.clear();
  index.collect(rack_location(0), power, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));

  out.clear();
  index.collect(std::nullopt, power, out);
  EXPECT_EQ(out.size(), 3u);

  // Sparse wildcard: rack set, midplane unset, board set — exactly
  // Location::contains semantics.
  Location sparse;
  sparse.rack = 0;
  sparse.board = 3;
  out.clear();
  index.collect(sparse, std::nullopt, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 3, 1}));
}

TEST(ShardIndex, SetFilterLevelDoesNotMatchUnsetRecordLevel) {
  MetricTable metrics;
  const MetricId power = metrics.intern("p");
  ShardIndex index;
  index.slot(rack_location(0), power) = 0;  // midplane/board/card unset
  std::vector<std::uint32_t> out;
  index.collect(midplane_location(0, 0), std::nullopt, out);
  EXPECT_TRUE(out.empty());  // a rack-scope record is not inside midplane 0
  index.collect(rack_location(0), std::nullopt, out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(EnvDatabase, OutOfOrderRejectCountsInAccessor) {
  EnvDatabase db;
  ASSERT_TRUE(db.insert(make_record(5.0, rack_location(0), "power", 1.0)).is_ok());
  EXPECT_FALSE(db.insert(make_record(4.0, rack_location(0), "power", 1.0)).is_ok());
  EXPECT_FALSE(db.insert(make_record(3.0, rack_location(0), "power", 1.0)).is_ok());
  // Regression: out-of-order rejects used to bump only the obs counter,
  // leaving this accessor reading zero.
  EXPECT_EQ(db.rejected_inserts(), 2u);
}

TEST(EnvDatabase, BatchInsertAcceptsAndReportsCounts) {
  EnvDatabase db;
  std::vector<Record> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(make_record(i, rack_location(i % 2), (i / 2) % 2 ? "power" : "temp", i));
  }
  const auto result = db.insert_batch(batch);
  EXPECT_TRUE(result.all_accepted());
  EXPECT_EQ(result.accepted, 10u);
  EXPECT_EQ(db.size(), 10u);
  EXPECT_EQ(db.metric_count(), 2u);
  EXPECT_EQ(db.series_count(), 4u);
}

TEST(EnvDatabase, BatchInsertSkipsOutOfOrderRecordsAndContinues) {
  EnvDatabase db;
  std::vector<Record> batch;
  batch.push_back(make_record(1.0, rack_location(0), "power", 1.0));
  batch.push_back(make_record(3.0, rack_location(0), "power", 3.0));
  batch.push_back(make_record(2.0, rack_location(0), "power", 2.0));  // out of order
  batch.push_back(make_record(4.0, rack_location(0), "power", 4.0));
  const auto result = db.insert_batch(batch);
  EXPECT_EQ(result.accepted, 3u);
  EXPECT_EQ(result.rejected_out_of_order, 1u);
  EXPECT_EQ(result.rejected_rate_limited, 0u);
  EXPECT_EQ(db.rejected_inserts(), 1u);
  const auto rows = db.query({});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[1].value, 3.0);
  EXPECT_DOUBLE_EQ(rows[2].value, 4.0);
}

TEST(EnvDatabase, BatchInsertHitsRateCeilingLikePerRecordInserts) {
  DatabaseOptions options;
  options.max_insert_rate_per_second = 1.0;
  options.rate_window = Duration::seconds(10);  // ceiling: 10 records/window
  EnvDatabase db(options);
  std::vector<Record> batch;
  for (int i = 0; i < 40; ++i) {
    batch.push_back(make_record(0.1 * i, rack_location(0), "power", 1.0));
  }
  const auto result = db.insert_batch(batch);
  EXPECT_GT(result.rejected_rate_limited, 0u);
  EXPECT_LE(result.accepted, 12u);
  EXPECT_EQ(db.rejected_inserts(), result.rejected());
  EXPECT_EQ(db.size(), result.accepted);
}

TEST(EnvDatabase, RetentionDoesNotRefundRateWindowBudget) {
  DatabaseOptions options;
  options.max_insert_rate_per_second = 1.0;
  options.rate_window = Duration::seconds(10);      // budget: 10 records/window
  options.retention = Duration::from_seconds(0.5);  // drops records almost immediately
  EnvDatabase db(options);
  std::size_t accepted = 0;
  for (int i = 0; i < 15; ++i) {
    if (db.insert(make_record(0.1 * i, rack_location(0), "power", 1.0)).is_ok()) ++accepted;
  }
  // Retention has already dropped most of the accepted records, but they
  // were still *ingested* inside the window: the capacity ceiling binds
  // on ingest volume, so vacuum must not retroactively free budget (a
  // live-record count would have accepted all 15 here).
  EXPECT_EQ(accepted, 10u);
  EXPECT_LT(db.size(), 10u);
  EXPECT_EQ(db.rejected_inserts(), 5u);
}

TEST(EnvDatabase, VacuumAppliesPerSeriesRetention) {
  DatabaseOptions options;
  options.retention = Duration::seconds(10);
  EnvDatabase db(options);
  (void)db.insert(make_record(0.0, rack_location(0), "power", 1.0));
  (void)db.insert(make_record(0.0, rack_location(1), "temp", 2.0));
  (void)db.insert(make_record(12.0, rack_location(0), "power", 3.0));
  (void)db.insert(make_record(20.0, rack_location(1), "temp", 4.0));
  EXPECT_EQ(db.size(), 2u);  // both t=0 records dropped, across both series
  const auto rows = db.query({});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].value, 3.0);
  EXPECT_DOUBLE_EQ(rows[1].value, 4.0);
}

TEST(EnvDatabase, DownsampleFloorsPreEpochTimestamps) {
  EnvDatabase db;
  (void)db.insert(make_record(-3.0, rack_location(0), "power", 30.0));
  (void)db.insert(make_record(-1.0, rack_location(0), "power", 10.0));
  (void)db.insert(make_record(1.0, rack_location(0), "power", 20.0));
  const auto buckets = db.downsample({}, Duration::seconds(2));
  // Floor division: -3 s lands in [-4, -2), -1 s in [-2, 0), 1 s in [0, 2).
  // Truncating division used to put both negative records in the wrong
  // bucket (-2 and 0 respectively).
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].start.to_seconds(), -4.0);
  EXPECT_DOUBLE_EQ(buckets[1].start.to_seconds(), -2.0);
  EXPECT_DOUBLE_EQ(buckets[2].start.to_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(buckets[0].mean, 30.0);
  EXPECT_DOUBLE_EQ(buckets[1].mean, 10.0);
}

TEST(EnvDatabase, DownsampleCacheHitsAndInvalidation) {
  EnvDatabase db;
  for (int i = 0; i < 100; ++i) {
    (void)db.insert(make_record(i, rack_location(i % 4), "power", i));
  }
  QueryFilter f;
  f.location_prefix = rack_location(1);
  const auto first = db.downsample(f, Duration::seconds(10));
  const auto cached = db.downsample(f, Duration::seconds(10));
  EXPECT_EQ(db.query_stats().cache_hits, 1u);
  ASSERT_EQ(cached.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(cached[i].start, first[i].start);
    EXPECT_DOUBLE_EQ(cached[i].mean, first[i].mean);
    EXPECT_EQ(cached[i].count, first[i].count);
  }

  // A different bucket width is a different key, not a stale hit.
  const auto wider = db.downsample(f, Duration::seconds(50));
  EXPECT_NE(wider.size(), first.size());

  // Mutation invalidates: the refreshed result sees the new record.
  (void)db.insert(make_record(100.0, rack_location(1), "power", 1000.0));
  const auto refreshed = db.downsample(f, Duration::seconds(10));
  EXPECT_EQ(refreshed.size(), first.size() + 1);
  EXPECT_EQ(db.query_stats().cache_hits, 1u);  // no further hits
}

TEST(EnvDatabase, FilteredQueriesScanFewerRowsThanFullScan) {
  EnvDatabase db;
  for (int i = 0; i < 1000; ++i) {
    (void)db.insert(
        make_record(i, board_location(i % 4, i % 2, i % 8), i % 2 ? "power" : "temp", i));
  }
  const auto before = db.query_stats().rows_scanned;
  QueryFilter f;
  f.location_prefix = board_location(1, 1, 1);
  f.metric = "power";
  const auto rows = db.query(f);
  const auto scanned = db.query_stats().rows_scanned - before;
  EXPECT_EQ(scanned, rows.size());    // touched exactly the matches...
  EXPECT_LT(scanned, db.size() / 4);  // ...not the whole store
}

TEST(EnvDatabase, RowsDecodedCountsTheSubchunksReadNotTheBlock) {
  // rows_decoded counts the rows of the sealed-block subchunks whose
  // values a read decoded; head rows count 0.  Pushdown is off so the
  // folds must decode too.
  DatabaseOptions options;
  options.aggregation_pushdown = false;
  EnvDatabase db(options);
  std::vector<Record> rows;
  for (int i = 0; i < 4096 + 10; ++i) {
    rows.push_back(
        Record{SimTime::from_ns(i * 1'000'000LL), rack_location(0), "power", 0.5 * i});
  }
  ASSERT_TRUE(db.insert_batch(rows).all_accepted());
  ASSERT_EQ(db.sealed_block_count(), 1u);  // rows 0..4095 auto-sealed

  // Rows 35..40, all inside subchunk 2 (rows 32..47) of the block.
  QueryFilter inside;
  inside.from = SimTime::from_ns(35'000'000);
  inside.to = SimTime::from_ns(40'000'000);
  const auto decoded = [&db] { return db.query_stats().rows_decoded; };
  std::uint64_t before = decoded();
  EXPECT_EQ(db.query(inside).size(), 6u);
  EXPECT_EQ(decoded() - before, 16u);
  before = decoded();
  EXPECT_EQ(db.downsample(inside, Duration::seconds(1)).at(0).count, 6u);
  EXPECT_EQ(decoded() - before, 16u);
  before = decoded();
  EXPECT_EQ(db.aggregate(inside).count, 6u);
  EXPECT_EQ(decoded() - before, 16u);

  // The 10 head rows decode nothing.
  QueryFilter head;
  head.from = SimTime::from_ns(4096'000'000);
  before = decoded();
  EXPECT_EQ(db.query(head).size(), 10u);
  EXPECT_EQ(db.downsample(head, Duration::seconds(1)).at(0).count, 10u);
  EXPECT_EQ(db.aggregate(head).count, 10u);
  EXPECT_EQ(decoded() - before, 0u);
}

TEST(EnvDatabase, QueryAndDownsampleMatchFlatScanOracle) {
  // Three engines over the same record stream and seal schedule: the
  // default (compressed blocks, aggregation pushdown), the reference
  // configuration (raw blocks, no pushdown, serial queries), and a
  // parallel-query variant forced over the worker pool.  All three must
  // produce byte-identical results.
  DatabaseOptions ref_opts;
  ref_opts.compress_blocks = false;
  ref_opts.aggregation_pushdown = false;
  DatabaseOptions mt_opts;
  mt_opts.query_threads = 4;
  mt_opts.parallel_query_min_rows = 1;
  EnvDatabase db;
  EnvDatabase ref(ref_opts);
  EnvDatabase mt(mt_opts);
  std::vector<Record> mirror;
  std::mt19937 rng(0xc0ffee);
  std::uniform_int_distribution<int> rack(0, 2), midplane(0, 1), board(0, 3), pick(0, 3);
  std::uniform_real_distribution<double> value(0.0, 100.0);
  const char* metrics[] = {"power_w", "temp_c", "flow_lpm"};
  double t = -50.0;  // cover pre-epoch timestamps too
  for (int i = 0; i < 800; ++i) {
    t += 0.25 * static_cast<double>(pick(rng));  // duplicates and gaps
    Location loc;
    switch (pick(rng)) {
      case 0: loc = rack_location(rack(rng)); break;
      case 1: loc = midplane_location(rack(rng), midplane(rng)); break;
      default: loc = board_location(rack(rng), midplane(rng), board(rng)); break;
    }
    const Record r = make_record(t, loc, metrics[i % 3], value(rng));
    ASSERT_TRUE(db.insert(r).is_ok());
    ASSERT_TRUE(ref.insert(r).is_ok());
    ASSERT_TRUE(mt.insert(r).is_ok());
    mirror.push_back(r);
    if (i == 399) {  // seal mid-stream: queries cross sealed blocks and heads
      db.seal_blocks();
      ref.seal_blocks();
      mt.seal_blocks();
    }
  }
  EXPECT_GT(db.sealed_block_count(), 0u);

  std::vector<QueryFilter> filters;
  filters.push_back({});
  for (int i = 0; i < 40; ++i) {
    QueryFilter f;
    if (pick(rng) != 0) {
      switch (pick(rng)) {
        case 0: f.location_prefix = rack_location(rack(rng)); break;
        case 1: f.location_prefix = midplane_location(rack(rng), midplane(rng)); break;
        default: f.location_prefix = board_location(rack(rng), midplane(rng), board(rng));
      }
    }
    if (pick(rng) != 0) f.metric = metrics[static_cast<std::size_t>(pick(rng)) % 3];
    if (pick(rng) == 0) f.metric = "absent_metric";
    if (pick(rng) != 0) f.from = SimTime::from_seconds(-60.0 + 10.0 * pick(rng));
    if (pick(rng) != 0) f.to = SimTime::from_seconds(10.0 * pick(rng));
    filters.push_back(f);
  }

  for (const auto& f : filters) {
    const auto expected = flat_query(mirror, f);
    const auto actual = db.query(f);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].timestamp, expected[i].timestamp);
      EXPECT_EQ(actual[i].location, expected[i].location);
      EXPECT_EQ(actual[i].metric, expected[i].metric);
      EXPECT_EQ(actual[i].value, expected[i].value);  // bit-exact
    }
    // Raw blocks and the parallel executor return byte-identical rows.
    const auto from_ref = ref.query(f);
    const auto from_mt = mt.query(f);
    ASSERT_EQ(from_ref.size(), actual.size());
    ASSERT_EQ(from_mt.size(), actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(from_ref[i].timestamp, actual[i].timestamp);
      EXPECT_EQ(from_ref[i].value, actual[i].value);
      EXPECT_EQ(from_mt[i].timestamp, actual[i].timestamp);
      EXPECT_EQ(from_mt[i].value, actual[i].value);
    }

    // Downsample oracle: bucket starts and counts against a flat
    // bucketing loop; the mean is defined at subchunk granularity
    // (DESIGN.md §10), so the flat fold agrees only to rounding —
    // bit-exactness is checked against the reference engine, which uses
    // raw blocks and no pushdown but the identical aggregation grid.
    const Duration width = Duration::seconds(7);
    struct Want {
      SimTime start;
      double sum = 0.0;
      std::size_t count = 0;
    };
    std::vector<Want> want;
    for (const auto& r : expected) {
      const std::int64_t ns = r.timestamp.ns(), w = width.ns();
      std::int64_t idx = ns / w;
      if (ns % w != 0 && ns < 0) --idx;  // floor
      const SimTime start = SimTime::from_ns(idx * w);
      if (want.empty() || want.back().start != start) want.push_back({start, 0.0, 0});
      auto& b = want.back();
      b.sum += r.value;
      ++b.count;
    }
    const auto got = db.downsample(f, width);
    const auto got_ref = ref.downsample(f, width);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got_ref.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].start, want[i].start);
      EXPECT_EQ(got[i].count, want[i].count);
      EXPECT_NEAR(got[i].mean, want[i].sum / static_cast<double>(want[i].count), 1e-9);
      EXPECT_EQ(got_ref[i].start, got[i].start);
      EXPECT_EQ(got_ref[i].count, got[i].count);
      EXPECT_EQ(got_ref[i].mean, got[i].mean);  // bit-exact: pushdown vs decode
    }

    // Whole-window aggregates push down to block summaries; same
    // bit-exactness contract against the reference engine.
    const auto agg = db.aggregate(f);
    const auto agg_ref = ref.aggregate(f);
    EXPECT_EQ(agg.count, agg_ref.count);
    EXPECT_EQ(agg.sum, agg_ref.sum);
    EXPECT_EQ(agg.sum_sq, agg_ref.sum_sq);
    EXPECT_EQ(agg.min, agg_ref.min);
    EXPECT_EQ(agg.max, agg_ref.max);
  }
  EXPECT_GT(db.query_stats().pushdown_chunks, 0u);
}

TEST(MoneqBridge, StoreNodeSamplesLandsBatchAtNodeLocation) {
  EnvDatabase db;
  std::vector<moneq::Sample> samples;
  samples.push_back({SimTime::from_seconds(1.0), "chip_core", moneq::Quantity::kPowerWatts, 40.0});
  samples.push_back({SimTime::from_seconds(1.0), "dram", moneq::Quantity::kPowerWatts, 11.0});
  samples.push_back({SimTime::from_seconds(2.0), "chip_core", moneq::Quantity::kPowerWatts, 42.0});
  const auto result = moneq::store_node_samples(db, 33, samples);
  EXPECT_TRUE(result.all_accepted());
  EXPECT_EQ(db.size(), 3u);

  // Rank 33 = card 1 on board 1 (32 cards per board).
  EXPECT_EQ(moneq::node_location(33).to_string(), "R00-M0-N01-J01");
  QueryFilter f;
  f.location_prefix = moneq::node_location(33);
  f.metric = "moneq_chip_core";
  const auto rows = db.query(f);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[1].value, 42.0);
}

TEST(MoneqBridge, RecordUnifiedStoresOneRecordPerMetric) {
  EnvDatabase db;
  std::map<moneq::UnifiedMetric, double> snapshot;
  snapshot[moneq::UnifiedMetric::kTotalPowerWatts] = 118.0;
  snapshot[moneq::UnifiedMetric::kDieTempCelsius] = 61.0;
  const auto result =
      moneq::record_unified(db, rack_location(3), SimTime::from_seconds(5.0), snapshot);
  EXPECT_TRUE(result.all_accepted());
  QueryFilter f;
  f.metric = "total_power_w";
  const auto rows = db.query(f);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].value, 118.0);
  EXPECT_EQ(rows[0].location.to_string(), "R03");
}

}  // namespace
}  // namespace envmon::tsdb
