// QueryMetrics semantics: Clear, Merge, copy-assignment, peak-memory
// updates, and the per-operator -> query-level rollup contract the
// executor relies on (docs/OBSERVABILITY.md), including merging from
// many threads on the shared pool.
#include <gtest/gtest.h>

#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"

namespace hd {
namespace {

QueryMetrics MakeFilled(uint64_t base) {
  QueryMetrics m;
  m.pages_read = base + 1;
  m.bytes_read = base + 2;
  m.bytes_processed = base + 3;
  m.rows_scanned = base + 4;
  m.rows_output = base + 5;
  m.segments_scanned = base + 6;
  m.segments_skipped = base + 7;
  m.morsels_scheduled = base + 8;
  m.morsels_stolen = base + 9;
  m.runs_evaluated = base + 10;
  m.rows_decoded = base + 11;
  m.sim_io_ns = base + 12;
  m.cpu_ns = base + 13;
  m.peak_memory_bytes = base + 14;
  m.spill_bytes = base + 15;
  m.rows_selected = base + 16;
  m.rows_late_materialized = base + 17;
  m.aggs_pushed_down = base + 18;
  m.hash_probes = base + 19;
  m.agg_dense_rows = base + 20;
  m.dop = 4;
  return m;
}

TEST(QueryMetricsTest, ClearZeroesEverything) {
  QueryMetrics m = MakeFilled(100);
  m.Clear();
  EXPECT_EQ(m.pages_read.load(), 0u);
  EXPECT_EQ(m.bytes_read.load(), 0u);
  EXPECT_EQ(m.bytes_processed.load(), 0u);
  EXPECT_EQ(m.rows_scanned.load(), 0u);
  EXPECT_EQ(m.rows_output.load(), 0u);
  EXPECT_EQ(m.segments_scanned.load(), 0u);
  EXPECT_EQ(m.segments_skipped.load(), 0u);
  EXPECT_EQ(m.morsels_scheduled.load(), 0u);
  EXPECT_EQ(m.morsels_stolen.load(), 0u);
  EXPECT_EQ(m.runs_evaluated.load(), 0u);
  EXPECT_EQ(m.rows_decoded.load(), 0u);
  EXPECT_EQ(m.sim_io_ns.load(), 0u);
  EXPECT_EQ(m.cpu_ns.load(), 0u);
  EXPECT_EQ(m.peak_memory_bytes.load(), 0u);
  EXPECT_EQ(m.spill_bytes.load(), 0u);
  EXPECT_EQ(m.rows_selected.load(), 0u);
  EXPECT_EQ(m.rows_late_materialized.load(), 0u);
  EXPECT_EQ(m.aggs_pushed_down.load(), 0u);
  EXPECT_EQ(m.hash_probes.load(), 0u);
  EXPECT_EQ(m.agg_dense_rows.load(), 0u);
}

TEST(QueryMetricsTest, MergeSumsCountersAndMaxesPeakMemory) {
  QueryMetrics a = MakeFilled(0);
  QueryMetrics b = MakeFilled(1000);
  a.Merge(b);
  EXPECT_EQ(a.pages_read.load(), 1u + 1001u);
  EXPECT_EQ(a.rows_scanned.load(), 4u + 1004u);
  EXPECT_EQ(a.morsels_scheduled.load(), 8u + 1008u);
  EXPECT_EQ(a.cpu_ns.load(), 13u + 1013u);
  EXPECT_EQ(a.spill_bytes.load(), 15u + 1015u);
  EXPECT_EQ(a.rows_selected.load(), 16u + 1016u);
  EXPECT_EQ(a.rows_late_materialized.load(), 17u + 1017u);
  EXPECT_EQ(a.aggs_pushed_down.load(), 18u + 1018u);
  EXPECT_EQ(a.hash_probes.load(), 19u + 1019u);
  EXPECT_EQ(a.agg_dense_rows.load(), 20u + 1020u);
  // Peak memory is a high-water mark, not additive.
  EXPECT_EQ(a.peak_memory_bytes.load(), 1014u);
}

TEST(QueryMetricsTest, CopyAssignmentReplacesState) {
  QueryMetrics src = MakeFilled(50);
  QueryMetrics dst = MakeFilled(9000);
  dst = src;
  EXPECT_EQ(dst.pages_read.load(), 51u);
  EXPECT_EQ(dst.rows_scanned.load(), 54u);
  EXPECT_EQ(dst.peak_memory_bytes.load(), 64u);
  EXPECT_EQ(dst.dop, 4);
  // Copy, not alias: mutating the copy leaves the source alone.
  dst.pages_read += 1;
  EXPECT_EQ(src.pages_read.load(), 51u);
}

TEST(QueryMetricsTest, CopyConstructionMatchesAssignment) {
  QueryMetrics src = MakeFilled(7);
  QueryMetrics copy(src);
  EXPECT_EQ(copy.rows_scanned.load(), src.rows_scanned.load());
  EXPECT_EQ(copy.peak_memory_bytes.load(), src.peak_memory_bytes.load());
}

TEST(QueryMetricsTest, UpdatePeakMemoryIsMonotonic) {
  QueryMetrics m;
  m.UpdatePeakMemory(100);
  EXPECT_EQ(m.peak_memory_bytes.load(), 100u);
  m.UpdatePeakMemory(50);
  EXPECT_EQ(m.peak_memory_bytes.load(), 100u);
  m.UpdatePeakMemory(200);
  EXPECT_EQ(m.peak_memory_bytes.load(), 200u);
}

// The executor's rollup: every per-operator block merged into one query
// block reproduces the sum of all counter increments, even when the
// operator blocks were written concurrently from pool workers.
TEST(QueryMetricsTest, OperatorRollupUnderThreadPool) {
  constexpr int kOps = 5;
  constexpr uint64_t kMorsels = 400;
  std::vector<OperatorProfile> ops(kOps);
  ThreadPool& pool = ThreadPool::Global();
  for (int o = 0; o < kOps; ++o) {
    pool.ParallelFor(kMorsels, /*max_dop=*/8, [&](int, uint64_t mi) {
      QueryMetrics& m = ops[o].metrics;
      m.rows_scanned += mi;
      m.cpu_ns += 3;
      m.pages_read += 1;
      m.UpdatePeakMemory(mi);
    });
  }
  QueryMetrics total;
  for (const auto& op : ops) total.Merge(op.metrics);
  const uint64_t per_op_rows = kMorsels * (kMorsels - 1) / 2;
  EXPECT_EQ(total.rows_scanned.load(), kOps * per_op_rows);
  EXPECT_EQ(total.cpu_ns.load(), kOps * kMorsels * 3);
  EXPECT_EQ(total.pages_read.load(), kOps * kMorsels);
  EXPECT_EQ(total.peak_memory_bytes.load(), kMorsels - 1);
}

}  // namespace
}  // namespace hd
