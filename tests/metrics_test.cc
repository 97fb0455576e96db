// QueryMetrics semantics: Clear, Merge, copy-assignment, peak-memory
// updates, and the per-operator -> query-level rollup contract the
// executor relies on (docs/OBSERVABILITY.md), including merging from
// many threads on the shared pool.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"

namespace hd {
namespace {

// Every counter gets a distinct value: base + its position in the list.
QueryMetrics MakeFilled(uint64_t base) {
  QueryMetrics m;
  uint64_t i = 0;
  for (const CounterDef& c : kQueryCounters) m.*c.member = base + ++i;
  m.dop = 4;
  return m;
}

std::vector<uint64_t> Values(const QueryMetrics& m) {
  std::vector<uint64_t> v;
  m.ForEachCounter([&v](const CounterDef&, uint64_t x) { v.push_back(x); });
  return v;
}

TEST(QueryMetricsTest, ListNamesEveryCounterOnce) {
  std::set<std::string> names;
  std::set<std::string> labels;
  for (const CounterDef& c : kQueryCounters) {
    EXPECT_TRUE(names.insert(c.name).second) << c.name;
    EXPECT_TRUE(labels.insert(c.label()).second) << c.label();
  }
  // The merge rules: everything adds except the memory high-water mark.
  for (const CounterDef& c : kQueryCounters) {
    EXPECT_EQ(c.merge == CounterMerge::kMax,
              c.member == &QueryMetrics::peak_memory_bytes)
        << c.name;
  }
}

TEST(QueryMetricsTest, ClearZeroesEverything) {
  QueryMetrics m = MakeFilled(100);
  m.Clear();
  for (uint64_t v : Values(m)) EXPECT_EQ(v, 0u);
  EXPECT_EQ(m.dop, 1);
}

TEST(QueryMetricsTest, MergeSumsCountersAndMaxesPeakMemory) {
  QueryMetrics a = MakeFilled(0);
  const QueryMetrics b = MakeFilled(1000);
  a.Merge(b);
  const std::vector<uint64_t> got = Values(a);
  for (size_t i = 0; i < got.size(); ++i) {
    const CounterDef& c = kQueryCounters[i];
    // Peak memory is a high-water mark, not additive.
    const uint64_t want = c.merge == CounterMerge::kMax
                              ? 1000 + (i + 1)
                              : (i + 1) + (1000 + (i + 1));
    EXPECT_EQ(got[i], want) << c.name;
  }
  // Max keeps the larger side whichever block holds it.
  QueryMetrics big = MakeFilled(1000);
  big.Merge(MakeFilled(0));
  EXPECT_EQ(big.peak_memory_bytes.load(), a.peak_memory_bytes.load());
}

TEST(QueryMetricsTest, CopyAssignmentReplacesState) {
  QueryMetrics src = MakeFilled(50);
  QueryMetrics dst = MakeFilled(9000);
  dst = src;
  EXPECT_EQ(Values(dst), Values(src));
  EXPECT_EQ(dst.dop, 4);
  // Copy, not alias: mutating the copy leaves the source alone.
  dst.pages_read += 1;
  EXPECT_EQ(src.pages_read.load(), MakeFilled(50).pages_read.load());
}

TEST(QueryMetricsTest, CopyConstructionMatchesAssignment) {
  QueryMetrics src = MakeFilled(7);
  QueryMetrics copy(src);
  EXPECT_EQ(Values(copy), Values(src));
  EXPECT_EQ(copy.dop, src.dop);
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
