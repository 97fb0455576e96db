// Unit tests for columnstore encodings, segments, row groups, and the
// delta-store / delete-buffer / delete-bitmap machinery of Section 2.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <unordered_set>

#include "columnstore/columnstore.h"
#include "common/failpoint.h"
#include "common/rng.h"

namespace hd {
namespace {

TEST(BitPackedTest, RoundTrip) {
  std::vector<uint64_t> vals;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    vals.push_back(static_cast<uint64_t>(rng.Uniform(0, 123456)));
  }
  BitPacked p;
  p.Pack(vals);
  EXPECT_EQ(p.bit_width(), BitsFor(123456));
  for (size_t i = 0; i < vals.size(); ++i) {
    ASSERT_EQ(p.Get(i), vals[i]) << i;
  }
  std::vector<uint64_t> out(100);
  p.Decode(500, 100, out.data());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], vals[500 + i]);
}

TEST(BitPackedTest, AllZeros) {
  std::vector<uint64_t> vals(1000, 0);
  BitPacked p;
  p.Pack(vals);
  EXPECT_EQ(p.bit_width(), 0);
  EXPECT_EQ(p.Get(123), 0u);
  EXPECT_LT(p.byte_size(), 128u);  // nearly free
}

TEST(BitsForTest, Values) {
  EXPECT_EQ(BitsFor(0), 0);
  EXPECT_EQ(BitsFor(1), 1);
  EXPECT_EQ(BitsFor(2), 2);
  EXPECT_EQ(BitsFor(255), 8);
  EXPECT_EQ(BitsFor(256), 9);
}

TEST(CountRunsTest, Figure8Example) {
  // The paper's Figure 8: columns A and B sorted by (B, A).
  // Sorted data: A = 0,1,3,3,3,3  B = 0,0,0,1,1,1.
  std::vector<int64_t> a = {0, 1, 3, 3, 3, 3};
  std::vector<int64_t> b = {0, 0, 0, 1, 1, 1};
  EXPECT_EQ(CountRuns(a), 3u);  // (0,1), (1,1), (3,4) — 3 runs as in Fig 8(d)
  EXPECT_EQ(CountRuns(b), 2u);  // (0,3), (1,3)
}

class SegmentTest : public ::testing::Test {
 protected:
  SegmentTest() : pool_(&disk_) {}
  DiskModel disk_;
  BufferPool pool_;
};

TEST_F(SegmentTest, RleForLongRuns) {
  std::vector<int64_t> v;
  for (int g = 0; g < 10; ++g) {
    for (int i = 0; i < 1000; ++i) v.push_back(g);
  }
  ColumnSegment s;
  s.Build(v, &pool_);
  EXPECT_EQ(s.encoding(), SegEncoding::kDictRle);
  EXPECT_EQ(s.num_runs(), 10u);
  EXPECT_EQ(s.min_value(), 0);
  EXPECT_EQ(s.max_value(), 9);
  EXPECT_LT(s.size_bytes(), 1000u);  // massive compression
  std::vector<int64_t> out(v.size());
  s.Decode(0, v.size(), out.data());
  EXPECT_EQ(out, v);
}

TEST_F(SegmentTest, DictPackedForSmallSparseDomains) {
  // 200 distinct values spread over a wide range: dictionary codes need 8
  // bits while raw offsets would need ~21, so the dictionary must win.
  Rng rng(2);
  std::vector<int64_t> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.Uniform(0, 200) * 7919);
  ColumnSegment s;
  s.Build(v, &pool_);
  EXPECT_EQ(s.encoding(), SegEncoding::kDictPacked);
  EXPECT_EQ(s.distinct_count(), 201u);
  std::vector<int64_t> out(v.size());
  s.Decode(0, v.size(), out.data());
  EXPECT_EQ(out, v);
  // ~8 bits per value instead of 64.
  EXPECT_LT(s.size_bytes(), 10000u * 2 + 4096);
}

TEST_F(SegmentTest, RawPackedWhenDictionaryDoesNotPay) {
  // Dense small-integer domain: raw offsets are as narrow as dictionary
  // codes, so paying for the dictionary is a loss.
  Rng rng(12);
  std::vector<int64_t> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.Uniform(0, 200));
  ColumnSegment s;
  s.Build(v, &pool_);
  EXPECT_EQ(s.encoding(), SegEncoding::kRawPacked);
  std::vector<int64_t> out(v.size());
  s.Decode(0, v.size(), out.data());
  EXPECT_EQ(out, v);
}

TEST_F(SegmentTest, DecodeMidRle) {
  std::vector<int64_t> v;
  for (int g = 0; g < 100; ++g) {
    for (int i = 0; i < 37; ++i) v.push_back(g * 5);
  }
  ColumnSegment s;
  s.Build(v, &pool_);
  ASSERT_EQ(s.encoding(), SegEncoding::kDictRle);
  std::vector<int64_t> out(100);
  s.Decode(1234, 100, out.data());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], v[1234 + i]);
}

TEST_F(SegmentTest, CanSkip) {
  std::vector<int64_t> v;
  for (int64_t i = 100; i < 200; ++i) v.push_back(i);
  ColumnSegment s;
  s.Build(v, &pool_);
  EXPECT_TRUE(s.CanSkip(0, 99));
  EXPECT_TRUE(s.CanSkip(201, 300));
  EXPECT_FALSE(s.CanSkip(150, 160));
  EXPECT_FALSE(s.CanSkip(0, 100));  // touches min
}

TEST_F(SegmentTest, NegativeValuesRoundTrip) {
  Rng rng(3);
  std::vector<int64_t> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.Uniform(-1000000, 1000000));
  ColumnSegment s;
  s.Build(v, &pool_);
  std::vector<int64_t> out(v.size());
  s.Decode(0, v.size(), out.data());
  EXPECT_EQ(out, v);
}

TEST_F(SegmentTest, CompressionSortShrinksRowGroup) {
  Rng rng(4);
  const size_t n = 50000;
  // Two correlated low-cardinality columns: sorting makes long runs.
  std::vector<std::vector<int64_t>> cols(2);
  for (size_t i = 0; i < n; ++i) {
    int64_t a = rng.Uniform(0, 5);
    cols[0].push_back(a);
    cols[1].push_back(a * 10 + rng.Uniform(0, 2));
  }
  std::vector<int64_t> locs(n);
  std::iota(locs.begin(), locs.end(), 0);

  CsiOptions sorted_opts;
  sorted_opts.compression_sort = true;
  RowGroup sorted_rg;
  sorted_rg.Build(cols, locs, sorted_opts, &pool_);

  CsiOptions raw_opts;
  raw_opts.compression_sort = false;
  RowGroup raw_rg;
  raw_rg.Build(cols, locs, raw_opts, &pool_);

  EXPECT_LT(sorted_rg.segment(0).size_bytes() + sorted_rg.segment(1).size_bytes(),
            (raw_rg.segment(0).size_bytes() + raw_rg.segment(1).size_bytes()) / 4);
  // Sorting must not change min/max (skipping behaviour preserved).
  EXPECT_EQ(sorted_rg.segment(0).min_value(), raw_rg.segment(0).min_value());
  EXPECT_EQ(sorted_rg.segment(0).max_value(), raw_rg.segment(0).max_value());
}

class CsiTest : public ::testing::Test {
 protected:
  CsiTest() : pool_(&disk_) {}

  std::unique_ptr<ColumnStoreIndex> MakeCsi(ColumnStoreIndex::Kind kind,
                                            size_t n, size_t rowgroup = 4096) {
    CsiOptions opts;
    opts.rowgroup_size = rowgroup;
    auto csi = std::make_unique<ColumnStoreIndex>(kind, 2, &pool_, opts);
    std::vector<std::vector<int64_t>> cols(2);
    std::vector<int64_t> locs;
    for (size_t i = 0; i < n; ++i) {
      cols[0].push_back(static_cast<int64_t>(i));       // sorted
      cols[1].push_back(static_cast<int64_t>(i % 97));  // small domain
      locs.push_back(static_cast<int64_t>(i));
    }
    csi->BulkLoad(std::move(cols), std::move(locs));
    return csi;
  }

  static uint64_t CountScan(ColumnStoreIndex* csi,
                            const std::vector<SegPredicate>& preds,
                            QueryMetrics* m = nullptr) {
    uint64_t count = 0;
    auto fn = [&](const ColumnBatch& b) {
      count += b.count;
      return true;
    };
    const CsiViewPtr view = csi->Pin(m).value();
    view->ScanGroups(0, view->num_row_groups(), {0, 1}, preds, fn, m);
    view->ScanDelta({0, 1}, preds, fn, m);
    return count;
  }

  DiskModel disk_;
  BufferPool pool_;
};

TEST_F(CsiTest, BulkLoadAndFullScan) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kPrimary, 20000);
  EXPECT_EQ(csi->num_rows(), 20000u);
  EXPECT_EQ(csi->num_row_groups(), 5);  // 20000 / 4096 -> 5 groups
  EXPECT_EQ(CountScan(csi.get(), {}), 20000u);
}

TEST_F(CsiTest, PredicatePushdownAndSegmentElimination) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kPrimary, 20000);
  QueryMetrics m;
  // col0 in [100, 199]: data sorted on col0 -> only 1 group touched.
  EXPECT_EQ(CountScan(csi.get(), {{0, 100, 199}}, &m), 100u);
  EXPECT_GT(m.segments_skipped.load(), 0u);
}

TEST_F(CsiTest, DeltaStoreInsertVisibleToScan) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kSecondary, 10000);
  std::vector<int64_t> row = {999999, 42};
  csi->Insert(row, 10000, nullptr);
  EXPECT_EQ(csi->delta_rows(), 1u);
  EXPECT_EQ(CountScan(csi.get(), {{0, 999999, 999999}}), 1u);
  EXPECT_EQ(csi->num_rows(), 10001u);
}

TEST_F(CsiTest, SecondaryDeleteUsesDeleteBuffer) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kSecondary, 10000);
  std::vector<int64_t> locs = {5, 6, 7};
  ASSERT_TRUE(csi->DeleteBatch(locs, nullptr).ok());
  EXPECT_EQ(csi->delete_buffer_rows(), 3u);
  // The anti-join hides the deleted rows.
  EXPECT_EQ(CountScan(csi.get(), {}), 9997u);
  EXPECT_EQ(CountScan(csi.get(), {{0, 5, 7}}), 0u);
}

TEST_F(CsiTest, PrimaryDeleteUsesDeleteBitmap) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kPrimary, 10000);
  std::vector<int64_t> locs = {5, 6, 7};
  QueryMetrics m;
  ASSERT_TRUE(csi->DeleteBatch(locs, &m).ok());
  EXPECT_EQ(csi->delete_buffer_rows(), 0u);  // no delete buffer on primary
  EXPECT_EQ(csi->Pin().value()->group(0).deleted_count(), 3u);
  EXPECT_EQ(CountScan(csi.get(), {}), 9997u);
  // The delete had to decode locator segments (expensive path).
  EXPECT_GT(m.segments_scanned.load(), 0u);
}

TEST_F(CsiTest, DeleteFromDeltaStore) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kSecondary, 1000);
  std::vector<int64_t> row = {5555, 1};
  csi->Insert(row, 1000, nullptr);
  std::vector<int64_t> locs = {1000};
  ASSERT_TRUE(csi->DeleteBatch(locs, nullptr).ok());
  EXPECT_EQ(csi->delta_rows(), 0u);
  EXPECT_EQ(csi->delete_buffer_rows(), 0u);  // it was a delta row
  EXPECT_EQ(CountScan(csi.get(), {}), 1000u);
}

TEST_F(CsiTest, ReorganizeCompactsEverything) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kSecondary, 10000);
  for (int i = 0; i < 100; ++i) {
    std::vector<int64_t> row = {100000 + i, i};
    csi->Insert(row, 10000 + i, nullptr);
  }
  std::vector<int64_t> dels;
  for (int64_t i = 0; i < 50; ++i) dels.push_back(i);
  ASSERT_TRUE(csi->DeleteBatch(dels, nullptr).ok());
  const uint64_t before = csi->num_rows();
  csi->Reorganize();
  EXPECT_EQ(csi->delta_rows(), 0u);
  EXPECT_EQ(csi->delete_buffer_rows(), 0u);
  EXPECT_EQ(csi->num_rows(), before);
  EXPECT_EQ(CountScan(csi.get(), {}), before);
}

TEST_F(CsiTest, PerColumnSizes) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kPrimary, 20000);
  // col1 (97 distinct values) must compress far better than col0 (unique).
  EXPECT_LT(csi->column_size_bytes(1), csi->column_size_bytes(0) / 2);
  EXPECT_GE(csi->size_bytes(),
            csi->column_size_bytes(0) + csi->column_size_bytes(1));
}

TEST_F(CsiTest, ColdScanChargesIo) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kPrimary, 50000);
  pool_.EvictAll();
  QueryMetrics cold;
  CountScan(csi.get(), {}, &cold);
  EXPECT_GT(cold.sim_io_ms(), 0.0);
  QueryMetrics hot;
  CountScan(csi.get(), {}, &hot);
  EXPECT_DOUBLE_EQ(hot.sim_io_ms(), 0.0);
}

TEST_F(CsiTest, SortedColumnstoreSkipsAggressively) {
  // Section 4.5 extension: global sort on col0 before forming row groups.
  CsiOptions opts;
  opts.rowgroup_size = 4096;
  opts.sort_col = 0;
  ColumnStoreIndex csi(ColumnStoreIndex::Kind::kSecondary, 2, &pool_, opts);
  Rng rng(9);
  std::vector<std::vector<int64_t>> cols(2);
  std::vector<int64_t> locs;
  for (int i = 0; i < 40000; ++i) {
    cols[0].push_back(rng.Uniform(0, 1000000));  // random order in
    cols[1].push_back(i);
    locs.push_back(i);
  }
  int64_t expect = 0;
  for (int i = 0; i < 40000; ++i) {
    if (cols[0][i] >= 500000 && cols[0][i] <= 500999) ++expect;
  }
  csi.BulkLoad(std::move(cols), std::move(locs));
  QueryMetrics m;
  uint64_t count = 0;
  auto fn = [&](const ColumnBatch& b) {
    count += b.count;
    return true;
  };
  const CsiViewPtr view = csi.Pin().value();
  view->ScanGroups(0, view->num_row_groups(), {0, 1}, {{0, 500000, 500999}},
                   fn, &m);
  EXPECT_EQ(count, static_cast<uint64_t>(expect));
  // Sorted segments: nearly every group skipped.
  EXPECT_GT(m.segments_skipped.load(), 8u);
  // Locators still identify the original rows (round trip via col1 == loc).
  view->ScanGroups(0, 2, {1}, {},
                 [&](const ColumnBatch& b) {
                   for (int i = 0; i < b.count; ++i) {
                     EXPECT_EQ(b.cols[0][i], b.locators[i]);
                   }
                   return true;
                 },
                 nullptr);
}

TEST_F(CsiTest, SortedColumnstoreSurvivesReorganize) {
  CsiOptions opts;
  opts.rowgroup_size = 2048;
  opts.sort_col = 0;
  ColumnStoreIndex csi(ColumnStoreIndex::Kind::kSecondary, 2, &pool_, opts);
  Rng rng(10);
  std::vector<std::vector<int64_t>> cols(2);
  std::vector<int64_t> locs;
  for (int i = 0; i < 10000; ++i) {
    cols[0].push_back(rng.Uniform(0, 1000000));
    cols[1].push_back(i);
    locs.push_back(i);
  }
  csi.BulkLoad(std::move(cols), std::move(locs));
  // Trickle-insert unsorted rows, then reorganize: order must be restored.
  for (int i = 0; i < 100; ++i) {
    std::vector<int64_t> row = {rng.Uniform(0, 1000000), 10000 + i};
    csi.Insert(row, 10000 + i, nullptr);
  }
  csi.Reorganize();
  int64_t prev_max = INT64_MIN;
  const CsiViewPtr view = csi.Pin().value();
  for (int g = 0; g < view->num_row_groups(); ++g) {
    EXPECT_GE(view->group(g).rows->segment(0).min_value(), prev_max);
    prev_max = view->group(g).rows->segment(0).max_value();
  }
  EXPECT_EQ(csi.num_rows(), 10100u);
}

// Live-row census of a CSI: rows, SUM(col1) and distinct locators across
// the row groups and the delta store.
struct Census {
  uint64_t rows = 0;
  int64_t sum1 = 0;
  size_t distinct_locators = 0;
};

Census TakeCensus(const ColumnStoreIndex& csi) {
  Census c;
  std::unordered_set<int64_t> locs;
  auto fn = [&](const ColumnBatch& b) {
    c.rows += b.count;
    for (int i = 0; i < b.count; ++i) {
      c.sum1 += b.cols[1][i];
      locs.insert(b.locators[i]);
    }
    return true;
  };
  const CsiViewPtr view = csi.Pin().value();
  EXPECT_TRUE(
      view->ScanGroups(0, view->num_row_groups(), {0, 1}, {}, fn, nullptr).ok());
  EXPECT_TRUE(view->ScanDelta({0, 1}, {}, fn, nullptr).ok());
  c.distinct_locators = locs.size();
  return c;
}

uint64_t CompressedBytes(const ColumnStoreIndex& csi) {
  uint64_t b = 0;
  const CsiViewPtr view = csi.Pin().value();
  for (int g = 0; g < view->num_row_groups(); ++g) {
    b += view->group(g).rows->size_bytes();
  }
  return b;
}

// Raw bytes of `rows` delta rows of a 2-column index: 2 columns + locator.
constexpr uint64_t RawDeltaBytes(uint64_t rows) { return rows * 3 * 8; }

TEST_F(CsiTest, DeltaClosesOnceItOutweighsCompressedData) {
  // One bulk-loaded row group; a row-group size no trickle stream reaches.
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kSecondary, 10000, 1 << 17);
  ASSERT_EQ(csi->num_row_groups(), 1);
  uint64_t ref_rows = 10000;
  int64_t ref_sum = 0;
  for (int64_t i = 0; i < 10000; ++i) ref_sum += i % 97;
  int flushes = 0;
  for (int64_t i = 0; flushes < 2; ++i) {
    ASSERT_LT(i, 100000) << "delta never closed";
    const int groups = csi->num_row_groups();
    const uint64_t compressed = CompressedBytes(*csi);
    const uint64_t delta = csi->delta_rows();
    const bool closes = RawDeltaBytes(delta + 1) > compressed;
    if (closes) {
      const Census before = TakeCensus(*csi);
      EXPECT_EQ(before.rows, ref_rows);
      EXPECT_EQ(before.sum1, ref_sum);
      EXPECT_EQ(csi->num_rows(), ref_rows);
    }
    std::vector<int64_t> row = {100000 + i, i % 13};
    ASSERT_TRUE(csi->Insert(row, 10000 + i, nullptr).ok());
    ++ref_rows;
    ref_sum += i % 13;
    if (!closes) {
      ASSERT_EQ(csi->num_row_groups(), groups) << "closed early at " << i;
      ASSERT_EQ(csi->delta_rows(), delta + 1);
      continue;
    }
    // Closed before the row-group size, into one new row group.
    ++flushes;
    EXPECT_LT(delta + 1, csi->options().rowgroup_size);
    ASSERT_EQ(csi->num_row_groups(), groups + 1);
    EXPECT_EQ(csi->delta_rows(), 0u);
    EXPECT_EQ(csi->Pin().value()->group(groups).rows->num_rows(), delta + 1);
    EXPECT_EQ(csi->num_rows(), ref_rows);
    const Census after = TakeCensus(*csi);
    EXPECT_EQ(after.rows, ref_rows);
    EXPECT_EQ(after.sum1, ref_sum);
    EXPECT_EQ(after.distinct_locators, ref_rows);
  }
}

TEST_F(CsiTest, DeltaWithoutCompressedRowsWaitsForRowGroupSize) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kSecondary, 0, 256);
  ASSERT_EQ(csi->num_row_groups(), 0);
  for (int64_t i = 0; i < 255; ++i) {
    std::vector<int64_t> row = {i, i % 7};
    ASSERT_TRUE(csi->Insert(row, i, nullptr).ok());
  }
  EXPECT_EQ(csi->num_row_groups(), 0);
  EXPECT_EQ(csi->delta_rows(), 255u);
  std::vector<int64_t> row = {255, 255 % 7};
  ASSERT_TRUE(csi->Insert(row, 255, nullptr).ok());
  EXPECT_EQ(csi->num_row_groups(), 1);
  EXPECT_EQ(csi->delta_rows(), 0u);
  EXPECT_EQ(TakeCensus(*csi).rows, 256u);
}

TEST_F(CsiTest, FailedEarlyCloseIsDeferredWithoutLosingRows) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kSecondary, 10000, 1 << 17);
  const uint64_t compressed = CompressedBytes(*csi);
  // Fill the delta up to the last row that does not close it.
  int64_t next = 0;
  while (RawDeltaBytes(csi->delta_rows() + 1) <= compressed) {
    std::vector<int64_t> row = {100000 + next, next % 13};
    ASSERT_TRUE(csi->Insert(row, 10000 + next, nullptr).ok());
    ++next;
  }
  ASSERT_EQ(csi->num_row_groups(), 1);
  {
    ScopedFailPoint fp("csi.compress_delta", FailSpec::Always(Code::kIoError));
    for (int k = 0; k < 5; ++k, ++next) {
      std::vector<int64_t> row = {100000 + next, next % 13};
      ASSERT_TRUE(csi->Insert(row, 10000 + next, nullptr).ok());
    }
    EXPECT_EQ(FailPoints::Instance().HitCount("csi.compress_delta"), 5u);
    EXPECT_EQ(csi->num_row_groups(), 1);
    EXPECT_EQ(csi->delta_rows(), static_cast<uint64_t>(next));
  }
  int64_t ref_sum = 0;
  for (int64_t i = 0; i < 10000; ++i) ref_sum += i % 97;
  for (int64_t i = 0; i < next; ++i) ref_sum += i % 13;
  const uint64_t ref_rows = 10000 + static_cast<uint64_t>(next);
  Census deferred = TakeCensus(*csi);
  EXPECT_EQ(deferred.rows, ref_rows);
  EXPECT_EQ(deferred.sum1, ref_sum);
  EXPECT_EQ(deferred.distinct_locators, ref_rows);
  // The next insert retries the flush and succeeds.
  std::vector<int64_t> row = {100000 + next, next % 13};
  ASSERT_TRUE(csi->Insert(row, 10000 + next, nullptr).ok());
  EXPECT_EQ(csi->num_row_groups(), 2);
  EXPECT_EQ(csi->delta_rows(), 0u);
  const Census flushed = TakeCensus(*csi);
  EXPECT_EQ(flushed.rows, ref_rows + 1);
  EXPECT_EQ(flushed.sum1, ref_sum + next % 13);
  EXPECT_EQ(flushed.distinct_locators, ref_rows + 1);
  EXPECT_EQ(csi->num_rows(), ref_rows + 1);
}

TEST_F(CsiTest, RowUpdatedAcrossDeltaClosesKeepsOneLiveCopy) {
  // An update is delete + re-insert under the same locator, so once the
  // delta closes twice the locator has dead copies in older row groups;
  // deletes must land on the live copy.
  for (auto kind :
       {ColumnStoreIndex::Kind::kSecondary, ColumnStoreIndex::Kind::kPrimary}) {
    SCOPED_TRACE(kind == ColumnStoreIndex::Kind::kPrimary ? "primary"
                                                          : "secondary");
    auto csi = MakeCsi(kind, 1000, 1 << 17);
    int64_t ref_sum = 0;
    for (int64_t i = 0; i < 1000; ++i) ref_sum += i % 97;
    int64_t old_value = 7 % 97;
    for (int64_t round = 1; round <= 3; ++round) {
      const std::vector<int64_t> loc = {7};
      ASSERT_TRUE(csi->DeleteBatch(loc, nullptr).ok());
      const std::vector<int64_t> row = {7, 1000 + round};
      ASSERT_TRUE(csi->Insert(row, 7, nullptr).ok());
      ASSERT_TRUE(csi->CompressDelta(nullptr).ok());
      ref_sum += 1000 + round - old_value;
      old_value = 1000 + round;
      EXPECT_EQ(csi->num_row_groups(), 1 + round);
      EXPECT_EQ(csi->num_rows(), 1000u);
      const Census c = TakeCensus(*csi);
      EXPECT_EQ(c.rows, 1000u) << "round " << round;
      EXPECT_EQ(c.distinct_locators, 1000u);
      EXPECT_EQ(c.sum1, ref_sum);
    }
  }
}

// A view with every kind of row state: compressed rows, bitmap deletes, a
// delete-buffer entry, delta rows, and a delta row whose compressed copy is
// in the delete buffer (an update). Each scan must match a naive filter
// over the rows as they were inserted and deleted.
TEST_F(CsiTest, ViewScansMatchNaiveFilterOverEveryRowState) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kSecondary, 10000);
  using Row = std::pair<int64_t, int64_t>;
  std::map<int64_t, Row> live;  // locator -> (col0, col1)
  for (int64_t i = 0; i < 10000; ++i) live[i] = {i, i % 97};
  std::vector<int64_t> bitmap_dels, buffer_dels;
  for (int64_t i = 0; i < 10000; ++i) {
    if (i % 11 == 0) {
      bitmap_dels.push_back(i);
    } else if (i % 13 == 5) {
      buffer_dels.push_back(i);
    }
  }
  ASSERT_TRUE(csi->DeleteBatch(bitmap_dels, nullptr).ok());
  ASSERT_TRUE(csi->CompactDeleteBuffer(nullptr).ok());
  ASSERT_TRUE(csi->DeleteBatch(buffer_dels, nullptr).ok());
  for (int64_t l : bitmap_dels) live.erase(l);
  for (int64_t l : buffer_dels) live.erase(l);
  for (int64_t k = 0; k < 300; ++k) {
    const std::vector<int64_t> row = {50000 + k, k % 97};
    ASSERT_TRUE(csi->Insert(row, 20000 + k, nullptr).ok());
    live[20000 + k] = {row[0], row[1]};
  }
  // Locator 5 is in the delete buffer; its re-inserted image is live.
  const std::vector<int64_t> updated = {77778, 40};
  ASSERT_TRUE(csi->Insert(updated, 5, nullptr).ok());
  live[5] = {updated[0], updated[1]};
  ASSERT_EQ(csi->delta_rows(), 301u);
  ASSERT_GT(csi->delete_buffer_rows(), 0u);

  const CsiViewPtr view = csi->Pin().value();
  ASSERT_GT(view->group(0).deleted_count(), 0u);
  BlockedBloomFilter bloom;
  bloom.Init(live.size());
  for (const auto& [loc, r] : live) {
    if (r.first % 3 == 0) bloom.Insert(r.first);
  }
  QueryMetrics join_m;
  const std::vector<ScanKeyFilter> kfs = {{0, &bloom, &join_m}};
  const std::vector<SegPredicate> preds = {{1, 10, 60}};

  std::map<int64_t, Row> want, want_delta;
  uint64_t checks = 0;
  for (const auto& [loc, r] : live) {
    if (r.second < 10 || r.second > 60) continue;
    ++checks;
    if (!bloom.MayContain(r.first)) continue;
    want[loc] = r;
    if (loc >= 20000 || loc == 5) want_delta[loc] = r;
  }
  ASSERT_GT(want_delta.size(), 0u);
  ASSERT_LT(want.size(), checks);  // the filter drops rows

  auto collect = [](std::map<int64_t, Row>* out) {
    return [out](const ColumnBatch& b) {
      for (int j = 0; j < b.count; ++j) {
        const uint32_t i = b.sel != nullptr ? b.sel[j] : j;
        EXPECT_TRUE(out->emplace(b.locators[i], Row{b.cols[0][i], b.cols[1][i]})
                        .second)
            << "locator " << b.locators[i] << " emitted twice";
      }
      return true;
    };
  };
  std::map<int64_t, Row> got_groups, got_delta;
  QueryMetrics scan_m, delta_m;
  ASSERT_TRUE(view->ScanGroups(0, view->num_row_groups(), {0, 1}, preds,
                               collect(&got_groups), &scan_m, true, &kfs)
                  .ok());
  ASSERT_TRUE(
      view->ScanDelta({0, 1}, preds, collect(&got_delta), &delta_m, &kfs).ok());
  EXPECT_EQ(got_delta, want_delta);
  std::map<int64_t, Row> got = got_groups;
  got.insert(got_delta.begin(), got_delta.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), got_groups.size() + got_delta.size());
  // Bloom checks and drops belong to the join; the delta scan charges the
  // statement nothing (its rows were charged when the view was pinned).
  EXPECT_EQ(join_m.join_bloom_checks.load(), checks);
  EXPECT_EQ(join_m.join_bloom_filtered.load(), checks - want.size());
  EXPECT_EQ(scan_m.join_bloom_checks.load(), 0u);
  EXPECT_EQ(scan_m.rows_output.load(), got_groups.size());
  EXPECT_EQ(delta_m.rows_scanned.load(), 0u);
  EXPECT_EQ(delta_m.rows_output.load(), 0u);

  std::map<int64_t, Row> all;
  auto add = [&](int64_t loc, const int64_t* row) {
    EXPECT_TRUE(all.emplace(loc, Row{row[0], row[1]}).second);
    return true;
  };
  ASSERT_TRUE(view->ForEachRow(add, nullptr).ok());
  EXPECT_EQ(all, live);
}

TEST_F(CsiTest, ScanEarlyStop) {
  auto csi = MakeCsi(ColumnStoreIndex::Kind::kPrimary, 20000);
  int batches = 0;
  const CsiViewPtr view = csi->Pin().value();
  view->ScanGroups(0, view->num_row_groups(), {0}, {},
                   [&](const ColumnBatch&) { return ++batches < 2; }, nullptr);
  EXPECT_EQ(batches, 2);
}

}  // namespace
}  // namespace hd
