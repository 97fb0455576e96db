// Tests for the catalog: packing, dictionaries, stats, physical design
// changes, and DML fan-out consistency across index types.
#include <gtest/gtest.h>

#include "catalog/database.h"
#include "common/rng.h"

namespace hd {
namespace {

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64, 0},
                 {"price", ValueType::kDouble, 0},
                 {"name", ValueType::kString, 8},
                 {"day", ValueType::kDate, 0}});
}

std::vector<Row> TestRows(int n, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<Row> rows;
  static const char* kNames[] = {"alpha", "bravo", "charlie", "delta", "echo"};
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(i), Value::Double(i * 1.5),
                    Value::String(kNames[rng.Uniform(0, 4)]),
                    Value::Date(static_cast<int32_t>(rng.Uniform(0, 365)))});
  }
  return rows;
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() {
    t_ = db_.CreateTable("t", TestSchema()).value();
    t_->BulkLoad(TestRows(1000));
  }
  Database db_;
  Table* t_;
};

TEST_F(TableTest, PackUnpackRoundTrip) {
  Row r = {Value::Int64(7), Value::Double(-3.25), Value::String("bravo"),
           Value::Date(100)};
  PackedRow p = t_->PackRow(r);
  Row back = t_->UnpackRow(p);
  EXPECT_EQ(back[0].i64(), 7);
  EXPECT_DOUBLE_EQ(back[1].f64(), -3.25);
  EXPECT_EQ(back[2].str(), "bravo");
  EXPECT_EQ(back[3].i32(), 100);
}

TEST_F(TableTest, StringDictOrderPreservingAfterBulkLoad) {
  const StringDict* d = t_->dict(2);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->sorted());
  EXPECT_LT(d->Lookup("alpha"), d->Lookup("bravo"));
  EXPECT_LT(d->Lookup("bravo"), d->Lookup("charlie"));
}

TEST_F(TableTest, PackBoundAbsentString) {
  bool found = true;
  t_->PackBound(2, Value::String("bzzz"), 0, &found);  // absent, equality
  EXPECT_FALSE(found);
  // Range rounding: "bzzz" falls between "bravo" and "charlie".
  int64_t down = t_->PackBound(2, Value::String("bzzz"), -1, &found);
  int64_t up = t_->PackBound(2, Value::String("bzzz"), +1, &found);
  EXPECT_EQ(down, t_->dict(2)->Lookup("bravo"));
  EXPECT_EQ(up, t_->dict(2)->Lookup("charlie"));
}

TEST_F(TableTest, StatsBuilt) {
  const TableStats& s = t_->stats();
  ASSERT_TRUE(s.valid());
  EXPECT_EQ(s.row_count, 1000u);
  EXPECT_EQ(s.columns[0].min_value(), 0);
  EXPECT_EQ(s.columns[0].max_value(), 999);
  EXPECT_NEAR(s.columns[0].SelectivityRange(0, 499), 0.5, 0.05);
  EXPECT_EQ(s.columns[2].distinct_count(), 5u);
}

TEST_F(TableTest, SetPrimaryBTreePreservesData) {
  ASSERT_TRUE(t_->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  EXPECT_EQ(t_->num_rows(), 1000u);
  // Rows come back in key order.
  int64_t prev = -1;
  t_->ScanAll(
      [&](int64_t, const int64_t* row) {
        EXPECT_GT(row[0], prev);
        prev = row[0];
        return true;
      },
      nullptr);
}

TEST_F(TableTest, SetPrimaryColumnStorePreservesData) {
  ASSERT_TRUE(t_->SetPrimary(PrimaryKind::kColumnStore).ok());
  EXPECT_EQ(t_->num_rows(), 1000u);
  uint64_t n = 0;
  t_->ScanAll([&](int64_t, const int64_t*) {
    ++n;
    return true;
  }, nullptr);
  EXPECT_EQ(n, 1000u);
}

TEST_F(TableTest, SecondaryBTreeLookup) {
  ASSERT_TRUE(t_->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  ASSERT_TRUE(t_->CreateSecondaryBTree("ix_day", {3}, {1}).ok());
  TableIndex* si = t_->FindSecondary("ix_day");
  ASSERT_NE(si, nullptr);
  EXPECT_EQ(si->btree->num_entries(), 1000u);
  // Payload must include the included col and the pk col (id).
  EXPECT_NE(std::find(si->payload_cols.begin(), si->payload_cols.end(), 0),
            si->payload_cols.end());
}

TEST_F(TableTest, OnlyOneCsiPerTable) {
  ASSERT_TRUE(t_->CreateSecondaryColumnStore("csi1").ok());
  EXPECT_FALSE(t_->CreateSecondaryColumnStore("csi2").ok());
}

TEST_F(TableTest, InsertFansOutToAllIndexes) {
  ASSERT_TRUE(t_->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  ASSERT_TRUE(t_->CreateSecondaryBTree("ix_day", {3}, {}).ok());
  ASSERT_TRUE(t_->CreateSecondaryColumnStore("csi").ok());
  Row r = {Value::Int64(5000), Value::Double(1.0), Value::String("alpha"),
           Value::Date(999)};
  t_->InsertRow(r, nullptr);
  EXPECT_EQ(t_->num_rows(), 1001u);
  EXPECT_EQ(t_->FindSecondary("ix_day")->btree->num_entries(), 1001u);
  EXPECT_EQ(t_->FindSecondary("csi")->csi->num_rows(), 1001u);
  EXPECT_EQ(t_->FindSecondary("csi")->csi->delta_rows(), 1u);
}

TEST_F(TableTest, DeleteFansOut) {
  ASSERT_TRUE(t_->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  ASSERT_TRUE(t_->CreateSecondaryBTree("ix_day", {3}, {}).ok());
  ASSERT_TRUE(t_->CreateSecondaryColumnStore("csi").ok());
  // Find row id=10 via scan.
  std::vector<RowRef> victims;
  t_->ScanAll(
      [&](int64_t rid, const int64_t* row) {
        if (row[0] == 10) {
          victims.push_back({rid, PackedRow(row, row + 4)});
          return false;
        }
        return true;
      },
      nullptr);
  ASSERT_EQ(victims.size(), 1u);
  ASSERT_TRUE(t_->DeleteRows(victims, nullptr).ok());
  EXPECT_EQ(t_->num_rows(), 999u);
  EXPECT_EQ(t_->FindSecondary("ix_day")->btree->num_entries(), 999u);
  EXPECT_EQ(t_->FindSecondary("csi")->csi->num_rows(), 999u);
}

TEST_F(TableTest, UpdatePreservesRowIdAndIndexes) {
  ASSERT_TRUE(t_->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  ASSERT_TRUE(t_->CreateSecondaryBTree("ix_day", {3}, {}).ok());
  std::vector<RowRef> victims;
  t_->ScanAll(
      [&](int64_t rid, const int64_t* row) {
        if (row[0] == 20) {
          victims.push_back({rid, PackedRow(row, row + 4)});
          return false;
        }
        return true;
      },
      nullptr);
  ASSERT_EQ(victims.size(), 1u);
  PackedRow nr = victims[0].row;
  nr[3] = 12345;  // change the secondary's key column
  ASSERT_TRUE(t_->UpdateRows(victims, {nr}, nullptr).ok());
  EXPECT_EQ(t_->num_rows(), 1000u);
  EXPECT_EQ(t_->FindSecondary("ix_day")->btree->num_entries(), 1000u);
  // Row must be findable under the new day value.
  bool seen = false;
  t_->FindSecondary("ix_day")->btree->Scan(
      Bound::Inclusive({12345}), Bound::Inclusive({12345}),
      [&](const int64_t*, const int64_t*) {
        seen = true;
        return false;
      },
      nullptr);
  EXPECT_TRUE(seen);
}

TEST_F(TableTest, FetchRowByLocatorAllPrimaries) {
  // Heap.
  PackedRow out;
  ASSERT_TRUE(t_->FetchRow(17, {}, &out, nullptr).ok());
  EXPECT_EQ(out[0], 17);
  // B+ tree (needs pk hint).
  ASSERT_TRUE(t_->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  int64_t rid17 = -1;
  PackedRow row17;
  t_->ScanAll(
      [&](int64_t rid, const int64_t* row) {
        if (row[0] == 17) {
          rid17 = rid;
          row17.assign(row, row + 4);
          return false;
        }
        return true;
      },
      nullptr);
  std::vector<int64_t> pk = {row17[0]};
  ASSERT_TRUE(t_->FetchRow(rid17, pk, &out, nullptr).ok());
  EXPECT_EQ(out[0], 17);
  // Primary columnstore.
  ASSERT_TRUE(t_->SetPrimary(PrimaryKind::kColumnStore).ok());
  int64_t ridc = -1;
  t_->ScanAll(
      [&](int64_t rid, const int64_t* row) {
        if (row[0] == 17) {
          ridc = rid;
          return false;
        }
        return true;
      },
      nullptr);
  ASSERT_TRUE(t_->FetchRow(ridc, {}, &out, nullptr).ok());
  EXPECT_EQ(out[0], 17);
}

TEST_F(TableTest, FetchRowFindsUpdatedRowInPrimaryColumnstore) {
  ASSERT_TRUE(t_->SetPrimary(PrimaryKind::kColumnStore).ok());
  RowRef ref;
  t_->ScanAll(
      [&](int64_t rid, const int64_t* row) {
        if (row[0] != 17) return true;
        ref.rid = rid;
        ref.row.assign(row, row + 4);
        return false;
      },
      nullptr);
  ASSERT_GE(ref.rid, 0);
  // An update deletes the compressed copy and re-inserts the row under the
  // same locator; closing the delta twice leaves two dead copies.
  for (int round = 1; round <= 3; ++round) {
    PackedRow updated = ref.row;
    updated[0] = 1000 + round;
    ASSERT_TRUE(t_->UpdateRows({ref}, {updated}, nullptr).ok());
    ref.row = updated;
    PackedRow out;
    ASSERT_TRUE(t_->FetchRow(ref.rid, {}, &out, nullptr).ok()) << round;
    EXPECT_EQ(out[0], 1000 + round);
    ASSERT_TRUE(t_->primary_csi()->CompressDelta(nullptr).ok());
    ASSERT_TRUE(t_->FetchRow(ref.rid, {}, &out, nullptr).ok()) << round;
    EXPECT_EQ(out[0], 1000 + round);
  }
}

TEST_F(TableTest, SampleBlocksApproximatesRatio) {
  std::vector<std::vector<int64_t>> cols;
  t_->SampleBlocks(0.5, 3, /*block_rows=*/16, &cols);
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_GT(cols[0].size(), 250u);
  EXPECT_LT(cols[0].size(), 750u);
}

TEST_F(TableTest, ApplyIndexDefDispatch) {
  IndexDef d;
  d.name = "csi_t";
  d.type = IndexDef::Type::kColumnStore;
  ASSERT_TRUE(t_->ApplyIndexDef(d).ok());
  EXPECT_TRUE(t_->has_secondary_csi());
  IndexDef b;
  b.name = "ix";
  b.type = IndexDef::Type::kBTree;
  b.key_cols = {3};
  ASSERT_TRUE(t_->ApplyIndexDef(b).ok());
  EXPECT_NE(t_->FindSecondary("ix"), nullptr);
}

TEST(DatabaseTest, CreateDropTables) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", TestSchema()).ok());
  EXPECT_FALSE(db.CreateTable("a", TestSchema()).ok());
  EXPECT_NE(db.GetTable("a"), nullptr);
  ASSERT_TRUE(db.DropTable("a").ok());
  EXPECT_EQ(db.GetTable("a"), nullptr);
  EXPECT_TRUE(db.DropTable("a").IsNotFound());
}

TEST(GeeTest, ExactOnFullData) {
  std::vector<int64_t> v = {1, 1, 2, 3, 3, 3, 4};
  EXPECT_EQ(GeeEstimateDistinct(v, v.size()), 4u);
}

TEST(GeeTest, ScalesSingletons) {
  // Sample of 100 values from 10000 rows: 50 singletons, 25 doubles.
  std::vector<int64_t> v;
  for (int i = 0; i < 50; ++i) v.push_back(i);
  for (int i = 1000; i < 1025; ++i) {
    v.push_back(i);
    v.push_back(i);
  }
  std::sort(v.begin(), v.end());
  const uint64_t est = GeeEstimateDistinct(v, 10000);
  // d_more (25) + sqrt(100) * f1 (50) = 525.
  EXPECT_EQ(est, 525u);
}

TEST(ColumnStatsTest, EqualitySelectivity) {
  std::vector<int64_t> v;
  for (int i = 0; i < 10000; ++i) v.push_back(i % 100);
  ColumnStats s;
  s.Build(std::move(v), 10000);
  EXPECT_NEAR(s.SelectivityEq(50), 0.01, 0.005);
  EXPECT_DOUBLE_EQ(s.SelectivityEq(5000), 0.0);  // out of domain
}

}  // namespace
}  // namespace hd
