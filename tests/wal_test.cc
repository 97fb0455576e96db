// WAL + recovery tests (storage/wal.h, catalog/recovery.h): record
// framing and CRC rejection, torn-tail discipline, LSN ordering across
// segment rotation, group-commit fsync batching, checkpoint round-trips,
// and the kill-9 recovery contract (committed durable, uncommitted gone).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "catalog/database.h"
#include "catalog/recovery.h"
#include "common/failpoint.h"
#include "storage/wal.h"

namespace hd {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const std::string d = testing::TempDir() + "/wal_" + tag + "_" +
                        std::to_string(::getpid());
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

WalRecord MakeInsert(uint64_t txn, uint32_t table, int64_t rid, int64_t v) {
  WalRecord rec;
  rec.type = WalRecordType::kInsert;
  rec.txn = txn;
  rec.table_id = table;
  rec.rid = rid;
  rec.new_row = {WalValue::Packed(v), WalValue::Str("s" + std::to_string(v)),
                 WalValue::Null()};
  return rec;
}

class WalTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::Instance().DisarmAll(); }
};

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<uint8_t> out;
  if (f == nullptr) return out;
  uint8_t buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

// The on-disk formats are fixed little-endian layouts: these bytes are the
// format, so a change that round-trips but moves a byte must fail here.
TEST_F(WalTest, RecordBodyGoldenBytes) {
  WalRecord rec;
  rec.lsn = 0x0102030405060708ull;
  rec.type = WalRecordType::kInsert;
  rec.txn = 0x1122;
  rec.table_id = 0x33;
  rec.rid = -2;
  rec.new_row = {WalValue::Packed(0x0a0b), WalValue::Str("hi"),
                 WalValue::Null()};
  const std::vector<uint8_t> golden = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // lsn
      0x03,                                            // type: insert
      0x22, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // txn
      0x33, 0x00, 0x00, 0x00,                          // table_id
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // rid
      0x03, 0x00, 0x00, 0x00,                          // row: 3 values
      0x00, 0x0b, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // packed
      0x01, 0x02, 0x00, 0x00, 0x00, 'h', 'i',                // string
      0x02,                                                  // null
  };
  std::vector<uint8_t> body;
  rec.EncodeBody(&body);
  EXPECT_EQ(body, golden);

  WalRecord got;
  ASSERT_TRUE(WalRecord::DecodeBody(golden.data(), golden.size(), &got).ok());
  EXPECT_EQ(got.lsn, rec.lsn);
  EXPECT_EQ(got.type, WalRecordType::kInsert);
  EXPECT_EQ(got.txn, rec.txn);
  EXPECT_EQ(got.table_id, rec.table_id);
  EXPECT_EQ(got.rid, -2);
  ASSERT_EQ(got.new_row.size(), 3u);
  EXPECT_EQ(got.new_row[0].packed, 0x0a0b);
  EXPECT_EQ(got.new_row[1].str, "hi");
  EXPECT_EQ(got.new_row[2].tag, WalValue::Tag::kNull);
  // One byte short is a corrupt body, not a shorter record.
  EXPECT_FALSE(
      WalRecord::DecodeBody(golden.data(), golden.size() - 1, &got).ok());
}

TEST_F(WalTest, CheckpointHeaderGoldenBytes) {
  const std::string dir = FreshDir("golden_ckpt");
  {
    Database db;
    ASSERT_TRUE(db.OpenDurability(dir, DurabilityMode::kCommit).ok());
    ASSERT_TRUE(
        db.CreateTable("g", Schema({{"k", ValueType::kInt64, 0}})).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  const std::vector<uint8_t> current = ReadBytes(dir + "/CURRENT");
  ASSERT_FALSE(current.empty());
  const std::string name(current.begin(), current.end() - 1);
  const std::vector<uint8_t> file = ReadBytes(dir + "/" + name);
  const std::vector<uint8_t> golden = {
      'H',  'D',  'C',  'K',  'P',  'T',  '0',  '1',   // magic
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // next_lsn
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // next_txn
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // redo_start
      0x02, 0x00, 0x00, 0x00,                          // next_table_id
      0x01, 0x00, 0x00, 0x00,                          // 1 table
      0x01, 0x00, 0x00, 0x00,                          // table_id
      0x01, 0x00, 0x00, 0x00, 'g',                     // name
      0x01, 0x00, 0x00, 0x00,                          // 1 column
      0x01, 0x00, 0x00, 0x00, 'k',                     // column name
      0x01,                                            // type: int64
      0x00, 0x00, 0x00, 0x00,                          // avg_width
  };
  ASSERT_GE(file.size(), golden.size());
  EXPECT_EQ(std::vector<uint8_t>(file.begin(), file.begin() + golden.size()),
            golden);
  fs::remove_all(dir);
}

TEST_F(WalTest, AppendReadRoundtrip) {
  const std::string dir = FreshDir("roundtrip");
  {
    WalManager wal(dir, DurabilityMode::kCommit);
    ASSERT_TRUE(wal.Open(1, 1).ok());
    const uint64_t txn = wal.AllocTxnId();
    WalRecord ins = MakeInsert(txn, 7, 0, 42);
    ASSERT_TRUE(wal.Append(&ins).ok());
    EXPECT_EQ(ins.lsn, 1u);
    WalRecord upd;
    upd.type = WalRecordType::kUpdate;
    upd.txn = txn;
    upd.table_id = 7;
    upd.rid = 0;
    upd.old_row = ins.new_row;
    upd.new_row = {WalValue::Packed(43), WalValue::Str("t"), WalValue::Null()};
    ASSERT_TRUE(wal.Append(&upd).ok());
    WalRecord reorg;
    reorg.type = WalRecordType::kCsiReorg;
    reorg.table_id = 7;
    reorg.aux = "csi_x";
    ASSERT_TRUE(wal.Append(&reorg).ok());
    ASSERT_TRUE(wal.Commit(txn).ok());
  }
  std::vector<WalRecord> got;
  uint64_t truncated = 777;
  ASSERT_TRUE(WalManager::ReadLog(
                  dir, [&](const WalRecord& r) { got.push_back(r); },
                  &truncated)
                  .ok());
  EXPECT_EQ(truncated, 0u);
  ASSERT_EQ(got.size(), 4u);  // insert, update, reorg, commit
  EXPECT_EQ(got[0].type, WalRecordType::kInsert);
  EXPECT_EQ(got[0].table_id, 7u);
  EXPECT_EQ(got[0].rid, 0);
  ASSERT_EQ(got[0].new_row.size(), 3u);
  EXPECT_EQ(got[0].new_row[0].tag, WalValue::Tag::kPacked);
  EXPECT_EQ(got[0].new_row[0].packed, 42);
  EXPECT_EQ(got[0].new_row[1].tag, WalValue::Tag::kString);
  EXPECT_EQ(got[0].new_row[1].str, "s42");
  EXPECT_EQ(got[0].new_row[2].tag, WalValue::Tag::kNull);
  EXPECT_EQ(got[1].type, WalRecordType::kUpdate);
  EXPECT_EQ(got[1].old_row[0].packed, 42);
  EXPECT_EQ(got[1].new_row[0].packed, 43);
  EXPECT_EQ(got[2].type, WalRecordType::kCsiReorg);
  EXPECT_EQ(got[2].aux, "csi_x");
  EXPECT_EQ(got[3].type, WalRecordType::kTxnCommit);
  for (size_t i = 1; i < got.size(); ++i) EXPECT_GT(got[i].lsn, got[i - 1].lsn);
}

TEST_F(WalTest, TornTailIsDiscarded) {
  const std::string dir = FreshDir("torn");
  {
    WalManager wal(dir, DurabilityMode::kCommit);
    ASSERT_TRUE(wal.Open(1, 1).ok());
    for (int i = 0; i < 5; ++i) {
      WalRecord r = MakeInsert(0, 1, i, i);
      ASSERT_TRUE(wal.Append(&r).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
  }
  // Simulate a torn write: append half a frame of garbage to the segment.
  std::string seg;
  for (const auto& e : fs::directory_iterator(WalManager::WalDir(dir))) {
    seg = e.path().string();
  }
  ASSERT_FALSE(seg.empty());
  {
    FILE* f = std::fopen(seg.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t garbage[] = {0x40, 0x00, 0x00, 0x00, 0xde, 0xad};
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  size_t n = 0;
  uint64_t truncated = 0;
  ASSERT_TRUE(
      WalManager::ReadLog(dir, [&](const WalRecord&) { ++n; }, &truncated)
          .ok());
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(truncated, sizeof(uint8_t[6]));
}

TEST_F(WalTest, CorruptFrameStopsSegment) {
  const std::string dir = FreshDir("crc");
  {
    WalManager wal(dir, DurabilityMode::kCommit);
    ASSERT_TRUE(wal.Open(1, 1).ok());
    for (int i = 0; i < 10; ++i) {
      WalRecord r = MakeInsert(0, 1, i, i);
      ASSERT_TRUE(wal.Append(&r).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
  }
  std::string seg;
  for (const auto& e : fs::directory_iterator(WalManager::WalDir(dir))) {
    seg = e.path().string();
  }
  // Flip one byte somewhere in the middle of the record stream.
  const auto size = fs::file_size(seg);
  {
    FILE* f = std::fopen(seg.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }
  size_t n = 0;
  uint64_t truncated = 0;
  ASSERT_TRUE(
      WalManager::ReadLog(dir, [&](const WalRecord&) { ++n; }, &truncated)
          .ok());
  EXPECT_LT(n, 10u);     // everything after the flipped byte is tail
  EXPECT_GT(truncated, 0u);
}

TEST_F(WalTest, SegmentRotationKeepsLsnOrderAndTruncates) {
  const std::string dir = FreshDir("rotate");
  WalOptions opts;
  opts.segment_bytes = 2048;  // force many rotations
  uint64_t last_appended = 0;
  {
    WalManager wal(dir, DurabilityMode::kCommit, opts);
    ASSERT_TRUE(wal.Open(1, 1).ok());
    for (int i = 0; i < 200; ++i) {
      WalRecord r = MakeInsert(0, 1, i, i);
      ASSERT_TRUE(wal.Append(&r, &last_appended).ok());
      // Rotation happens at sync time; sync in small batches so segment
      // budgets are enforced often, as the commit paths do.
      if (i % 10 == 9) ASSERT_TRUE(wal.Sync().ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
    size_t segments = 0;
    for (const auto& e : fs::directory_iterator(WalManager::WalDir(dir))) {
      (void)e;
      ++segments;
    }
    EXPECT_GT(segments, 3u);

    // Truncating below an LSN in the middle deletes whole old segments but
    // keeps every record >= the horizon.
    ASSERT_TRUE(wal.TruncateBelow(100).ok());
  }
  uint64_t prev = 0;
  uint64_t first = 0;
  size_t n = 0;
  ASSERT_TRUE(WalManager::ReadLog(dir,
                                  [&](const WalRecord& r) {
                                    if (first == 0) first = r.lsn;
                                    EXPECT_GT(r.lsn, prev);
                                    prev = r.lsn;
                                    ++n;
                                  },
                                  nullptr)
                  .ok());
  EXPECT_GT(n, 0u);
  EXPECT_LE(first, 100u);         // the horizon's segment survives whole
  EXPECT_EQ(prev, last_appended); // nothing at the tail was lost
}

TEST_F(WalTest, GroupCommitBatchesFsyncs) {
  const std::string dir = FreshDir("group");
  WalManager wal(dir, DurabilityMode::kGroup);
  ASSERT_TRUE(wal.Open(1, 1).ok());
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 40;
  const uint64_t fsyncs_before = wal.fsyncs();
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const uint64_t txn = wal.AllocTxnId();
        WalRecord r = MakeInsert(txn, 1, t * kTxnsPerThread + i, i);
        if (!wal.Append(&r).ok() || !wal.Commit(txn).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  const uint64_t fsyncs = wal.fsyncs() - fsyncs_before;
  constexpr uint64_t kCommits = kThreads * kTxnsPerThread;
  // The acceptance bar: with k >= 8 concurrent committers, batching must
  // push mean fsyncs per transaction below 1.
  EXPECT_LT(fsyncs, kCommits)
      << "group commit did not batch: " << fsyncs << " fsyncs for "
      << kCommits << " commits";
}

TEST_F(WalTest, CommitModeFsyncsEveryCommit) {
  const std::string dir = FreshDir("commitmode");
  WalManager wal(dir, DurabilityMode::kCommit);
  ASSERT_TRUE(wal.Open(1, 1).ok());
  const uint64_t before = wal.fsyncs();
  for (int i = 0; i < 10; ++i) {
    const uint64_t txn = wal.AllocTxnId();
    WalRecord r = MakeInsert(txn, 1, i, i);
    ASSERT_TRUE(wal.Append(&r).ok());
    ASSERT_TRUE(wal.Commit(txn).ok());
  }
  EXPECT_GE(wal.fsyncs() - before, 10u);
}

// Per-commit durability under concurrent committers: every Commit returns
// with its own record durable, by its own fsync or, when a concurrent
// commit's fsync already covered it, with none (a covered commit).
TEST_F(WalTest, CommitModeEveryCommitReturnsDurable) {
  const std::string dir = FreshDir("commitcovered");
  WalManager wal(dir, DurabilityMode::kCommit);
  ASSERT_TRUE(wal.Open(1, 1).ok());
  constexpr int kThreads = 6;
  constexpr int kTxnsPerThread = 30;
  constexpr uint64_t kCommits = kThreads * kTxnsPerThread;
  const uint64_t fsyncs_before = wal.fsyncs();
  // durable_lsn() as each txn's Commit returned, checked below against
  // the LSN its commit record got in the log.
  std::vector<std::map<uint64_t, uint64_t>> durable_at(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const uint64_t txn = wal.AllocTxnId();
        WalRecord r = MakeInsert(txn, 1, t * kTxnsPerThread + i, i);
        ASSERT_TRUE(wal.Append(&r).ok());
        ASSERT_TRUE(wal.Commit(txn).ok());
        durable_at[t][txn] = wal.durable_lsn();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(wal.fsyncs() - fsyncs_before + wal.covered_commits(), kCommits);
  uint64_t checked = 0;
  ASSERT_TRUE(WalManager::ReadLog(dir, [&](const WalRecord& rec) {
                if (rec.type != WalRecordType::kTxnCommit) return;
                for (const auto& m : durable_at) {
                  auto it = m.find(rec.txn);
                  if (it == m.end()) continue;
                  EXPECT_GE(it->second, rec.lsn) << "txn " << rec.txn;
                  ++checked;
                }
              }).ok());
  EXPECT_EQ(checked, kCommits);
}

TEST_F(WalTest, AppendFailpointRejectsRecord) {
  const std::string dir = FreshDir("appendfp");
  WalManager wal(dir, DurabilityMode::kCommit);
  ASSERT_TRUE(wal.Open(1, 1).ok());
  FailPoints::Instance().Arm("wal.append",
                             FailSpec::Always(Code::kIoError));
  WalRecord r = MakeInsert(1, 1, 0, 0);
  EXPECT_TRUE(wal.Append(&r).IsIoError());
  FailPoints::Instance().DisarmAll();
  WalRecord r2 = MakeInsert(1, 1, 0, 0);
  EXPECT_TRUE(wal.Append(&r2).ok());
}

TEST_F(WalTest, FsyncFailpointFailsCommitDurability) {
  const std::string dir = FreshDir("fsyncfp");
  WalManager wal(dir, DurabilityMode::kCommit);
  ASSERT_TRUE(wal.Open(1, 1).ok());
  const uint64_t txn = wal.AllocTxnId();
  WalRecord r = MakeInsert(txn, 1, 0, 0);
  ASSERT_TRUE(wal.Append(&r).ok());
  FailPoints::Instance().Arm("wal.fsync", FailSpec::OneShot(Code::kIoError));
  EXPECT_FALSE(wal.Commit(txn).ok());
  FailPoints::Instance().DisarmAll();
  // The log heals: later commits succeed.
  const uint64_t txn2 = wal.AllocTxnId();
  WalRecord r2 = MakeInsert(txn2, 1, 1, 1);
  ASSERT_TRUE(wal.Append(&r2).ok());
  EXPECT_TRUE(wal.Commit(txn2).ok());
}

// ---------------------------------------------------------------------
// Checkpoint + restart recovery through the Database/Table stack.
// ---------------------------------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::Instance().DisarmAll(); }

  static Schema DemoSchema() {
    return Schema({{"k", ValueType::kInt64, 0},
                   {"name", ValueType::kString, 8},
                   {"v", ValueType::kInt64, 0}});
  }

  /// Fresh durable database with `rows` bulk-loaded rows, checkpointed.
  static std::unique_ptr<Database> MakeDurable(const std::string& dir,
                                               DurabilityMode mode, int rows,
                                               PrimaryKind kind) {
    auto db = std::make_unique<Database>();
    EXPECT_TRUE(db->OpenDurability(dir, mode).ok());
    auto t = db->CreateTable("t", DemoSchema());
    EXPECT_TRUE(t.ok());
    std::vector<Row> load;
    for (int i = 0; i < rows; ++i) {
      load.push_back({Value::Int64(i), Value::String("n" + std::to_string(i % 7)),
                      Value::Int64(i * 10)});
    }
    t.value()->BulkLoad(load);
    if (kind != PrimaryKind::kHeap) {
      EXPECT_TRUE(t.value()->SetPrimary(kind, {0}).ok());
    }
    // One columnstore per table: a primary CSI precludes a secondary one.
    if (kind != PrimaryKind::kColumnStore) {
      EXPECT_TRUE(t.value()->CreateSecondaryColumnStore("csi_t").ok());
    }
    t.value()->Analyze();
    EXPECT_TRUE(db->Checkpoint().ok());
    return db;
  }

  static std::set<int64_t> Col0Values(Table* t) {
    std::set<int64_t> vals;
    t->ScanAll(
        [&](int64_t, const int64_t* row) {
          vals.insert(row[0]);
          return true;
        },
        nullptr);
    return vals;
  }
};

TEST_F(RecoveryTest, CheckpointRoundtripRestoresEverything) {
  const std::string dir = FreshDir("ckpt");
  uint64_t rows_before, size_before;
  int64_t next_rid_before;
  {
    auto db = MakeDurable(dir, DurabilityMode::kCommit, 500,
                          PrimaryKind::kBTree);
    Table* t = db->GetTable("t");
    rows_before = t->num_rows();
    next_rid_before = t->next_rid();
    size_before = t->primary_size_bytes();
    (void)size_before;
  }
  Database db2;
  RecoveryStats stats;
  ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kCommit, WalOptions(),
                                 &stats)
                  .ok());
  EXPECT_TRUE(stats.checkpoint_loaded);
  Table* t = db2.GetTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), rows_before);
  EXPECT_EQ(t->next_rid(), next_rid_before);
  EXPECT_EQ(t->primary_kind(), PrimaryKind::kBTree);
  ASSERT_NE(t->FindSecondary("csi_t"), nullptr);
  // Dictionary survives code-for-code: the packed images match strings.
  bool saw = false;
  t->ScanAll(
      [&](int64_t, const int64_t* row) {
        const Value v = t->UnpackValue(1, row[1]);
        EXPECT_EQ(v.str().substr(0, 1), "n");
        saw = true;
        return true;
      },
      nullptr);
  EXPECT_TRUE(saw);
}

TEST_F(RecoveryTest, CommittedSurviveKillUncommittedVanish) {
  const std::string dir = FreshDir("kill9");
  {
    auto db = MakeDurable(dir, DurabilityMode::kCommit, 100,
                          PrimaryKind::kHeap);
    Table* t = db->GetTable("t");
    // Committed (statement self-commit): present after recovery.
    PackedRow committed = t->PackRow(
        {Value::Int64(100000), Value::String("durable"), Value::Int64(1)});
    ASSERT_TRUE(t->InsertPacked(committed, nullptr).ok());
    // Uncommitted: logged under an explicit txn that never commits — the
    // crash strikes first. Recovery must roll it back.
    const uint64_t orphan = db->wal()->AllocTxnId();
    PackedRow uncommitted = t->PackRow(
        {Value::Int64(200000), Value::String("ghost"), Value::Int64(2)});
    ASSERT_TRUE(t->InsertPacked(uncommitted, nullptr, nullptr, orphan).ok());
    ASSERT_TRUE(db->wal()->Flush().ok());
    // kill -9: Database destroyed with no checkpoint, no commit.
  }
  Database db2;
  RecoveryStats stats;
  ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kCommit, WalOptions(),
                                 &stats)
                  .ok());
  Table* t = db2.GetTable("t");
  ASSERT_NE(t, nullptr);
  const std::set<int64_t> vals = Col0Values(t);
  EXPECT_TRUE(vals.count(100000)) << "committed insert lost";
  EXPECT_FALSE(vals.count(200000)) << "uncommitted insert survived";
  EXPECT_GT(stats.redo_records, 0u);
  EXPECT_GT(stats.undo_records, 0u);
  // Repeating history: the loser's rid was re-inserted then tombstoned, so
  // rid allocation continues past it.
  EXPECT_GE(t->next_rid(), 102);
}

TEST_F(RecoveryTest, UpdatesAndDeletesReplay) {
  const std::string dir = FreshDir("updel");
  int64_t updated_rid = -1;
  {
    auto db = MakeDurable(dir, DurabilityMode::kCommit, 50,
                          PrimaryKind::kBTree);
    Table* t = db->GetTable("t");
    // Find the row with k=7 and update its v; delete the row with k=9.
    std::vector<RowRef> upd, del;
    t->ScanAll(
        [&](int64_t rid, const int64_t* row) {
          if (row[0] == 7) upd.push_back({rid, PackedRow(row, row + 3)});
          if (row[0] == 9) del.push_back({rid, PackedRow(row, row + 3)});
          return true;
        },
        nullptr);
    ASSERT_EQ(upd.size(), 1u);
    ASSERT_EQ(del.size(), 1u);
    updated_rid = upd[0].rid;
    PackedRow nr = upd[0].row;
    nr[2] = 777;
    ASSERT_TRUE(t->UpdateRows(upd, {nr}, nullptr).ok());
    ASSERT_TRUE(t->DeleteRows(del, nullptr).ok());
  }
  Database db2;
  ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kCommit).ok());
  Table* t = db2.GetTable("t");
  bool found7 = false, found9 = false;
  t->ScanAll(
      [&](int64_t rid, const int64_t* row) {
        if (row[0] == 7) {
          found7 = true;
          EXPECT_EQ(row[2], 777);
          EXPECT_EQ(rid, updated_rid);
        }
        if (row[0] == 9) found9 = true;
        return true;
      },
      nullptr);
  EXPECT_TRUE(found7);
  EXPECT_FALSE(found9);
}

// Restart redo and loser undo run through the statements' appliers, so
// every structure — primary, secondary B+ tree, columnstore — must come
// back holding exactly the committed rows at their original rids, after
// inserts, payload updates, key-changing updates on the clustered key
// (col 0) and the secondary key (col 2), and deletes.
TEST_F(RecoveryTest, RedoAndUndoRebuildEveryStructure) {
  for (PrimaryKind kind :
       {PrimaryKind::kHeap, PrimaryKind::kBTree, PrimaryKind::kColumnStore}) {
    SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)));
    const std::string dir =
        FreshDir("everystruct" + std::to_string(static_cast<int>(kind)));
    std::map<int64_t, Row> expect;  // rid -> committed row
    {
      auto db = MakeDurable(dir, DurabilityMode::kCommit, 60, kind);
      Table* t = db->GetTable("t");
      ASSERT_TRUE(t->CreateSecondaryBTree("ix_v", {2}, {1}).ok());
      ASSERT_TRUE(db->Checkpoint().ok());
      auto rows_where = [&](auto pred) {
        std::vector<RowRef> out;
        t->ScanAll(
            [&](int64_t rid, const int64_t* row) {
              if (pred(row)) out.push_back({rid, PackedRow(row, row + 3)});
              return true;
            },
            nullptr);
        return out;
      };
      for (int i = 0; i < 5; ++i) {
        int64_t rid = -1;
        ASSERT_TRUE(t->InsertPacked(
                         t->PackRow({Value::Int64(1000 + i),
                                     Value::String("new" + std::to_string(i)),
                                     Value::Int64(5 * i)}),
                         nullptr, &rid)
                        .ok());
      }
      // Payload update (name), clustered-key update (k), secondary-key
      // update (v), each on its own rows.
      const std::pair<int, Value> sets[] = {
          {1, Value::String("renamed")}, {0, Value::Int64(-1)},
          {2, Value::Int64(123456)}};
      for (size_t si = 0; si < 3; ++si) {
        std::vector<RowRef> upd = rows_where([&](const int64_t* row) {
          return row[0] >= 0 && row[0] < 1000 &&
                 static_cast<size_t>(row[0] % 3) == si && row[0] % 2 == 0;
        });
        ASSERT_FALSE(upd.empty());
        std::vector<PackedRow> news;
        for (const RowRef& r : upd) {
          Row nr = t->UnpackRow(r.row);
          nr[sets[si].first] =
              sets[si].first == 0 ? Value::Int64(-1 - r.row[0]) : sets[si].second;
          news.push_back(t->PackRow(nr));
        }
        ASSERT_TRUE(t->UpdateRows(upd, news, nullptr).ok());
      }
      ASSERT_TRUE(t->DeleteRows(rows_where([](const int64_t* row) {
                                  return row[0] % 5 == 1;
                                }),
                                nullptr)
                      .ok());
      t->ScanAll(
          [&](int64_t rid, const int64_t* row) {
            expect[rid] = t->UnpackRow(PackedRow(row, row + 3));
            return true;
          },
          nullptr);
      // The loser: an insert, a key-changing update and a delete under a
      // transaction the crash leaves open.
      const uint64_t orphan = db->wal()->AllocTxnId();
      ASSERT_TRUE(t->InsertPacked(t->PackRow({Value::Int64(9999),
                                              Value::String("ghost"),
                                              Value::Int64(1)}),
                                  nullptr, nullptr, orphan)
                      .ok());
      std::vector<RowRef> lose = rows_where(
          [](const int64_t* row) { return row[0] == 3 || row[0] == 7; });
      ASSERT_EQ(lose.size(), 2u);
      PackedRow moved = lose[0].row;
      moved[0] = 777777;
      moved[2] = 777777;
      ASSERT_TRUE(
          t->UpdateRows({lose[0]}, {moved}, nullptr, orphan).ok());
      ASSERT_TRUE(t->DeleteRows({lose[1]}, nullptr, orphan).ok());
      ASSERT_TRUE(db->wal()->Flush().ok());
      // kill -9: no checkpoint since the DML.
    }
    Database db2;
    RecoveryStats stats;
    ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kCommit, WalOptions(),
                                   &stats)
                    .ok());
    EXPECT_GT(stats.undo_records, 0u);
    Table* t = db2.GetTable("t");
    ASSERT_NE(t, nullptr);
    std::map<int64_t, Row> primary, csi_rows;
    t->ScanAll(
        [&](int64_t rid, const int64_t* row) {
          primary[rid] = t->UnpackRow(PackedRow(row, row + 3));
          return true;
        },
        nullptr);
    EXPECT_EQ(primary, expect) << "primary";
    Result<CsiViewPtr> view = t->any_csi()->Pin(nullptr);
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE((*view)
                    ->ForEachRow(
                        [&](int64_t rid, const int64_t* row) {
                          csi_rows[rid] = t->UnpackRow(PackedRow(row, row + 3));
                          return true;
                        },
                        nullptr)
                    .ok());
    EXPECT_EQ(csi_rows, expect) << "columnstore";
    // The secondary B+ tree entry: key (v, rid), payload (name[, k]).
    const auto* ix = t->FindSecondary("ix_v");
    ASSERT_NE(ix, nullptr);
    std::map<int64_t, Row> btree_rows;
    ASSERT_TRUE(ix->btree
                    ->Scan(Bound::Unbounded(), Bound::Unbounded(),
                           [&](const int64_t* key, const int64_t* payload) {
                             Row& r = btree_rows[key[1]];
                             r = expect.count(key[1]) ? expect.at(key[1])
                                                      : Row(3, Value::Null());
                             r[2] = t->UnpackValue(2, key[0]);
                             for (size_t p = 0; p < ix->payload_cols.size();
                                  ++p) {
                               const int c = ix->payload_cols[p];
                               r[c] = t->UnpackValue(c, payload[p]);
                             }
                             return true;
                           },
                           nullptr)
                    .ok());
    EXPECT_EQ(btree_rows, expect) << "secondary B+ tree";
    // Allocation continues past every logged rid, and a new row lands at
    // the rid the insert reports.
    int64_t rid = -1;
    ASSERT_TRUE(t->InsertPacked(t->PackRow({Value::Int64(5555),
                                            Value::String("after"),
                                            Value::Int64(5)}),
                                nullptr, &rid)
                    .ok());
    PackedRow fetched;
    const int64_t pk = 5555;
    ASSERT_TRUE(t->FetchRow(rid, {&pk, kind == PrimaryKind::kBTree ? 1u : 0u},
                            &fetched, nullptr)
                    .ok());
    EXPECT_EQ(fetched[0], 5555);
  }
}

// A heap's rid is its slot. Rows deleted at the end of the heap before a
// checkpoint leave no slots in it, so the first insert after a restart
// must pad the gap to land in the slot its rid names.
TEST_F(RecoveryTest, HeapInsertAfterRestartLandsAtItsRid) {
  const std::string dir = FreshDir("heaptail");
  {
    auto db = MakeDurable(dir, DurabilityMode::kCommit, 10, PrimaryKind::kHeap);
    Table* t = db->GetTable("t");
    std::vector<RowRef> tail;
    t->ScanAll(
        [&](int64_t rid, const int64_t* row) {
          if (rid >= 8) tail.push_back({rid, PackedRow(row, row + 3)});
          return true;
        },
        nullptr);
    ASSERT_TRUE(t->DeleteRows(tail, nullptr).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  Database db2;
  ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kCommit).ok());
  Table* t = db2.GetTable("t");
  ASSERT_NE(t, nullptr);
  int64_t rid = -1;
  ASSERT_TRUE(t->InsertPacked(t->PackRow({Value::Int64(4242),
                                          Value::String("x"), Value::Int64(1)}),
                              nullptr, &rid)
                  .ok());
  EXPECT_EQ(rid, 10);
  PackedRow fetched;
  ASSERT_TRUE(t->FetchRow(rid, {}, &fetched, nullptr).ok());
  EXPECT_EQ(fetched[0], 4242);
}

TEST_F(RecoveryTest, ReorgIsCrashAtomic) {
  const std::string dir = FreshDir("reorg");
  uint64_t rows_before = 0;
  {
    auto db = MakeDurable(dir, DurabilityMode::kCommit, 300,
                          PrimaryKind::kColumnStore);
    Table* t = db->GetTable("t");
    // Churn the delete buffer, then run the tuple mover. The reorg logs a
    // self-committed record BEFORE mutating, so replay reproduces either
    // the pre- or post-mover layout, never a torn mix.
    std::vector<RowRef> del;
    t->ScanAll(
        [&](int64_t rid, const int64_t* row) {
          if (row[0] % 10 == 0) del.push_back({rid, PackedRow(row, row + 3)});
          return true;
        },
        nullptr);
    ASSERT_TRUE(t->DeleteRows(del, nullptr).ok());
    ASSERT_TRUE(t->ReorganizeColumnstores().ok());
    rows_before = t->num_rows();
  }
  Database db2;
  ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kCommit).ok());
  Table* t = db2.GetTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), rows_before);
  const std::set<int64_t> vals = Col0Values(t);
  EXPECT_FALSE(vals.count(0));
  EXPECT_FALSE(vals.count(290));
  EXPECT_TRUE(vals.count(1));
}

TEST_F(RecoveryTest, RedoFailpointSurfacesAndRetrySucceeds) {
  const std::string dir = FreshDir("redofp");
  {
    auto db = MakeDurable(dir, DurabilityMode::kCommit, 20,
                          PrimaryKind::kHeap);
    Table* t = db->GetTable("t");
    PackedRow p = t->PackRow(
        {Value::Int64(555), Value::String("x"), Value::Int64(5)});
    ASSERT_TRUE(t->InsertPacked(p, nullptr).ok());
  }
  FailPoints::Instance().Arm("recovery.redo",
                             FailSpec::OneShot(Code::kIoError));
  {
    Database broken;
    EXPECT_FALSE(broken.OpenDurability(dir, DurabilityMode::kCommit).ok());
  }
  FailPoints::Instance().DisarmAll();
  Database db2;
  ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kCommit).ok());
  EXPECT_TRUE(Col0Values(db2.GetTable("t")).count(555));
}

TEST_F(RecoveryTest, CheckpointFailpointLeavesPreviousCheckpointValid) {
  const std::string dir = FreshDir("ckptfp");
  {
    auto db = MakeDurable(dir, DurabilityMode::kCommit, 30,
                          PrimaryKind::kHeap);
    Table* t = db->GetTable("t");
    PackedRow p = t->PackRow(
        {Value::Int64(9999), Value::String("y"), Value::Int64(9)});
    ASSERT_TRUE(t->InsertPacked(p, nullptr).ok());
    FailPoints::Instance().Arm("wal.checkpoint",
                               FailSpec::Always(Code::kIoError));
    EXPECT_FALSE(db->Checkpoint().ok());
    FailPoints::Instance().DisarmAll();
  }
  // The failed checkpoint must not have damaged the (old checkpoint +
  // log) pair: recovery sees the bulk load AND the logged insert.
  Database db2;
  ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kCommit).ok());
  Table* t = db2.GetTable("t");
  EXPECT_EQ(Col0Values(t).count(9999), 1u);
  EXPECT_EQ(t->num_rows(), 31u);
}

TEST_F(RecoveryTest, GroupModeEndToEnd) {
  const std::string dir = FreshDir("groupdb");
  {
    auto db = MakeDurable(dir, DurabilityMode::kGroup, 50,
                          PrimaryKind::kBTree);
    Table* t = db->GetTable("t");
    for (int i = 0; i < 20; ++i) {
      PackedRow p = t->PackRow({Value::Int64(1000 + i),
                                Value::String("g" + std::to_string(i)),
                                Value::Int64(i)});
      ASSERT_TRUE(t->InsertPacked(p, nullptr).ok());
    }
  }
  Database db2;
  ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kGroup).ok());
  Table* t = db2.GetTable("t");
  const std::set<int64_t> vals = Col0Values(t);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(vals.count(1000 + i)) << i;
}

TEST_F(WalTest, GroupCommitRetriesAfterTransientFsyncFault) {
  const std::string dir = FreshDir("groupretry");
  WalManager wal(dir, DurabilityMode::kGroup);
  ASSERT_TRUE(wal.Open(1, 1).ok());
  const uint64_t txn = wal.AllocTxnId();
  WalRecord r = MakeInsert(txn, 1, 0, 0);
  ASSERT_TRUE(wal.Append(&r).ok());
  // One injected fsync fault: the writer's first batch attempt fails, the
  // parked committer keeps waiting, and the retry on the next window makes
  // the commit durable. durable_lsn never covers an unsynced range.
  FailPoints::Instance().Arm("wal.fsync", FailSpec::OneShot(Code::kIoError));
  EXPECT_TRUE(wal.Commit(txn).ok());
  EXPECT_GE(wal.durable_lsn(), r.lsn + 1);  // insert + commit both synced
  FailPoints::Instance().DisarmAll();
}

// The HIGH-severity atomicity hole: a fuzzy checkpoint that captures an
// in-flight transaction's in-place effects advances applied_lsn past them,
// so redo skips them — recovery must reverse them from the logged images
// instead (insert deleted, update restored, delete resurrected).
TEST_F(RecoveryTest, CheckpointedLoserEffectsRollBackOnRecovery) {
  for (PrimaryKind kind :
       {PrimaryKind::kHeap, PrimaryKind::kBTree, PrimaryKind::kColumnStore}) {
    const std::string dir =
        FreshDir("fuzzyloser" + std::to_string(static_cast<int>(kind)));
    {
      auto db = MakeDurable(dir, DurabilityMode::kCommit, 50, kind);
      Table* t = db->GetTable("t");
      const uint64_t orphan = db->wal()->AllocTxnId();
      // Uncommitted insert, update (k=3: v 30 -> 999), delete (k=9).
      PackedRow ghost = t->PackRow(
          {Value::Int64(300000), Value::String("ghost"), Value::Int64(3)});
      ASSERT_TRUE(t->InsertPacked(ghost, nullptr, nullptr, orphan).ok());
      std::vector<RowRef> upd, del;
      t->ScanAll(
          [&](int64_t rid, const int64_t* row) {
            if (row[0] == 3) upd.push_back({rid, PackedRow(row, row + 3)});
            if (row[0] == 9) del.push_back({rid, PackedRow(row, row + 3)});
            return true;
          },
          nullptr);
      ASSERT_EQ(upd.size(), 1u);
      ASSERT_EQ(del.size(), 1u);
      PackedRow nr = upd[0].row;
      nr[2] = 999;
      ASSERT_TRUE(t->UpdateRows(upd, {nr}, nullptr, orphan).ok());
      ASSERT_TRUE(t->DeleteRows(del, nullptr, orphan).ok());
      // The fuzzy checkpoint captures all three uncommitted effects in
      // place; the oldest-active horizon keeps their records in the log.
      ASSERT_TRUE(db->Checkpoint().ok());
      // kill -9 before the transaction resolves.
    }
    for (int round = 0; round < 2; ++round) {
      Database db2;
      RecoveryStats stats;
      ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kCommit,
                                     WalOptions(), &stats)
                      .ok());
      Table* t = db2.GetTable("t");
      ASSERT_NE(t, nullptr);
      bool saw3 = false, saw9 = false;
      std::set<int64_t> vals;
      t->ScanAll(
          [&](int64_t, const int64_t* row) {
            vals.insert(row[0]);
            if (row[0] == 3) {
              saw3 = true;
              EXPECT_EQ(row[2], 30) << "loser update not rolled back";
            }
            if (row[0] == 9) saw9 = true;
            return true;
          },
          nullptr);
      EXPECT_FALSE(vals.count(300000)) << "checkpointed loser insert survived";
      EXPECT_TRUE(saw3) << "updated row vanished";
      EXPECT_TRUE(saw9) << "loser delete not resurrected";
      EXPECT_EQ(vals.size(), 50u);
      EXPECT_GE(stats.undo_records, 3u) << "kind=" << static_cast<int>(kind)
                                        << " round=" << round;
    }
  }
}

TEST_F(RecoveryTest, CheckpointSucceedsUnderConcurrentDml) {
  const std::string dir = FreshDir("ckptconc");
  {
    auto db = MakeDurable(dir, DurabilityMode::kGroup, 10, PrimaryKind::kHeap);
    Table* t = db->GetTable("t");
    std::atomic<bool> stop{false};
    std::atomic<int> inserted{0};
    std::thread writer([&] {
      for (int i = 0; !stop.load(); ++i) {
        PackedRow p = t->PackRow({Value::Int64(400000 + i),
                                  Value::String("c" + std::to_string(i % 5)),
                                  Value::Int64(i)});
        std::unique_lock<FairSharedMutex> latch(t->phys_latch());
        if (!t->InsertPacked(p, nullptr).ok()) break;
        inserted.fetch_add(1);
      }
    });
    // Group mode keeps durable_lsn lagging appends, so DML racing the
    // snapshot used to trip the WAL-rule check for extents the snapshot
    // never captured. Every checkpoint must succeed.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->Checkpoint().ok()) << "checkpoint " << i;
    }
    stop.store(true);
    writer.join();
    ASSERT_GT(inserted.load(), 0);
  }
  Database db2;
  ASSERT_TRUE(db2.OpenDurability(dir, DurabilityMode::kGroup).ok());
  Table* t = db2.GetTable("t");
  ASSERT_NE(t, nullptr);
  // Everything self-committed before the clean shutdown is recovered:
  // post-snapshot dirty marks were carried forward, not dropped.
  EXPECT_GE(Col0Values(t).size(), 10u);
}

TEST_F(RecoveryTest, TableCreatedAfterCheckpointSurvivesCrash) {
  const std::string dir = FreshDir("latetable");
  {
    auto db = MakeDurable(dir, DurabilityMode::kCommit, 10, PrimaryKind::kHeap);
    // DDL self-checkpoints, so committed DML against the new table is
    // replayable even though the crash strikes before any manual
    // checkpoint.
    auto t2 = db->CreateTable("late", DemoSchema());
    ASSERT_TRUE(t2.ok());
    PackedRow p = t2.value()->PackRow(
        {Value::Int64(42), Value::String("kept"), Value::Int64(7)});
    ASSERT_TRUE(t2.value()->InsertPacked(p, nullptr).ok());
    // kill -9.
  }
  Database db2;
  RecoveryStats stats;
  ASSERT_TRUE(
      db2.OpenDurability(dir, DurabilityMode::kCommit, WalOptions(), &stats)
          .ok());
  Table* late = db2.GetTable("late");
  ASSERT_NE(late, nullptr) << "table created after checkpoint lost";
  EXPECT_TRUE(Col0Values(late).count(42)) << "committed insert dropped";
  EXPECT_EQ(stats.skipped_records, 0u);
  EXPECT_TRUE(Col0Values(db2.GetTable("t")).count(5));
}

}  // namespace
}  // namespace hd
