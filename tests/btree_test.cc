// Unit and property tests for the B+ tree.
#include <gtest/gtest.h>

#include <map>

#include "btree/btree.h"
#include "common/rng.h"

namespace hd {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_) {}
  DiskModel disk_;
  BufferPool pool_;
};

std::vector<int64_t> FlatEntries(const std::vector<std::pair<int64_t, int64_t>>& kv) {
  std::vector<int64_t> flat;
  for (auto [k, v] : kv) {
    flat.push_back(k);
    flat.push_back(v);
  }
  return flat;
}

TEST_F(BTreeTest, BulkLoadAndScan) {
  BTree t(1, 1, &pool_);
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 10000; ++i) kv.push_back({i, i * 10});
  t.BulkLoad(FlatEntries(kv));
  EXPECT_EQ(t.num_entries(), 10000u);
  EXPECT_GE(t.height(), 2);
  int64_t expect = 0;
  t.Scan(Bound::Unbounded(), Bound::Unbounded(),
         [&](const int64_t* k, const int64_t* p) {
           EXPECT_EQ(k[0], expect);
           EXPECT_EQ(p[0], expect * 10);
           ++expect;
           return true;
         },
         nullptr);
  EXPECT_EQ(expect, 10000);
}

TEST_F(BTreeTest, SeekEqual) {
  BTree t(1, 1, &pool_);
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 1000; ++i) kv.push_back({i * 2, i});
  t.BulkLoad(FlatEntries(kv));
  int64_t out;
  int64_t key = 500;
  ASSERT_TRUE(t.SeekEqual(std::span<const int64_t>(&key, 1), &out, nullptr).ok());
  EXPECT_EQ(out, 250);
  key = 501;  // absent
  EXPECT_TRUE(t.SeekEqual(std::span<const int64_t>(&key, 1), &out, nullptr)
                  .IsNotFound());
}

TEST_F(BTreeTest, RangeScanBounds) {
  BTree t(1, 1, &pool_);
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 1000; ++i) kv.push_back({i, i});
  t.BulkLoad(FlatEntries(kv));
  int64_t count = 0;
  t.Scan(Bound::Inclusive({100}), Bound::Exclusive({200}),
         [&](const int64_t* k, const int64_t*) {
           EXPECT_GE(k[0], 100);
           EXPECT_LT(k[0], 200);
           ++count;
           return true;
         },
         nullptr);
  EXPECT_EQ(count, 100);
}

TEST_F(BTreeTest, InsertAndSplit) {
  BTree t(1, 1, &pool_);
  t.BulkLoad({});
  Rng rng(5);
  std::map<int64_t, int64_t> ref;
  for (int i = 0; i < 20000; ++i) {
    int64_t k = rng.Uniform(0, 1'000'000'000);
    if (ref.count(k)) continue;
    ref[k] = i;
    int64_t key = k, payload = i;
    ASSERT_TRUE(t.Insert(std::span<const int64_t>(&key, 1),
                         std::span<const int64_t>(&payload, 1), nullptr)
                    .ok());
  }
  EXPECT_EQ(t.num_entries(), ref.size());
  // Scan must match the reference map exactly.
  auto it = ref.begin();
  t.Scan(Bound::Unbounded(), Bound::Unbounded(),
         [&](const int64_t* k, const int64_t* p) {
           EXPECT_EQ(k[0], it->first);
           EXPECT_EQ(p[0], it->second);
           ++it;
           return true;
         },
         nullptr);
  EXPECT_EQ(it, ref.end());
}

// Ascending inserts (a delta store's sequence) fill every leaf: a split
// past the last key starts an empty right sibling instead of halving.
// Interleaved ascending runs (one per district) fill them too.
TEST_F(BTreeTest, AscendingInsertsFillLeaves) {
  const int cap = static_cast<int>(kPageBytes / 16);  // 1-key, 1-payload
  for (int runs : {1, 4}) {
    BTree t(2, 0, &pool_);
    const int64_t per_run = 20 * cap;
    for (int64_t i = 0; i < per_run; ++i) {
      for (int64_t r = 0; r < runs; ++r) {
        const int64_t key[2] = {r, i};
        ASSERT_TRUE(t.Insert(key, {}, nullptr).ok());
      }
    }
    const uint64_t leaves_needed = (runs * per_run + cap - 1) / cap;
    // Halving splits would leave ~2x the leaves; allow one partial leaf
    // per run plus the internal nodes.
    EXPECT_LE(t.num_nodes(), leaves_needed + runs + 4) << runs << " runs";
    int64_t seen = 0, prev_r = 0, prev_i = -1;
    t.Scan(Bound::Unbounded(), Bound::Unbounded(),
           [&](const int64_t* k, const int64_t*) {
             EXPECT_TRUE(k[0] > prev_r || (k[0] == prev_r && k[1] == prev_i + 1));
             if (k[0] != prev_r) prev_r = k[0];
             prev_i = k[1];
             ++seen;
             return true;
           },
           nullptr);
    EXPECT_EQ(seen, runs * per_run);
  }
}

TEST_F(BTreeTest, DuplicateInsertRejected) {
  BTree t(1, 1, &pool_);
  t.BulkLoad({});
  int64_t k = 1, p = 2;
  ASSERT_TRUE(t.Insert(std::span<const int64_t>(&k, 1),
                       std::span<const int64_t>(&p, 1), nullptr).ok());
  EXPECT_FALSE(t.Insert(std::span<const int64_t>(&k, 1),
                        std::span<const int64_t>(&p, 1), nullptr).ok());
}

TEST_F(BTreeTest, DeleteAndUpdate) {
  BTree t(1, 1, &pool_);
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 1000; ++i) kv.push_back({i, i});
  t.BulkLoad(FlatEntries(kv));
  int64_t key = 500;
  ASSERT_TRUE(t.Delete(std::span<const int64_t>(&key, 1), nullptr).ok());
  EXPECT_EQ(t.num_entries(), 999u);
  int64_t out;
  EXPECT_TRUE(t.SeekEqual(std::span<const int64_t>(&key, 1), &out, nullptr)
                  .IsNotFound());
  key = 600;
  int64_t np = 12345;
  ASSERT_TRUE(t.UpdatePayload(std::span<const int64_t>(&key, 1),
                              std::span<const int64_t>(&np, 1), nullptr).ok());
  ASSERT_TRUE(t.SeekEqual(std::span<const int64_t>(&key, 1), &out, nullptr).ok());
  EXPECT_EQ(out, 12345);
}

TEST_F(BTreeTest, CompositeKeyPrefixScan) {
  // Key = (a, b); scan on prefix a == 5 must hit all b values.
  BTree t(2, 1, &pool_);
  std::vector<int64_t> flat;
  for (int64_t a = 0; a < 100; ++a) {
    for (int64_t b = 0; b < 10; ++b) {
      flat.push_back(a);
      flat.push_back(b);
      flat.push_back(a * 1000 + b);
    }
  }
  t.BulkLoad(flat);
  int count = 0;
  t.Scan(Bound::Inclusive({5}), Bound::Inclusive({5}),
         [&](const int64_t* k, const int64_t*) {
           EXPECT_EQ(k[0], 5);
           ++count;
           return true;
         },
         nullptr);
  EXPECT_EQ(count, 10);
}

TEST_F(BTreeTest, ExclusivePrefixLowerBoundAcrossLeaves) {
  // Many duplicates of the bound prefix spanning multiple leaves.
  BTree t(2, 0, &pool_);
  std::vector<int64_t> flat;
  for (int64_t i = 0; i < 5000; ++i) {
    flat.push_back(i < 2500 ? 7 : 8);  // first key col
    flat.push_back(i);                 // uniquifier
  }
  t.BulkLoad(flat);
  int count = 0;
  t.Scan(Bound::Exclusive({7}), Bound::Unbounded(),
         [&](const int64_t* k, const int64_t*) {
           EXPECT_EQ(k[0], 8);
           ++count;
           return true;
         },
         nullptr);
  EXPECT_EQ(count, 2500);
}

TEST_F(BTreeTest, CollectLeavesCoversRange) {
  BTree t(1, 1, &pool_);
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 50000; ++i) kv.push_back({i, i});
  t.BulkLoad(FlatEntries(kv));
  Bound lo = Bound::Inclusive({1000});
  Bound hi = Bound::Inclusive({40000});
  std::vector<LeafHandle> leaves;
  ASSERT_TRUE(t.CollectLeaves(lo, hi, nullptr, &leaves).ok());
  ASSERT_GT(leaves.size(), 4u);
  int64_t count = 0;
  for (auto h : leaves) {
    ASSERT_TRUE(t.ScanLeaf(h, lo, hi,
                           [&](const int64_t* k, const int64_t*) {
                             EXPECT_GE(k[0], 1000);
                             EXPECT_LE(k[0], 40000);
                             ++count;
                             return true;
                           },
                           nullptr)
                    .ok());
  }
  EXPECT_EQ(count, 39001);
}

TEST_F(BTreeTest, ColdTraversalChargesIo) {
  BTree t(1, 1, &pool_);
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 100000; ++i) kv.push_back({i, i});
  t.BulkLoad(FlatEntries(kv));
  pool_.EvictAll();
  QueryMetrics cold;
  int64_t out, key = 77777;
  ASSERT_TRUE(t.SeekEqual(std::span<const int64_t>(&key, 1), &out, &cold).ok());
  EXPECT_GT(cold.sim_io_ms(), 0.0);
  QueryMetrics hot;
  ASSERT_TRUE(t.SeekEqual(std::span<const int64_t>(&key, 1), &out, &hot).ok());
  EXPECT_DOUBLE_EQ(hot.sim_io_ms(), 0.0);
}

TEST_F(BTreeTest, SizeBytesGrowsWithEntries) {
  BTree small(1, 1, &pool_);
  BTree large(1, 1, &pool_);
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 1000; ++i) kv.push_back({i, i});
  small.BulkLoad(FlatEntries(kv));
  for (int64_t i = 1000; i < 100000; ++i) kv.push_back({i, i});
  large.BulkLoad(FlatEntries(kv));
  EXPECT_GT(large.size_bytes(), 10 * small.size_bytes());
}

// Property test: random interleaving of inserts/deletes matches std::map.
class BTreeFuzzTest : public BTreeTest,
                      public ::testing::WithParamInterface<uint64_t> {};

TEST_P(BTreeFuzzTest, MatchesReferenceMap) {
  BTree t(1, 1, &pool_);
  t.BulkLoad({});
  Rng rng(GetParam());
  std::map<int64_t, int64_t> ref;
  for (int i = 0; i < 5000; ++i) {
    const int64_t k = rng.Uniform(0, 2000);
    int64_t payload = i;
    if (rng.Flip(0.7)) {
      if (!ref.count(k)) {
        ref[k] = i;
        ASSERT_TRUE(t.Insert(std::span<const int64_t>(&k, 1),
                             std::span<const int64_t>(&payload, 1), nullptr)
                        .ok());
      }
    } else {
      const bool existed = ref.erase(k) > 0;
      Status s = t.Delete(std::span<const int64_t>(&k, 1), nullptr);
      EXPECT_EQ(s.ok(), existed);
    }
  }
  EXPECT_EQ(t.num_entries(), ref.size());
  auto it = ref.begin();
  t.Scan(Bound::Unbounded(), Bound::Unbounded(),
         [&](const int64_t* k, const int64_t* p) {
           EXPECT_EQ(k[0], it->first);
           EXPECT_EQ(p[0], it->second);
           ++it;
           return true;
         },
         nullptr);
  EXPECT_EQ(it, ref.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 17, 23));

}  // namespace
}  // namespace hd
