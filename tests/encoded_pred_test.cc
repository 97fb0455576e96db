// Tests for encoded-domain predicate evaluation: range predicates
// translated into dictionary-code / packed-offset space once per segment,
// RLE runs tested per-run, and the min/max all-pass proof — each
// cross-checked bit-for-bit against decode-then-compare.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "columnstore/columnstore.h"
#include "common/rng.h"

namespace hd {
namespace {

class EncodedPredTest : public ::testing::Test {
 protected:
  EncodedPredTest() : pool_(&disk_) {}

  // Reference: decode every value and compare in the value domain.
  static std::vector<uint8_t> Naive(const ColumnSegment& /*s*/,
                                    const std::vector<int64_t>& vals,
                                    size_t start, size_t count, int64_t lo,
                                    int64_t hi) {
    std::vector<uint8_t> out(count);
    for (size_t i = 0; i < count; ++i) {
      out[i] = vals[start + i] >= lo && vals[start + i] <= hi;
    }
    return out;
  }

  // Encoded path: TranslateRange once, EvalRange bitmap over the window,
  // expanded to bytes for comparison with the naive oracle. The SelVector
  // is poisoned all-set first: refine=false must fully overwrite it.
  static std::vector<uint8_t> Encoded(const ColumnSegment& s, size_t start,
                                      size_t count, int64_t lo, int64_t hi) {
    SelVector sel;
    sel.Reset(count);
    ColumnSegment::CodeRange cr = s.TranslateRange(lo, hi);
    s.EvalRange(start, count, cr, /*refine=*/false, &sel);
    std::vector<uint8_t> out(count);
    for (size_t i = 0; i < count; ++i) out[i] = sel.Test(i);
    return out;
  }

  void CheckAllWindows(const ColumnSegment& s,
                       const std::vector<int64_t>& vals, int64_t lo,
                       int64_t hi) {
    const size_t n = vals.size();
    const size_t windows[][2] = {
        {0, n}, {0, 1}, {n - 1, 1}, {n / 3, n / 2}, {1, n - 2}};
    for (const auto& w : windows) {
      ASSERT_EQ(Encoded(s, w[0], w[1], lo, hi), Naive(s, vals, w[0], w[1], lo, hi))
          << "window [" << w[0] << ", +" << w[1] << ") pred [" << lo << ","
          << hi << "] enc=" << SegEncodingName(s.encoding());
    }
  }

  DiskModel disk_;
  BufferPool pool_;
};

TEST_F(EncodedPredTest, DictEqualityAndOutOfDictionaryConstants) {
  // Sparse domain {10, 20, ..., 100}: dictionary-packed.
  std::vector<int64_t> vals;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    vals.push_back(10 * (1 + rng.Uniform(0, 9)));
  }
  ColumnSegment s;
  s.Build(vals, &pool_);
  ASSERT_EQ(s.encoding(), SegEncoding::kDictPacked);

  // Equality on a stored value.
  CheckAllWindows(s, vals, 30, 30);
  // Equality on a constant inside [min,max] but NOT in the dictionary:
  // TranslateRange must prove `none` from the dictionary alone.
  ColumnSegment::CodeRange miss = s.TranslateRange(35, 35);
  EXPECT_TRUE(miss.none);
  CheckAllWindows(s, vals, 35, 35);
  // Range spanning only missing constants (31..39 contains no multiple of
  // 10): also a dictionary miss.
  EXPECT_TRUE(s.TranslateRange(31, 39).none);
  CheckAllWindows(s, vals, 31, 39);
  // Range below min / above max.
  EXPECT_TRUE(s.TranslateRange(-100, 5).none);
  EXPECT_TRUE(s.TranslateRange(101, 1 << 20).none);
  // Range bounds that are themselves out-of-dictionary still select the
  // stored values inside (15..45 -> {20, 30, 40}).
  CheckAllWindows(s, vals, 15, 45);
}

TEST_F(EncodedPredTest, AllPassProofSkipsEvaluation) {
  std::vector<int64_t> vals;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) vals.push_back(rng.Uniform(50, 150));
  ColumnSegment s;
  s.Build(vals, &pool_);
  ColumnSegment::CodeRange cr = s.TranslateRange(0, 1000);
  EXPECT_TRUE(cr.all);  // min/max proves every row matches
  CheckAllWindows(s, vals, 0, 1000);
  // Exactly [min, max] is also an all-pass.
  EXPECT_TRUE(s.TranslateRange(s.min_value(), s.max_value()).all);
}

TEST_F(EncodedPredTest, RleRunBoundaries) {
  // Long runs -> kDictRle. Windows deliberately start/end mid-run.
  std::vector<int64_t> vals;
  for (int g = 0; g < 8; ++g) {
    for (int i = 0; i < 700; ++i) vals.push_back(g * 5);
  }
  ColumnSegment s;
  s.Build(vals, &pool_);
  ASSERT_EQ(s.encoding(), SegEncoding::kDictRle);

  CheckAllWindows(s, vals, 10, 20);
  // Window fully inside one run.
  EXPECT_EQ(Encoded(s, 750, 100, 5, 5),
            Naive(s, vals, 750, 100, 5, 5));
  // Window straddling exactly one run boundary (run length 700).
  EXPECT_EQ(Encoded(s, 650, 100, 5, 5),
            Naive(s, vals, 650, 100, 5, 5));
  // Equality on an out-of-dictionary constant between stored values.
  EXPECT_TRUE(s.TranslateRange(7, 8).none);
  CheckAllWindows(s, vals, 7, 8);

  // Run-count accounting: evaluating the whole segment touches every run
  // once (8 runs), not one test per row.
  SelVector out;
  out.Reset(vals.size());
  ColumnSegment::CodeRange cr = s.TranslateRange(10, 20);
  ASSERT_FALSE(cr.none);
  ASSERT_FALSE(cr.all);
  EXPECT_EQ(s.EvalRange(0, vals.size(), cr, false, &out), 8u);
}

TEST_F(EncodedPredTest, RawPackedOffsetSpace) {
  // High-cardinality wide domain -> raw bitpack (offset space).
  std::vector<int64_t> vals;
  Rng rng(13);
  for (int i = 0; i < 6000; ++i) {
    vals.push_back(rng.Uniform(-1000000, 1000000));
  }
  ColumnSegment s;
  s.Build(vals, &pool_);
  ASSERT_EQ(s.encoding(), SegEncoding::kRawPacked);
  CheckAllWindows(s, vals, -5000, 5000);
  CheckAllWindows(s, vals, vals[17], vals[17]);  // equality on a stored value
  // Bounds partially outside [min,max] clamp into offset space.
  CheckAllWindows(s, vals, s.min_value() - 10, 0);
  CheckAllWindows(s, vals, 0, s.max_value() + 10);
}

TEST_F(EncodedPredTest, RefineAndsConjunctively) {
  std::vector<int64_t> a, b;
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    a.push_back(rng.Uniform(0, 100));
    b.push_back(rng.Uniform(0, 100));
  }
  ColumnSegment sa, sb;
  sa.Build(a, &pool_);
  sb.Build(b, &pool_);
  SelVector out;
  out.Reset(a.size());
  ColumnSegment::CodeRange ca = sa.TranslateRange(20, 60);
  ColumnSegment::CodeRange cb = sb.TranslateRange(40, 90);
  sa.EvalRange(0, a.size(), ca, /*refine=*/false, &out);
  sb.EvalRange(0, a.size(), cb, /*refine=*/true, &out);
  for (size_t i = 0; i < a.size(); ++i) {
    const bool want =
        (a[i] >= 20 && a[i] <= 60) && (b[i] >= 40 && b[i] <= 90);
    ASSERT_EQ(out.Test(i), want) << i;
  }
}

TEST_F(EncodedPredTest, RandomizedCrossCheckAllEncodings) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int64_t> vals;
    const int n = 500 + static_cast<int>(rng.Uniform(0, 4000));
    const int shape = trial % 3;
    int64_t v = rng.Uniform(-500, 500);
    for (int i = 0; i < n; ++i) {
      switch (shape) {
        case 0:  // runny (RLE)
          if (rng.Uniform(0, 99) < 2) v = rng.Uniform(-500, 500);
          vals.push_back(v);
          break;
        case 1:  // small domain (dict-packed)
          vals.push_back(rng.Uniform(0, 40) * 3);
          break;
        default:  // wide domain (raw)
          vals.push_back(rng.Uniform(-100000, 100000));
      }
    }
    ColumnSegment s;
    s.Build(vals, &pool_);
    for (int p = 0; p < 20; ++p) {
      int64_t lo = rng.Uniform(-1200, 1200) * (shape == 2 ? 100 : 1);
      int64_t hi = lo + rng.Uniform(0, 500);
      const size_t start = static_cast<size_t>(rng.Uniform(0, n - 1));
      const size_t count =
          1 + static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(
                                                     n - start - 1)));
      ASSERT_EQ(Encoded(s, start, count, lo, hi),
                Naive(s, vals, start, count, lo, hi))
          << "trial=" << trial << " pred=[" << lo << "," << hi << "] start="
          << start << " count=" << count
          << " enc=" << SegEncodingName(s.encoding());
    }
  }
}

TEST_F(EncodedPredTest, ScanGroupsMatchesNaiveAndCountsMetrics) {
  // End-to-end through ScanGroups on sorted data: whole groups eliminated
  // (segments_skipped), RLE runs tested per-run (runs_evaluated), and only
  // surviving batches decoded (rows_decoded < rows_scanned).
  const int kRows = 40000;
  std::vector<int64_t> key(kRows), val(kRows);
  Rng rng(29);
  for (int i = 0; i < kRows; ++i) {
    key[i] = i / 50;  // sorted, runny
    val[i] = rng.Uniform(0, 1000);
  }
  std::vector<int64_t> locs(kRows);
  for (int i = 0; i < kRows; ++i) locs[i] = i;
  CsiOptions opts;
  opts.rowgroup_size = 8192;  // several groups so elimination can show up
  ColumnStoreIndex csi(ColumnStoreIndex::Kind::kSecondary, 2, &pool_, opts);
  csi.BulkLoad({key, val}, locs);
  ASSERT_GT(csi.num_row_groups(), 1);

  // Selective predicate on the sorted key: touches a narrow key band.
  const int64_t klo = 100, khi = 140;
  std::vector<SegPredicate> preds{{0, klo, khi}};
  QueryMetrics m;
  int64_t got_rows = 0, got_sum = 0;
  const CsiViewPtr view = csi.Pin().value();
  view->ScanGroups(0, view->num_row_groups(), {0, 1}, preds,
                 [&](const ColumnBatch& b) {
                   got_rows += b.count;
                   for (int i = 0; i < b.count; ++i) got_sum += b.cols[1][i];
                   return true;
                 },
                 &m);
  int64_t want_rows = 0, want_sum = 0;
  for (int i = 0; i < kRows; ++i) {
    if (key[i] >= klo && key[i] <= khi) {
      ++want_rows;
      want_sum += val[i];
    }
  }
  EXPECT_EQ(got_rows, want_rows);
  EXPECT_EQ(got_sum, want_sum);
  EXPECT_GT(m.segments_skipped.load(), 0u);
  EXPECT_GT(m.runs_evaluated.load(), 0u);
  EXPECT_GT(m.rows_decoded.load(), 0u);
  EXPECT_LT(m.rows_decoded.load(), m.rows_scanned.load() + 1);
}

}  // namespace
}  // namespace hd
