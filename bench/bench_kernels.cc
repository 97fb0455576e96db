// Kernel microbenchmarks for the vectorized scan/aggregation layer:
//   - BitPacked::Decode batch unpack across every bit width 1..64 (the
//     width-specialized whole-word kernels vs the two-word gather).
//   - Encoded-domain EvalRange into the word-packed SelVector vs the
//     legacy one-byte-per-row match loop it replaced.
//   - Flat open-addressing AggHashTable group-by, and the batch aggregate
//     sink's hash and direct-indexed group-by, vs std::unordered_map.
// Emits BENCH_kernels.json (hd-bench/3 Value points, series/x/ms plus a
// derived mrows_s throughput field) and prints an aligned table.
#include <cinttypes>
#include <unordered_map>

#include "bench/bench_util.h"
#include "columnstore/columnstore.h"
#include "columnstore/encoding.h"
#include "common/bloom.h"
#include "common/rng.h"
#include "exec/agg_hash.h"
#include "exec/agg_sink.h"
#include "exec/join_hash.h"

using namespace hd;
using namespace hd::bench;

namespace {

// Best-of-N wall time for one kernel invocation, after one untimed
// warm-up run (first-touch page faults and cold caches otherwise leak
// into the first timed rep). The minimum is the least-noise estimate of
// the kernel's true cost.
template <typename Fn>
double BestMs(int reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedMs());
  }
  return best;
}

uint64_t g_sink = 0;  // defeats dead-code elimination across kernels

}  // namespace

int main() {
  const size_t n =
      static_cast<size_t>(4 * 1000 * 1000 * (Scale() > 0 ? Scale() : 1.0));
  const int reps = 5;
  BenchJson json("kernels");
  Rng rng(97);

  // ------------------------------------------------------------------
  // 1. Batch unpack, every width 1..64.
  // ------------------------------------------------------------------
  std::vector<double> widths, unpack_ms;
  std::vector<uint64_t> out(n);
  for (int w = 1; w <= 64; ++w) {
    const uint64_t mask = w == 64 ? ~0ull : (1ull << w) - 1;
    std::vector<uint64_t> vals(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = static_cast<uint64_t>(rng.Uniform(0, INT64_MAX)) & mask;
    }
    vals[0] = mask;  // pin the width
    BitPacked p;
    p.Pack(vals);
    const double ms = BestMs(reps, [&] { p.Decode(0, n, out.data()); });
    g_sink += out[n - 1];
    widths.push_back(w);
    unpack_ms.push_back(ms);
    json.Value("unpack", w, "ms", ms);
    json.Value("unpack_mrows_s", w, "mrows_s", n / ms / 1000.0);
  }

  // ------------------------------------------------------------------
  // 2. Selection pipeline: packed-word EvalRange + popcount + ToIndices
  //    vs the legacy byte loop it replaced (byte stores, byte-summing
  //    count, branchy index walk). The pipeline is what ScanGroups runs
  //    per batch: evaluate, count, materialize surviving row indices.
  // ------------------------------------------------------------------
  std::vector<double> sels, ev_bitmap_ms, ev_bytes_ms;
  {
    // 16-bit codes: a realistic dictionary-code width, served by the
    // width-specialized whole-word kernel.
    const uint64_t domain = 1 << 16;
    std::vector<uint64_t> vals(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = static_cast<uint64_t>(rng.Uniform(0, domain - 1));
    }
    BitPacked p;
    p.Pack(vals);
    SelVector sel;
    std::vector<uint8_t> bytes(n);
    std::vector<uint32_t> idx(n);
    for (double s : {0.001, 0.01, 0.1, 0.5, 0.99}) {
      // A band predicate (nonzero lo) so both bounds are live compares.
      const uint64_t lo = static_cast<uint64_t>(0.005 * domain);
      const uint64_t hi = lo + static_cast<uint64_t>(s * (domain - lo));
      const double bm = BestMs(reps, [&] {
        sel.Reset(n);
        p.EvalRange(0, n, lo, hi, /*refine=*/false, &sel);
        g_sink += sel.Count();
        g_sink += static_cast<uint64_t>(sel.ToIndices(idx.data()));
      });
      // The pre-bitmap shape: one Get + compare + byte store per row, a
      // byte-summing count, then a branchy walk appending match indices.
      const double by = BestMs(reps, [&] {
        uint64_t matches = 0;
        for (size_t i = 0; i < n; ++i) {
          const uint64_t v = p.Get(i);
          bytes[i] = v >= lo && v <= hi;
        }
        for (size_t i = 0; i < n; ++i) matches += bytes[i];
        size_t k = 0;
        for (size_t i = 0; i < n; ++i) {
          if (bytes[i]) idx[k++] = static_cast<uint32_t>(i);
        }
        g_sink += matches + k;
      });
      sels.push_back(s);
      ev_bitmap_ms.push_back(bm);
      ev_bytes_ms.push_back(by);
      json.Value("select_bitmap", s, "ms", bm);
      json.Value("select_bytes", s, "ms", by);
    }
  }

  // ------------------------------------------------------------------
  // 3. Group-by, one COUNT and one integer SUM per group:
  //    - groupby_flat: the bare flat AggHashTable kernel — batched hash,
  //      probe, then a state update per row (the table keeps keys only,
  //      so the two states sit in arrays indexed by the group);
  //    - groupby_sink_hash / groupby_dense: the executor's batch aggregate
  //      sink (AggSink::Update) in its hash shape and its direct-indexed
  //      shape (the key's range is known, slot = key - lo; only up to
  //      AggSink::kDenseMaxSpan);
  //    - groupby_old_sink: the sink the flat table replaced (an
  //      unordered_map keyed by std::vector<int64_t> with a heap-allocated
  //      state vector per group);
  //    - groupby_unordered_map: a plain int64-keyed std::unordered_map, the
  //      idealized single-pass reference.
  // ------------------------------------------------------------------
  std::vector<double> gcounts, flat_ms, oldsink_ms, umap_ms, sink_hash_ms,
      dense_ms;
  for (double gd : {64.0, 4096.0, 262144.0}) {
    const int64_t groups = static_cast<int64_t>(gd);
    std::vector<int64_t> keys(n), vals(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = rng.Uniform(0, groups - 1);
      vals[i] = rng.Uniform(0, 1000);
    }
    // Executor shape: batched hash -> probe -> column update, per-batch
    // scratch staying cache-resident (kBatchSize rows at a time).
    std::vector<uint64_t> hashes(kBatchSize);
    std::vector<uint32_t> gidx(kBatchSize);
    const double fm = BestMs(reps, [&] {
      AggHashTable t;
      t.Init(/*key_words=*/1);
      std::vector<uint64_t> count;
      std::vector<int64_t> sum;
      for (size_t base = 0; base < n; base += kBatchSize) {
        const size_t take = std::min<size_t>(kBatchSize, n - base);
        t.ComputeHashes(keys.data() + base, take, hashes.data());
        for (size_t i = 0; i < take; ++i) {
          gidx[i] = static_cast<uint32_t>(t.FindOrInsert(
              &keys[base + i], hashes[i], static_cast<size_t>(-1)));
        }
        if (count.size() < t.size()) {
          count.resize(t.size() * 3 / 2 + 1);
          sum.resize(count.size());
        }
        for (size_t i = 0; i < take; ++i) {
          count[gidx[i]] += 1;
          sum[gidx[i]] += vals[base + i];
        }
      }
      g_sink += t.size() + count[0];
    });
    // The sink: kBatchSize rows per Update.
    auto run_sink = [&](bool dense) {
      AggSink::Options o;
      o.cols = {SinkColumn{}, SinkColumn{}};
      o.key_width = 1;
      SinkAgg count, sum;
      sum.fn = AggSpec::Fn::kSum;
      sum.kind = SinkAgg::Kind::kPacked;
      sum.col = 1;
      o.aggs = {count, sum};
      o.key_range_known = dense;
      o.key_hi = groups - 1;
      AggSink sink(std::move(o));
      for (size_t base = 0; base < n; base += kBatchSize) {
        const size_t take = std::min<size_t>(kBatchSize, n - base);
        const int64_t* cols[2] = {keys.data() + base, vals.data() + base};
        sink.Update(0, take, cols);
      }
      g_sink += sink.dense();
    };
    const double hm = BestMs(reps, [&] { run_sink(false); });
    const bool dense_ok = static_cast<uint64_t>(groups) <= AggSink::kDenseMaxSpan;
    const double dm = dense_ok ? BestMs(reps, [&] { run_sink(true); }) : 0;
    // The pre-flat-table executor sink, faithfully: a reused key vector
    // filled per row, a byte-mixing vector hash, find-then-emplace with a
    // heap-allocated 40-byte state vector per group.
    struct OldState {
      double d = 0;
      int64_t i = 0;
      uint64_t count = 0;
      int64_t packed_minmax = 0;
      bool has = false;
    };
    struct VecHash {
      size_t operator()(const std::vector<int64_t>& v) const {
        size_t h = 0xcbf29ce484222325ull;
        for (int64_t x : v) {
          h ^= static_cast<size_t>(x) + 0x9e3779b97f4a7c15ull + (h << 6) +
               (h >> 2);
        }
        return h;
      }
    };
    const double om = BestMs(reps, [&] {
      std::unordered_map<std::vector<int64_t>, std::vector<OldState>, VecHash>
          groups;
      std::vector<int64_t> key(1);
      for (size_t i = 0; i < n; ++i) {
        key[0] = keys[i];
        auto it = groups.find(key);
        if (it == groups.end()) {
          it = groups.emplace(key, std::vector<OldState>(1)).first;
        }
        OldState& s = it->second[0];
        s.count += 1;
        s.i += vals[i];
      }
      g_sink += groups.size();
    });
    struct MapState {
      uint64_t count = 0;
      int64_t sum = 0;
    };
    const double um = BestMs(reps, [&] {
      std::unordered_map<int64_t, MapState> m;
      for (size_t i = 0; i < n; ++i) {
        MapState& s = m[keys[i]];
        s.count += 1;
        s.sum += vals[i];
      }
      g_sink += m.size();
    });
    gcounts.push_back(gd);
    flat_ms.push_back(fm);
    oldsink_ms.push_back(om);
    umap_ms.push_back(um);
    sink_hash_ms.push_back(hm);
    json.Value("groupby_flat", gd, "ms", fm);
    json.Value("groupby_old_sink", gd, "ms", om);
    json.Value("groupby_unordered_map", gd, "ms", um);
    json.Value("groupby_sink_hash", gd, "ms", hm);
    if (dense_ok) {
      dense_ms.push_back(dm);
      json.Value("groupby_dense", gd, "ms", dm);
    }
  }

  // ------------------------------------------------------------------
  // 4. Join probe: the batch pipeline the executor ships for CSI-driven
  //    hash joins (blocked-Bloom prefilter on the decoded key vector,
  //    then the three-kernel ComputeHashes / FindSlots / ExpandMatches
  //    sequence over the survivors) vs the row-at-a-time Find() loop row
  //    mode runs, which has no Bloom pushdown. Selective FK -> PK probe:
  //    the build side covers 1/8th of the probe key space, so most probe
  //    rows miss — the regime Bloom pushdown exists for. Also times the
  //    two supporting kernels in isolation (Bloom membership, match
  //    expansion on a duplicate-heavy build side).
  // ------------------------------------------------------------------
  std::vector<double> bsizes, probe_row_ms, probe_batch_ms, bloom_ms,
      expand_ms;
  double big_row_ms = 0, big_batch_ms = 0;
  for (size_t nd : {size_t{4096}, size_t{1} << 20}) {
    std::vector<std::pair<int64_t, uint32_t>> pairs;
    pairs.reserve(nd);
    for (size_t i = 0; i < nd; ++i) {
      // Sparse non-contiguous keys so hashing actually earns its keep.
      pairs.emplace_back(static_cast<int64_t>(i * 7 + 3),
                         static_cast<uint32_t>(i));
    }
    FlatJoinMap map;
    map.Build(pairs);
    BlockedBloomFilter bf;
    bf.Init(nd);
    for (const auto& [k, v] : pairs) {
      (void)v;
      bf.Insert(k);
    }
    // Probe keys span 8x the build key space: ~12.5% of probes hit.
    std::vector<int64_t> probe(n);
    for (size_t i = 0; i < n; ++i) {
      probe[i] = static_cast<int64_t>(
                     rng.Uniform(0, static_cast<int64_t>(nd) * 8 - 1)) *
                     7 +
                 3;
    }
    const double rm = BestMs(reps, [&] {
      uint64_t hits = 0, acc = 0;
      for (size_t i = 0; i < n; ++i) {
        uint32_t cnt = 0;
        const uint32_t* idx = map.Find(probe[i], &cnt);
        hits += cnt;
        if (cnt > 0) acc += idx[0];
      }
      g_sink += hits + acc;
    });
    std::vector<int64_t> keybuf(kBatchSize);
    std::vector<uint64_t> hashes(kBatchSize);
    std::vector<int32_t> slots(kBatchSize);
    std::vector<uint32_t> prow, brow;
    const double bm = BestMs(reps, [&] {
      uint64_t hits = 0;
      for (size_t base = 0; base < n; base += kBatchSize) {
        const size_t take = std::min<size_t>(kBatchSize, n - base);
        // Bloom prefilter + compaction, as ScanGroups does on the decoded
        // key column before any other column is gathered.
        size_t m = 0;
        for (size_t i = 0; i < take; ++i) {
          const int64_t k = probe[base + i];
          keybuf[m] = k;
          m += bf.MayContain(k);
        }
        map.ComputeHashes(keybuf.data(), m, hashes.data());
        map.FindSlots(keybuf.data(), hashes.data(), m, slots.data());
        prow.clear();
        brow.clear();
        hits += map.ExpandMatches(slots.data(), m, &prow, &brow);
      }
      g_sink += hits;
    });
    const double fm = BestMs(reps, [&] {
      uint64_t pass = 0;
      for (size_t i = 0; i < n; ++i) pass += bf.MayContain(probe[i]);
      g_sink += pass;
    });
    // Expansion in isolation, on a duplicate-heavy build side (8 rows per
    // key): resolve slots once untimed, then time the expansion kernel.
    std::vector<std::pair<int64_t, uint32_t>> dup_pairs;
    for (size_t i = 0; i < nd; ++i) {
      dup_pairs.emplace_back(static_cast<int64_t>((i / 8) * 7 + 3),
                             static_cast<uint32_t>(i));
    }
    FlatJoinMap dup_map;
    dup_map.Build(dup_pairs);
    std::vector<int32_t> dup_slots(n);
    {
      std::vector<uint64_t> h(n);
      dup_map.ComputeHashes(probe.data(), n, h.data());
      // Probe keys target the duplicated key space.
      for (size_t i = 0; i < n; ++i) {
        probe[i] = static_cast<int64_t>(
                       rng.Uniform(0, static_cast<int64_t>(nd / 8) - 1)) *
                       7 +
                   3;
      }
      dup_map.ComputeHashes(probe.data(), n, h.data());
      dup_map.FindSlots(probe.data(), h.data(), n, dup_slots.data());
    }
    const double em = BestMs(reps, [&] {
      uint64_t hits = 0;
      for (size_t base = 0; base < n; base += kBatchSize) {
        const size_t take = std::min<size_t>(kBatchSize, n - base);
        prow.clear();
        brow.clear();
        hits += dup_map.ExpandMatches(dup_slots.data() + base, take, &prow,
                                      &brow);
      }
      g_sink += hits;
    });
    bsizes.push_back(static_cast<double>(nd));
    probe_row_ms.push_back(rm);
    probe_batch_ms.push_back(bm);
    bloom_ms.push_back(fm);
    expand_ms.push_back(em);
    big_row_ms = rm;
    big_batch_ms = bm;
    json.Value("join_probe_row", static_cast<double>(nd), "ms", rm);
    json.Value("join_probe_batch", static_cast<double>(nd), "ms", bm);
    json.Value("join_bloom_check", static_cast<double>(nd), "ms", fm);
    json.Value("join_match_expand", static_cast<double>(nd), "ms", em);
  }

  std::printf("Kernel microbenchmarks: %zu rows/kernel, best of %d (sink=%" PRIu64 ")\n",
              n, reps, g_sink);
  PrintTable("Batch unpack (ms, 4M values)", "bit width", widths,
             {{"Decode", unpack_ms}});
  PrintTable("Selection pipeline (ms, 4M values, 16-bit codes)", "selectivity",
             sels, {{"bitmap", ev_bitmap_ms}, {"byte loop", ev_bytes_ms}});
  PrintTable("Group-by sink (ms, 4M rows)", "#groups", gcounts,
             {{"flat table", flat_ms},
              {"old vec-key sink", oldsink_ms},
              {"int64 umap", umap_ms},
              {"sink hash", sink_hash_ms},
              {"sink dense", dense_ms}});
  PrintTable("Join probe (ms, 4M selective FK->PK probes)", "build rows",
             bsizes,
             {{"row Find()", probe_row_ms},
              {"bloom+batch", probe_batch_ms},
              {"bloom check", bloom_ms},
              {"match expand", expand_ms}});

  // Evaluation is one compare per element on both sides, so the bitmap
  // pipeline's edge comes from Count (a popcount scan over n/64 words) and
  // ToIndices (skips empty words whole) vs the byte path re-walking all n
  // bytes for each. Near selectivity 1 both paths converge to parity —
  // assert no-worse-than-noise there and a clear mid-selectivity win.
  double bitmap_worst = 0, bitmap_best = 0;
  for (size_t i = 0; i < sels.size(); ++i) {
    bitmap_worst = std::max(bitmap_worst, ev_bitmap_ms[i] / ev_bytes_ms[i]);
    bitmap_best = std::max(bitmap_best, ev_bytes_ms[i] / ev_bitmap_ms[i]);
  }
  Shape(bitmap_worst < 1.15 && bitmap_best > 1.5,
        "bitmap selection pipeline never loses to the byte loop beyond noise "
        "and wins clearly at selective predicates (worst ratio " +
            std::to_string(bitmap_worst) + ", best speedup " +
            std::to_string(bitmap_best) + "x)");
  // The flat table's structural payoff is at high group counts — the
  // regime that decides fig. 4's spill threshold — where the old sink pays
  // one heap node plus two heap vectors per group and a pointer chase per
  // row. At tiny group counts everything is cache-resident and the isolated
  // sink comparison hides the old path's other per-row costs (key vector
  // fills, a branchy per-row aggregate switch); the end-to-end effect is
  // measured by bench_fig4_groupby, which improved at every group count.
  Shape(flat_ms.back() < oldsink_ms.back(),
        "flat aggregate table beats the replaced vector-keyed sink at high "
        "group counts (" +
            std::to_string(oldsink_ms.back() / flat_ms.back()) + "x)");
  // Direct-indexed states take no hash and no probe: they must never lose
  // to the ideal single-pass map at any group count they apply to.
  bool dense_wins = !dense_ms.empty();
  std::string dense_ratios;
  for (size_t i = 0; i < dense_ms.size(); ++i) {
    dense_wins &= dense_ms[i] <= umap_ms[i];
    dense_ratios += (i ? ", " : "") + std::to_string(umap_ms[i] / dense_ms[i]);
  }
  Shape(dense_wins,
        "direct-indexed group states beat std::unordered_map at every group "
        "count within the dense cap (" + dense_ratios + "x)");
  // The acceptance bar for the batch-join pipeline: once the build side's
  // directory no longer fits in cache, the Bloom prefilter plus the
  // hash+prefetch / resolve / expand kernel sequence must beat
  // row-at-a-time Find() by >= 1.5x on a selective FK -> PK probe. Row
  // mode pays a directory-sized cache miss per probe row; the batch path
  // answers most rows from the (cache-resident) Bloom filter and only
  // walks the directory for the survivors.
  Shape(big_row_ms / big_batch_ms >= 1.5,
        "bloom + vectorized probe beats row-mode Find() on a selective "
        "out-of-cache FK->PK join (" +
            std::to_string(big_row_ms / big_batch_ms) + "x)");
  json.Write();
  return 0;
}
