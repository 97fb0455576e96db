// google-benchmark micro-benchmarks for the core structures: B+ tree
// operations, segment encodings, columnstore scans, and join probes.
// These are the engine-level ablations backing the calibration constants
// in optimizer/cost_model.h.
#include <benchmark/benchmark.h>

#include "btree/btree.h"
#include "columnstore/columnstore.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"

namespace hd {
namespace {

struct Env {
  DiskModel disk;
  BufferPool pool{&disk};
};

Env* env() {
  static Env e;
  return &e;
}

void BM_BTreeBulkLoad(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<int64_t> flat;
  flat.reserve(n * 2);
  for (int64_t i = 0; i < n; ++i) {
    flat.push_back(i);
    flat.push_back(i * 3);
  }
  for (auto _ : state) {
    BTree t(1, 1, &env()->pool);
    t.BulkLoad(flat);
    benchmark::DoNotOptimize(t.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(100000);

void BM_BTreeSeek(benchmark::State& state) {
  const int64_t n = 1000000;
  std::vector<int64_t> flat;
  for (int64_t i = 0; i < n; ++i) {
    flat.push_back(i);
    flat.push_back(i);
  }
  BTree t(1, 1, &env()->pool);
  t.BulkLoad(flat);
  Rng rng(1);
  int64_t out;
  for (auto _ : state) {
    int64_t k = rng.Uniform(0, n - 1);
    benchmark::DoNotOptimize(
        t.SeekEqual(std::span<const int64_t>(&k, 1), &out, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeSeek);

void BM_BTreeInsert(benchmark::State& state) {
  BTree t(1, 1, &env()->pool);
  t.BulkLoad({});
  Rng rng(2);
  int64_t i = 0;
  for (auto _ : state) {
    int64_t k = (i++ << 20) | rng.Uniform(0, (1 << 20) - 1);
    int64_t p = i;
    benchmark::DoNotOptimize(t.Insert(std::span<const int64_t>(&k, 1),
                                      std::span<const int64_t>(&p, 1),
                                      nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeScan(benchmark::State& state) {
  const int64_t n = 1000000;
  std::vector<int64_t> flat;
  for (int64_t i = 0; i < n; ++i) {
    flat.push_back(i);
    flat.push_back(i);
  }
  BTree t(1, 1, &env()->pool);
  t.BulkLoad(flat);
  for (auto _ : state) {
    int64_t sum = 0;
    t.Scan(Bound::Unbounded(), Bound::Unbounded(),
           [&](const int64_t* k, const int64_t*) {
             sum += k[0];
             return true;
           },
           nullptr);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeScan);

void BM_SegmentDecodeRaw(benchmark::State& state) {
  Rng rng(3);
  std::vector<int64_t> v;
  for (int i = 0; i < 131072; ++i) v.push_back(rng.Uniform(0, 1 << 30));
  ColumnSegment s;
  s.Build(v, &env()->pool);
  std::vector<int64_t> out(v.size());
  for (auto _ : state) {
    s.Decode(0, v.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_SegmentDecodeRaw);

void BM_SegmentDecodeRle(benchmark::State& state) {
  std::vector<int64_t> v;
  for (int g = 0; g < 100; ++g) {
    for (int i = 0; i < 1311; ++i) v.push_back(g);
  }
  ColumnSegment s;
  s.Build(v, &env()->pool);
  std::vector<int64_t> out(v.size());
  for (auto _ : state) {
    s.Decode(0, v.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_SegmentDecodeRle);

void BM_CsiScanWithPredicate(benchmark::State& state) {
  const size_t n = 1 << 20;
  Rng rng(4);
  std::vector<std::vector<int64_t>> cols(2);
  std::vector<int64_t> locs;
  for (size_t i = 0; i < n; ++i) {
    cols[0].push_back(rng.Uniform(0, 1 << 30));
    cols[1].push_back(rng.Uniform(0, 1000));
    locs.push_back(i);
  }
  ColumnStoreIndex csi(ColumnStoreIndex::Kind::kPrimary, 2, &env()->pool);
  csi.BulkLoad(std::move(cols), std::move(locs));
  for (auto _ : state) {
    int64_t sum = 0;
    const CsiViewPtr view = csi.Pin().value();
    view->ScanGroups(0, view->num_row_groups(), {1}, {{0, 0, 1 << 30 >> 1}},
                     [&](const ColumnBatch& b) {
                       for (int i = 0; i < b.count; ++i) sum += b.cols[0][i];
                       return true;
                     },
                     nullptr, /*need_locators=*/false);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CsiScanWithPredicate);

void BM_SegmentBuild(benchmark::State& state) {
  Rng rng(5);
  std::vector<int64_t> v;
  for (int i = 0; i < 131072; ++i) v.push_back(rng.Uniform(0, 100000));
  for (auto _ : state) {
    ColumnSegment s;
    s.Build(v, &env()->pool);
    benchmark::DoNotOptimize(s.size_bytes());
  }
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_SegmentBuild);

void BM_BufferPoolAccessHot(benchmark::State& state) {
  DiskModel disk;
  BufferPool pool(&disk);
  std::vector<ExtentId> ids;
  for (int i = 0; i < 1024; ++i) ids.push_back(pool.Register(kPageBytes));
  Rng rng(8);
  QueryMetrics m;
  for (auto _ : state) {
    pool.Access(ids[rng.Uniform(0, 1023)], IoPattern::kRandom, &m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolAccessHot);

void BM_RowGroupBuildWithCompressionSort(benchmark::State& state) {
  Rng rng(9);
  const size_t n = 65536;
  std::vector<std::vector<int64_t>> cols(4);
  for (size_t i = 0; i < n; ++i) {
    cols[0].push_back(rng.Uniform(0, 20));
    cols[1].push_back(rng.Uniform(0, 200));
    cols[2].push_back(rng.Uniform(0, 1 << 20));
    cols[3].push_back(static_cast<int64_t>(i));
  }
  std::vector<int64_t> locs(n);
  for (size_t i = 0; i < n; ++i) locs[i] = static_cast<int64_t>(i);
  CsiOptions opts;
  for (auto _ : state) {
    RowGroup g;
    g.Build(cols, locs, opts, &env()->pool);
    benchmark::DoNotOptimize(g.size_bytes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RowGroupBuildWithCompressionSort);

}  // namespace
}  // namespace hd

BENCHMARK_MAIN();
