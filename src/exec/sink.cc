#include "exec/sink.h"

#include <algorithm>
#include <numeric>

#include "catalog/table.h"
#include "storage/disk_model.h"

namespace hd {

OutputSink::OutputSink(Options o)
    : o_(std::move(o)), parts_(std::max(1, o_.nworkers)) {}

bool OutputSink::Update(int w, size_t n, const int64_t* const* cols) {
  size_t take = n;
  bool more = true;
  if (o_.limit >= 0 && o_.order_keys.empty()) {
    const uint64_t limit = static_cast<uint64_t>(o_.limit);
    const uint64_t prev =
        std::min(limit, taken_.fetch_add(n, std::memory_order_relaxed));
    take = std::min<uint64_t>(n, limit - prev);
    more = prev + take < limit;
  }
  // Unsorted output streams to the client: a worker keeps only the
  // materialization window.
  Part& p = parts_[w];
  size_t keep = take;
  if (!sorting()) {
    const uint64_t cap = QueryResult::kMaxMaterializedRows;
    keep = static_cast<size_t>(
        std::min<uint64_t>(take, cap - std::min(cap, p.count)));
  }
  p.count += take;
  const size_t k = o_.cols.size();
  const size_t at = p.rows.size();
  p.rows.resize(at + keep * k);
  int64_t* dst = p.rows.data() + at;
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < keep; ++i) dst[i * k + c] = cols[c][i];
  }
  return more;
}

bool OutputSink::AddRow(int w, const int64_t* vals) {
  std::vector<const int64_t*>& ptrs = parts_[w].ptrs;
  ptrs.resize(o_.cols.size());
  for (size_t c = 0; c < ptrs.size(); ++c) ptrs[c] = vals + c;
  return Update(w, 1, ptrs.data());
}

uint64_t OutputSink::rows_in() const {
  uint64_t n = 0;
  for (const Part& p : parts_) n += p.count;
  return n;
}

uint64_t OutputSink::Remaining() const {
  if (o_.limit < 0 || !o_.order_keys.empty()) return UINT64_MAX;
  const uint64_t limit = static_cast<uint64_t>(o_.limit);
  return limit - std::min(limit, taken_.load(std::memory_order_relaxed));
}

Status OutputSink::Finish(QueryResult* res, QueryMetrics* fm) {
  const size_t stride = o_.cols.size();
  std::vector<int64_t> all;
  for (Part& p : parts_) {
    all.insert(all.end(), p.rows.begin(), p.rows.end());
    p.rows = {};
  }
  const uint64_t bytes = all.size() * 8;
  fm->UpdatePeakMemory(bytes);
  // Output order: a sorted row index, or the workers' rows in turn.
  std::vector<uint32_t> idx;
  if (sorting()) {
    if (bytes > o_.grant && o_.grant > 0) {
      // External sort: the rows go to disk in runs and come back merged.
      res->spilled = true;
      fm->spill_bytes += bytes;
      HD_RETURN_IF_ERROR(o_.disk->Write(bytes, IoPattern::kSequential, fm));
      HD_RETURN_IF_ERROR(o_.disk->Read(bytes, IoPattern::kSequential, fm));
    }
    idx.resize(all.size() / stride);
    std::iota(idx.begin(), idx.end(), 0u);
    // Decided once, after the scan: strings compare through their
    // dictionary only where codes fell out of string order.
    std::vector<const StringDict*> dicts;
    for (int k : o_.order_keys) {
      dicts.push_back(UnorderedDict(o_.cols[k].table->dict(o_.cols[k].col)));
    }
    // Ties break on the row index: a total order, so the sort is stable.
    std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
      for (size_t k = 0; k < dicts.size(); ++k) {
        const int64_t va = all[a * stride + o_.order_keys[k]];
        const int64_t vb = all[b * stride + o_.order_keys[k]];
        if (va != vb) return PackedLess(va, vb, dicts[k]);
      }
      return a < b;
    });
  }
  uint64_t out_n = rows_in();
  if (o_.limit >= 0) out_n = std::min<uint64_t>(out_n, o_.limit);
  res->row_count = out_n;
  const size_t matn = static_cast<size_t>(
      std::min<uint64_t>(out_n, QueryResult::kMaxMaterializedRows));
  res->rows.reserve(matn);
  for (size_t i = 0; i < matn; ++i) {
    const int64_t* v = &all[(idx.empty() ? i : idx[i]) * stride];
    Row r;
    r.reserve(o_.nout);
    for (size_t c = 0; c < o_.nout; ++c) {
      r.push_back(o_.cols[c].table->UnpackValue(o_.cols[c].col, v[c]));
    }
    res->rows.push_back(std::move(r));
  }
  return Status::OK();
}

}  // namespace hd
