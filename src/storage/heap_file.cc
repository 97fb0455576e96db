#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

#include "common/failpoint.h"

namespace hd {

HeapFile::HeapFile(int stride, BufferPool* pool)
    : stride_(std::max(1, stride)), pool_(pool) {
  rows_per_page_ =
      std::max<int>(1, static_cast<int>(kPageBytes) / (stride_ * 8));
}

HeapFile::~HeapFile() {
  for (auto& p : pages_) {
    if (p->extent != kInvalidExtent) pool_->Unregister(p->extent);
  }
}

uint64_t HeapFile::Append(std::span<const int64_t> row) {
  if (pages_.empty() || pages_.back()->count >= rows_per_page_) {
    auto page = std::make_unique<Page>();
    page->data.resize(static_cast<size_t>(rows_per_page_) * stride_);
    page->extent = pool_->Register(kPageBytes);
    pages_.push_back(std::move(page));
    num_pages_ = pages_.size();
  }
  Page* p = pages_.back().get();
  std::memcpy(p->data.data() + static_cast<size_t>(p->count) * stride_,
              row.data(), stride_ * 8);
  p->deleted.push_back(false);
  ++p->count;
  return num_rows_++;
}

uint64_t HeapFile::AppendTombstone() {
  static thread_local std::vector<int64_t> zeros;
  zeros.assign(stride_, 0);
  const uint64_t rid = Append(zeros);
  int slot;
  Page* p = PageFor(rid, &slot);
  p->deleted[slot] = true;
  ++deleted_rows_;
  return rid;
}

void HeapFile::StampPageLsn(uint64_t rid, uint64_t lsn) {
  int slot;
  Page* p = PageFor(rid, &slot);
  if (p == nullptr) return;
  p->lsn = std::max(p->lsn, lsn);
  pool_->MarkDirty(p->extent, lsn);
}

uint64_t HeapFile::PageLsn(uint64_t rid) const {
  int slot;
  const Page* p = PageFor(rid, &slot);
  return p == nullptr ? 0 : p->lsn;
}

HeapFile::Page* HeapFile::PageFor(uint64_t rid, int* slot) const {
  if (rid >= num_rows_) return nullptr;
  const uint64_t pidx = rid / rows_per_page_;
  *slot = static_cast<int>(rid % rows_per_page_);
  return pages_[pidx].get();
}

Status HeapFile::Fetch(uint64_t rid, int64_t* out, QueryMetrics* m) const {
  int slot;
  Page* p = PageFor(rid, &slot);
  if (p == nullptr || slot >= p->count) {
    return Status::NotFound("row id out of range");
  }
  HD_FAILPOINT_RETURN_M("heapfile.io", m);
  HD_RETURN_IF_ERROR(pool_->Access(p->extent, IoPattern::kRandom, m));
  if (p->deleted[slot]) return Status::NotFound("row deleted");
  std::memcpy(out, p->data.data() + static_cast<size_t>(slot) * stride_,
              stride_ * 8);
  return Status::OK();
}

Status HeapFile::Update(uint64_t rid, std::span<const int64_t> row,
                        QueryMetrics* m) {
  int slot;
  Page* p = PageFor(rid, &slot);
  if (p == nullptr || slot >= p->count || p->deleted[slot]) {
    return Status::NotFound("row not found");
  }
  HD_FAILPOINT_RETURN_M("heapfile.io", m);
  HD_RETURN_IF_ERROR(pool_->Access(p->extent, IoPattern::kRandom, m));
  std::memcpy(p->data.data() + static_cast<size_t>(slot) * stride_, row.data(),
              stride_ * 8);
  return Status::OK();
}

Status HeapFile::Delete(uint64_t rid, QueryMetrics* m) {
  int slot;
  Page* p = PageFor(rid, &slot);
  if (p == nullptr || slot >= p->count || p->deleted[slot]) {
    return Status::NotFound("row not found");
  }
  HD_FAILPOINT_RETURN_M("heapfile.io", m);
  HD_RETURN_IF_ERROR(pool_->Access(p->extent, IoPattern::kRandom, m));
  p->deleted[slot] = true;
  ++deleted_rows_;
  return Status::OK();
}

Status HeapFile::Resurrect(uint64_t rid, std::span<const int64_t> row) {
  int slot;
  Page* p = PageFor(rid, &slot);
  if (p == nullptr || slot >= p->count) {
    return Status::NotFound("row id out of range");
  }
  if (!p->deleted[slot]) {
    return Status::Corruption("resurrect of a live row");
  }
  std::memcpy(p->data.data() + static_cast<size_t>(slot) * stride_,
              row.data(), stride_ * 8);
  p->deleted[slot] = false;
  --deleted_rows_;
  return Status::OK();
}

Status HeapFile::Scan(const std::function<bool(uint64_t, const int64_t*)>& fn,
                      QueryMetrics* m) const {
  return ScanRange(0, num_rows_, fn, m);
}

Status HeapFile::ScanRange(
    uint64_t begin_rid, uint64_t end_rid,
    const std::function<bool(uint64_t, const int64_t*)>& fn,
    QueryMetrics* m) const {
  end_rid = std::min<uint64_t>(end_rid, num_rows_);
  if (begin_rid >= end_rid) return Status::OK();
  HD_FAILPOINT_RETURN_M("heapfile.io", m);
  uint64_t pidx = begin_rid / rows_per_page_;
  int slot = static_cast<int>(begin_rid % rows_per_page_);
  uint64_t rid = begin_rid;
  for (; pidx < pages_.size() && rid < end_rid; ++pidx, slot = 0) {
    const Page* p = pages_[pidx].get();
    HD_RETURN_IF_ERROR(pool_->Access(p->extent, IoPattern::kSequential, m));
    for (; slot < p->count && rid < end_rid; ++slot, ++rid) {
      if (p->deleted[slot]) continue;
      if (m != nullptr) m->rows_scanned += 1;
      if (!fn(rid, p->data.data() + static_cast<size_t>(slot) * stride_)) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

}  // namespace hd
