#include "catalog/database.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace hd {

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name)) {
    return Status::InvalidArgument("table exists: " + name);
  }
  auto t = std::make_unique<Table>(name, std::move(schema), &pool_);
  Table* ptr = t.get();
  tables_.emplace(name, std::move(t));
  const uint32_t id = next_table_id_++;
  ptr->BindWal(wal_.get(), id);
  tables_by_id_[id] = ptr;
  // DDL is not logged, so a table created after the last checkpoint would
  // be invisible to recovery — and committed DML against it silently
  // unreplayable. Checkpointing right away puts the (empty) table in the
  // recovery baseline. No-op during recovery itself: wal_ is not open yet.
  if (wal_ != nullptr && wal_->open()) {
    Status s = WriteCheckpoint(this, data_dir_);
    if (!s.ok()) {
      tables_by_id_.erase(id);
      tables_.erase(name);
      return s;
    }
  }
  return ptr;
}

Table* Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Database::~Database() {
  tables_.clear();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

Status Database::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  tables_by_id_.erase(it->second->table_id());
  tables_.erase(it);
  // Make the drop durable immediately; otherwise recovery would resurrect
  // the table from the previous checkpoint. An error here means the drop
  // happened in memory but is not yet durable — the caller may retry.
  if (wal_ != nullptr && wal_->open()) {
    HD_RETURN_IF_ERROR(WriteCheckpoint(this, data_dir_));
  }
  return Status::OK();
}

uint64_t Database::TotalSizeBytes() const {
  uint64_t b = 0;
  for (const auto& [name, t] : tables_) {
    b += t->primary_size_bytes();
    for (const auto& si : t->secondaries()) b += si->size_bytes();
  }
  return b;
}

Table* Database::GetTableById(uint32_t id) const {
  auto it = tables_by_id_.find(id);
  return it == tables_by_id_.end() ? nullptr : it->second;
}

void Database::AssignTableId(Table* t, uint32_t id) {
  tables_by_id_.erase(t->table_id());
  t->BindWal(wal_.get(), id);
  tables_by_id_[id] = t;
  next_table_id_ = std::max(next_table_id_, id + 1);
}

Status Database::OpenDurability(const std::string& dir, DurabilityMode mode,
                                WalOptions opts, RecoveryStats* stats) {
  if (mode == DurabilityMode::kOff) return Status::OK();
  if (wal_ != nullptr) {
    return Status::InvalidArgument("durability already open");
  }
  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  HD_RETURN_IF_ERROR(WalRecover(this, dir, stats));

  data_dir_ = dir;
  durability_mode_ = mode;
  wal_ = std::make_unique<WalManager>(dir, mode, opts);
  Status s = wal_->Open(stats->max_lsn + 1, stats->max_txn + 1);
  if (!s.ok()) {
    wal_.reset();
    durability_mode_ = DurabilityMode::kOff;
    return s;
  }
  for (const auto& [name, t] : tables_) {
    t->BindWal(wal_.get(), t->table_id());
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("durability is not open");
  }
  return WriteCheckpoint(this, data_dir_);
}

}  // namespace hd
