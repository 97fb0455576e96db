// Database: named tables plus the shared storage substrate.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "catalog/recovery.h"
#include "catalog/table.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/wal.h"

namespace hd {

class Database {
 public:
  explicit Database(DiskConfig disk_cfg = DiskConfig(),
                    uint64_t buffer_capacity_bytes = 0)
      : disk_(disk_cfg), pool_(&disk_, buffer_capacity_bytes) {}
  /// Drops the tables, then hands the freed heap back to the operating
  /// system: a process that replaces one database with another (a server
  /// reloading, a benchmark setting up again) would otherwise keep the old
  /// one's pages resident under the new one.
  ~Database();

  /// Create a table; name must be unique. The table gets a stable catalog
  /// id and, when durability is open, is bound to the WAL (its DDL still
  /// only becomes durable at the next Checkpoint()).
  Result<Table*> CreateTable(const std::string& name, Schema schema);
  Table* GetTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  const std::map<std::string, std::unique_ptr<Table>>& tables() const {
    return tables_;
  }

  BufferPool* buffer_pool() { return &pool_; }
  DiskModel* disk() { return &disk_; }

  /// Model a cold server: drop all buffer-pool residency.
  void ColdStart() { pool_.EvictAll(); }
  /// Model a fully warmed cache.
  void WarmAll() { pool_.WarmAll(); }

  /// Total bytes across all tables' primary structures and indexes.
  uint64_t TotalSizeBytes() const;

  // ---------- durability (storage/wal.h, catalog/recovery.h) ----------

  /// Attach this database to `dir`: run restart recovery (checkpoint +
  /// WAL replay) into the current catalog, then open the WAL for appends
  /// and bind every table. kOff leaves the database fully volatile (the
  /// pre-durability engine) and is a no-op. Call once, before serving.
  Status OpenDurability(const std::string& dir, DurabilityMode mode,
                        WalOptions opts = WalOptions(),
                        RecoveryStats* stats = nullptr);

  /// Fuzzy checkpoint + WAL truncation (catalog/recovery.cc). Also the
  /// durability point for DDL and bulk loads, which are not logged.
  Status Checkpoint();

  WalManager* wal() const { return wal_.get(); }
  DurabilityMode durability_mode() const { return durability_mode_; }
  const std::string& data_dir() const { return data_dir_; }

  Table* GetTableById(uint32_t id) const;
  uint32_t next_table_id() const { return next_table_id_; }

  // Recovery seams (catalog/recovery.cc): pin a recovered table to its
  // checkpointed id / restore the id allocation point.
  void AssignTableId(Table* t, uint32_t id);
  void SeedNextTableId(uint32_t next) {
    next_table_id_ = std::max(next_table_id_, next);
  }

 private:
  DiskModel disk_;
  BufferPool pool_;
  std::map<std::string, std::unique_ptr<Table>> tables_;

  std::string data_dir_;
  DurabilityMode durability_mode_ = DurabilityMode::kOff;
  std::unique_ptr<WalManager> wal_;
  uint32_t next_table_id_ = 1;
  std::map<uint32_t, Table*> tables_by_id_;
};

}  // namespace hd
