#include "catalog/recovery.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "catalog/database.h"
#include "catalog/table.h"
#include "common/byte_codec.h"
#include "common/failpoint.h"
#include "common/telemetry.h"

namespace hd {
namespace {

// Checkpoint file: "HDCKPT01" magic, then the little-endian body described
// in WriteCheckpoint below, then a u32 CRC32 over everything after the
// magic. Installed atomically via tmp + fsync + rename; the CURRENT file
// names the live checkpoint so a crash mid-install never orphans readers.
constexpr char kCkptMagic[8] = {'H', 'D', 'C', 'K', 'P', 'T', '0', '1'};

Status ReadFileAll(const std::string& path, std::vector<uint8_t>* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(path);
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  out->clear();
  uint8_t buf[1 << 16];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      Status s = Status::IoError("read " + path + ": " + std::strerror(errno));
      ::close(fd);
      return s;
    }
    if (r == 0) break;
    out->insert(out->end(), buf, buf + r);
  }
  ::close(fd);
  return Status::OK();
}

Status WriteFileDurable(const std::string& path, const uint8_t* data,
                        size_t n) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      Status s = Status::IoError("write " + path + ": " + std::strerror(errno));
      ::close(fd);
      return s;
    }
    off += w;
  }
  if (::fsync(fd) != 0) {
    Status s = Status::IoError("fsync " + path + ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open dir " + dir + ": " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    Status s = Status::IoError("fsync dir " + dir + ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::OK();
}

/// Durably replace `path`'s contents (tmp + rename + dir fsync).
Status ReplaceFileDurable(const std::string& dir, const std::string& path,
                          const uint8_t* data, size_t n) {
  const std::string tmp = path + ".tmp";
  HD_RETURN_IF_ERROR(WriteFileDurable(tmp, data, n));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + ": " + std::strerror(errno));
  }
  return FsyncDir(dir);
}

void SerializeIndexDef(std::vector<uint8_t>* out, const IndexDef& def) {
  PutString(out, def.name);
  PutU8(out, def.type == IndexDef::Type::kColumnStore ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(def.key_cols.size()));
  for (int c : def.key_cols) PutU32(out, static_cast<uint32_t>(c));
  PutU32(out, static_cast<uint32_t>(def.included_cols.size()));
  for (int c : def.included_cols) PutU32(out, static_cast<uint32_t>(c));
}

IndexDef DeserializeIndexDef(ByteCursor* c) {
  IndexDef def;
  def.name = c->Str();
  def.type = c->U8() == 1 ? IndexDef::Type::kColumnStore : IndexDef::Type::kBTree;
  uint32_t nk = c->U32();
  for (uint32_t i = 0; i < nk && c->ok; ++i) {
    def.key_cols.push_back(static_cast<int>(c->U32()));
  }
  uint32_t ni = c->U32();
  for (uint32_t i = 0; i < ni && c->ok; ++i) {
    def.included_cols.push_back(static_cast<int>(c->U32()));
  }
  return def;
}

/// Bytes `t`'s image takes at most, for reserving the checkpoint buffer
/// before any table is written. Rows added after this bound was taken
/// grow the buffer.
size_t ImageBytesBound(const Table& t) {
  std::shared_lock<FairSharedMutex> lk(t.phys_latch());
  const Schema& schema = t.schema();
  const int ncols = schema.num_columns();
  size_t b = 64 + t.name().size();
  for (int c = 0; c < ncols; ++c) {
    b += 16 + schema.column(c).name.size();
    if (const StringDict* d = t.dict(c)) b += d->byte_size();
  }
  for (const auto& si : t.secondaries()) {
    b += 16 + si->def.name.size() +
         4 * (si->def.key_cols.size() + si->def.included_cols.size());
  }
  b += 4 * t.primary_key_cols().size();
  return b + t.num_rows() * (ncols + 1) * sizeof(int64_t);
}

/// Append `t`'s image, read under its shared physical latch: schema,
/// dictionaries, physical design, then (rid, row) for every live row.
/// Returns the applied LSN the image is consistent at.
uint64_t SerializeTable(std::vector<uint8_t>* out, const Table& t) {
  std::shared_lock<FairSharedMutex> lk(t.phys_latch());
  PutU32(out, t.table_id());
  PutString(out, t.name());
  const Schema& schema = t.schema();
  const int ncols = schema.num_columns();
  PutU32(out, static_cast<uint32_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    const Column& col = schema.column(c);
    PutString(out, col.name);
    PutU8(out, static_cast<uint8_t>(col.type));
    PutU32(out, static_cast<uint32_t>(col.avg_width));
  }
  for (int c = 0; c < ncols; ++c) {
    const StringDict* d = t.dict(c);
    PutU8(out, d != nullptr ? 1 : 0);
    if (d == nullptr) continue;
    const bool sorted = d->sorted();
    const size_t n = d->size();
    PutU32(out, static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      PutString(out, d->At(static_cast<int64_t>(i)));
    }
    PutU8(out, sorted ? 1 : 0);
  }
  PutU8(out, static_cast<uint8_t>(t.primary_kind()));
  PutU32(out, static_cast<uint32_t>(t.primary_key_cols().size()));
  for (int k : t.primary_key_cols()) PutU32(out, static_cast<uint32_t>(k));
  PutU32(out, static_cast<uint32_t>(t.secondaries().size()));
  for (const auto& si : t.secondaries()) SerializeIndexDef(out, si->def);
  PutI64(out, t.next_rid());
  const uint64_t applied_lsn = t.applied_lsn();
  PutU64(out, applied_lsn);
  // The row count precedes the rows; it is patched once they are written.
  const size_t nrows_at = out->size();
  PutU64(out, 0);
  uint64_t nrows = 0;
  t.ScanAll(
      [&](int64_t rid, const int64_t* row) {
        PutI64(out, rid);
        for (int c = 0; c < ncols; ++c) PutI64(out, row[c]);
        ++nrows;
        return true;
      },
      nullptr);
  std::memcpy(out->data() + nrows_at, &nrows, sizeof(nrows));
  return applied_lsn;
}

std::string CkptPath(const std::string& dir, uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "checkpoint-%010llu.hd",
                static_cast<unsigned long long>(seq));
  return dir + "/" + buf;
}

std::string CurrentPath(const std::string& dir) { return dir + "/CURRENT"; }

}  // namespace

Status WriteCheckpoint(Database* db, const std::string& dir) {
  HD_FAILPOINT_RETURN("wal.checkpoint");
  WalManager* wal = db->wal();
  if (wal == nullptr || !wal->open()) {
    return Status::InvalidArgument("checkpoint requires an open WAL");
  }

  // One buffer holds the file: magic, body, CRC. It is reserved from the
  // tables' sizes first, so the body is written once and never copied.
  constexpr size_t kHeaderBytes = 3 * 8 + 2 * 4;
  size_t bound = sizeof(kCkptMagic) + kHeaderBytes + 4;
  for (const auto& [name, table] : db->tables()) {
    bound += ImageBytesBound(*table);
  }
  std::vector<uint8_t> file;
  file.reserve(bound);
  file.resize(sizeof(kCkptMagic) + kHeaderBytes);  // header patched below
  std::memcpy(file.data(), kCkptMagic, sizeof(kCkptMagic));

  // Fuzzy snapshot: each table is consistent at its own applied LSN; redo
  // replays anything logged after a table's snapshot point.
  uint64_t max_applied = 0;
  uint64_t first_unapplied = UINT64_MAX;
  uint32_t ntables = 0;
  for (const auto& [name, table] : db->tables()) {
    const uint64_t applied = SerializeTable(&file, *table);
    max_applied = std::max(max_applied, applied);
    first_unapplied = std::min(first_unapplied, applied + 1);
    ++ntables;
  }

  // Capture allocation points after the snapshots so they cover every LSN
  // the snapshots reflect.
  const uint64_t next_lsn = wal->next_lsn();
  const uint64_t next_txn = wal->AllocTxnId();
  uint64_t redo_start = std::min(next_lsn, first_unapplied);
  const uint64_t oldest_active = wal->OldestActiveTxnLsn();
  if (oldest_active != 0) redo_start = std::min(redo_start, oldest_active);

  // WAL rule: nothing snapshotted may be persisted before the log covering
  // it is durable. Dirty extents past the snapshot horizon belong to
  // concurrent DML this checkpoint did not capture — they stay dirty.
  HD_RETURN_IF_ERROR(wal->EnsureDurable(max_applied));
  HD_RETURN_IF_ERROR(
      db->buffer_pool()->CleanUpTo(max_applied, wal->durable_lsn()));

  std::vector<uint8_t> header;
  PutU64(&header, next_lsn);
  PutU64(&header, next_txn);
  PutU64(&header, redo_start);
  PutU32(&header, db->next_table_id());
  PutU32(&header, ntables);
  std::memcpy(file.data() + sizeof(kCkptMagic), header.data(), kHeaderBytes);
  PutU32(&file, WalCrc32(file.data() + sizeof(kCkptMagic),
                         file.size() - sizeof(kCkptMagic)));

  // Next sequence number: one past whatever CURRENT names.
  uint64_t seq = 1;
  std::string prev_ckpt;
  {
    std::vector<uint8_t> cur;
    if (ReadFileAll(CurrentPath(dir), &cur).ok()) {
      std::string name(cur.begin(), cur.end());
      while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
        name.pop_back();
      }
      unsigned long long prev = 0;
      if (std::sscanf(name.c_str(), "checkpoint-%llu.hd", &prev) == 1) {
        seq = prev + 1;
        prev_ckpt = dir + "/" + name;
      }
    }
  }

  const std::string ckpt = CkptPath(dir, seq);
  HD_RETURN_IF_ERROR(ReplaceFileDurable(dir, ckpt, file.data(), file.size()));
  const std::string current = ckpt.substr(dir.size() + 1) + "\n";
  HD_RETURN_IF_ERROR(ReplaceFileDurable(
      dir, CurrentPath(dir), reinterpret_cast<const uint8_t*>(current.data()),
      current.size()));
  // The previous checkpoint is unreachable once CURRENT points past it.
  if (!prev_ckpt.empty() && prev_ckpt != ckpt) ::unlink(prev_ckpt.c_str());

  HD_RETURN_IF_ERROR(wal->TruncateBelow(redo_start));
  Telemetry::Instance().Counter("wal.checkpoints")->Add(1);
  return Status::OK();
}

namespace {

/// Load the checkpoint named by CURRENT into `db`. NotFound = no
/// checkpoint (fresh directory) — not an error for recovery. On success
/// `*redo_start_out` is the checkpoint's stored redo horizon: every log
/// record below it was resolved when the checkpoint was taken (truncation
/// is segment-granular, so such records can still be present in the log).
Status LoadCheckpoint(Database* db, const std::string& dir,
                      RecoveryStats* stats, uint64_t* redo_start_out) {
  std::vector<uint8_t> cur;
  Status s = ReadFileAll(CurrentPath(dir), &cur);
  if (s.IsNotFound()) return s;
  HD_RETURN_IF_ERROR(s);
  std::string name(cur.begin(), cur.end());
  while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
    name.pop_back();
  }

  std::vector<uint8_t> file;
  HD_RETURN_IF_ERROR(ReadFileAll(dir + "/" + name, &file));
  if (file.size() < sizeof(kCkptMagic) + 4 ||
      std::memcmp(file.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return Status::Corruption("bad checkpoint magic: " + name);
  }
  const uint8_t* body = file.data() + sizeof(kCkptMagic);
  const size_t body_n = file.size() - sizeof(kCkptMagic) - 4;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, file.data() + file.size() - 4, 4);
  if (WalCrc32(body, body_n) != stored_crc) {
    return Status::Corruption("checkpoint CRC mismatch: " + name);
  }

  ByteCursor c{body, body_n};
  const uint64_t next_lsn = c.U64();
  const uint64_t next_txn = c.U64();
  const uint64_t redo_start = c.U64();
  const uint32_t next_table_id = c.U32();
  const uint32_t ntables = c.U32();
  for (uint32_t ti = 0; ti < ntables && c.ok; ++ti) {
    const uint32_t table_id = c.U32();
    const std::string tname = c.Str();
    const uint32_t ncols = c.U32();
    if (!c.ok || ncols > 4096) {
      return Status::Corruption("checkpoint table header: " + name);
    }
    std::vector<Column> cols;
    cols.reserve(ncols);
    for (uint32_t i = 0; i < ncols && c.ok; ++i) {
      Column col;
      col.name = c.Str();
      col.type = static_cast<ValueType>(c.U8());
      col.avg_width = static_cast<int>(c.U32());
      cols.push_back(std::move(col));
    }
    struct DictImage {
      int col;
      std::vector<std::string> strings;
      bool sorted;
    };
    std::vector<DictImage> dicts;
    for (uint32_t i = 0; i < ncols && c.ok; ++i) {
      if (c.U8() == 0) continue;
      DictImage d;
      d.col = static_cast<int>(i);
      const uint32_t n = c.U32();
      d.strings.reserve(n);
      for (uint32_t j = 0; j < n && c.ok; ++j) d.strings.push_back(c.Str());
      d.sorted = c.U8() == 1;
      dicts.push_back(std::move(d));
    }
    const PrimaryKind kind = static_cast<PrimaryKind>(c.U8());
    std::vector<int> keys;
    const uint32_t nkeys = c.U32();
    for (uint32_t i = 0; i < nkeys && c.ok; ++i) {
      keys.push_back(static_cast<int>(c.U32()));
    }
    std::vector<IndexDef> secondaries;
    const uint32_t nsec = c.U32();
    for (uint32_t i = 0; i < nsec && c.ok; ++i) {
      secondaries.push_back(DeserializeIndexDef(&c));
    }
    const int64_t next_rid = c.I64();
    const uint64_t applied_lsn = c.U64();
    const uint64_t nrows = c.U64();
    std::vector<int64_t> rids;
    rids.reserve(nrows);
    std::vector<std::vector<int64_t>> data(ncols);
    for (uint32_t i = 0; i < ncols; ++i) data[i].reserve(nrows);
    for (uint64_t r = 0; r < nrows && c.ok; ++r) {
      rids.push_back(c.I64());
      for (uint32_t i = 0; i < ncols; ++i) data[i].push_back(c.I64());
    }
    if (!c.ok) return Status::Corruption("truncated checkpoint: " + name);

    auto created = db->CreateTable(tname, Schema(std::move(cols)));
    HD_RETURN_IF_ERROR(created.status());
    Table* t = created.value();
    db->AssignTableId(t, table_id);
    for (auto& d : dicts) {
      t->RecoverRestoreDict(d.col, std::move(d.strings), d.sorted);
    }
    HD_RETURN_IF_ERROR(t->RecoverLoad(kind, std::move(keys), secondaries,
                                      std::move(data), std::move(rids),
                                      next_rid));
    t->set_applied_lsn(applied_lsn);
  }
  if (!c.ok) return Status::Corruption("truncated checkpoint: " + name);
  db->SeedNextTableId(next_table_id);
  if (redo_start_out != nullptr) *redo_start_out = redo_start;
  if (stats != nullptr) {
    stats->checkpoint_loaded = true;
    if (next_lsn > 0) stats->max_lsn = std::max(stats->max_lsn, next_lsn - 1);
    if (next_txn > 0) stats->max_txn = std::max(stats->max_txn, next_txn - 1);
  }
  return Status::OK();
}

}  // namespace

Status WalRecover(Database* db, const std::string& dir, RecoveryStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  *stats = RecoveryStats();

  uint64_t redo_start = 0;
  Status s = LoadCheckpoint(db, dir, stats, &redo_start);
  if (!s.ok() && !s.IsNotFound()) return s;

  // Single pass buffers the log: analysis needs the winner set before any
  // record is replayed, and the log fits (it is truncated at checkpoints).
  // Records below the checkpoint's redo_start were already resolved when
  // the checkpoint was taken — segment-granular truncation can leave them
  // in the log, and replaying or re-undoing them would double-apply across
  // repeated recoveries, so they are dropped here (max_lsn / max_txn still
  // account for them so allocators never go backwards).
  std::vector<WalRecord> log;
  std::set<uint64_t> winners;
  HD_RETURN_IF_ERROR(WalManager::ReadLog(
      dir,
      [&](const WalRecord& rec) {
        stats->max_lsn = std::max(stats->max_lsn, rec.lsn);
        stats->max_txn = std::max(stats->max_txn, rec.txn);
        if (rec.lsn < redo_start) return;
        if (rec.type == WalRecordType::kTxnCommit) {
          winners.insert(rec.txn);
        } else {
          log.push_back(rec);
        }
      },
      &stats->truncated_bytes));

  // Redo (repeating history): inserts replay for winners AND losers so
  // heap rids stay position-faithful; updates/deletes replay for winners
  // and self-committed (txn 0) records only. A fuzzy checkpoint can
  // capture a LOSER's in-place effects (its records carry lsn <= the
  // table's snapshot LSN; redo_start retains them via the oldest-active
  // horizon) — those are not replayed, but they ARE queued for undo with
  // the row images the log carries, so an uncommitted transaction caught
  // mid-flight by a checkpoint still rolls back completely on restart.
  struct UndoOp {
    uint64_t lsn;
    WalRecordType type;
    uint32_t table_id;
    int64_t rid;
    PackedRow old_row;  // kUpdate / kDelete: image to restore
    PackedRow new_row;  // kInsert / kUpdate: image currently in place
  };
  std::vector<UndoOp> undo_ops;  // scan order == LSN order
  // (table, rid) -> LSN of the last winner record that wrote it. Undo of
  // a loser op must not clobber a winner image written AFTER it.
  std::map<std::pair<uint32_t, int64_t>, uint64_t> winner_touched;
  for (const WalRecord& rec : log) {
    if (rec.type == WalRecordType::kTxnAbort) continue;
    HD_FAILPOINT_RETURN("recovery.redo");
    Table* t = db->GetTableById(rec.table_id);
    if (t == nullptr) {
      // DDL after the last checkpoint: the table was never checkpointed,
      // so its records are unreplayable by contract (see recovery.h).
      ++stats->skipped_records;
      continue;
    }
    const bool winner = rec.txn == 0 || winners.count(rec.txn) > 0;
    const bool dml = rec.type == WalRecordType::kInsert ||
                     rec.type == WalRecordType::kUpdate ||
                     rec.type == WalRecordType::kDelete;
    if (winner && dml) {
      uint64_t& last = winner_touched[{rec.table_id, rec.rid}];
      last = std::max(last, rec.lsn);
    }
    if (rec.lsn <= t->applied_lsn()) {
      // Already reflected by the checkpoint. Row conversion for loser
      // undo happens here, at scan time, so dictionary code allocation
      // stays in LSN order and deterministic.
      if (!winner && dml) {
        UndoOp op;
        op.lsn = rec.lsn;
        op.type = rec.type;
        op.table_id = rec.table_id;
        op.rid = rec.rid;
        if (rec.type != WalRecordType::kInsert) {
          op.old_row = t->FromWalRow(rec.old_row);
        }
        if (rec.type != WalRecordType::kDelete) {
          op.new_row = t->FromWalRow(rec.new_row);
        }
        undo_ops.push_back(std::move(op));
      }
      continue;
    }
    switch (rec.type) {
      case WalRecordType::kInsert: {
        PackedRow row = t->FromWalRow(rec.new_row);
        HD_RETURN_IF_ERROR(t->RecoverInsert(rec.rid, row));
        ++stats->redo_records;
        if (!winner) {
          UndoOp op;
          op.lsn = rec.lsn;
          op.type = rec.type;
          op.table_id = rec.table_id;
          op.rid = rec.rid;
          op.new_row = std::move(row);
          undo_ops.push_back(std::move(op));
        }
        break;
      }
      case WalRecordType::kUpdate:
        if (winner) {
          HD_RETURN_IF_ERROR(t->RecoverUpdate(rec.rid,
                                              t->FromWalRow(rec.old_row),
                                              t->FromWalRow(rec.new_row)));
          ++stats->redo_records;
        }
        break;
      case WalRecordType::kDelete:
        if (winner) {
          HD_RETURN_IF_ERROR(
              t->RecoverDelete(rec.rid, t->FromWalRow(rec.old_row)));
          ++stats->redo_records;
        }
        break;
      case WalRecordType::kCsiReorg: {
        // An empty name means the primary. A dropped index since the
        // checkpoint makes the reorg moot.
        TableIndex* ix = t->FindIndex(rec.aux);
        if (ix != nullptr && ix->csi) {
          HD_RETURN_IF_ERROR(ix->csi->Reorganize());
          ++stats->redo_records;
        }
        break;
      }
      default:
        break;
    }
    t->set_applied_lsn(rec.lsn);
  }

  // Undo: losers' effects come back out, newest first — replayed inserts
  // are deleted, and checkpointed inserts/updates/deletes are reversed
  // from the logged row images. A rid a winner wrote LATER than the
  // loser's op keeps the winner's image (repeating history already gave
  // it the final state). NotFound is fine — the loser compensated its own
  // op before the crash.
  for (auto it = undo_ops.rbegin(); it != undo_ops.rend(); ++it) {
    auto w = winner_touched.find({it->table_id, it->rid});
    if (w != winner_touched.end() && w->second > it->lsn) continue;
    Table* t = db->GetTableById(it->table_id);
    if (t == nullptr) continue;
    Status u;
    switch (it->type) {
      case WalRecordType::kInsert:
        u = t->RecoverDelete(it->rid, it->new_row);
        break;
      case WalRecordType::kUpdate:
        // The slot holds the loser's new image; put the old one back.
        u = t->RecoverUpdate(it->rid, it->new_row, it->old_row);
        break;
      case WalRecordType::kDelete:
        u = t->RecoverInsert(it->rid, it->old_row);
        break;
      default:
        break;
    }
    if (!u.ok() && !u.IsNotFound()) return u;
    ++stats->undo_records;
  }

  for (const auto& [tname, t] : db->tables()) {
    if (t->applied_lsn() > 0) t->Analyze();
  }

  stats->restart_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  auto& tel = Telemetry::Instance();
  tel.Counter("recovery.redo_records")->Add(stats->redo_records);
  tel.Counter("recovery.undo_records")->Add(stats->undo_records);
  tel.Counter("recovery.skipped_records")->Add(stats->skipped_records);
  tel.Gauge("recovery.restart_ms")
      ->Set(static_cast<int64_t>(stats->restart_ms));
  return Status::OK();
}

}  // namespace hd
