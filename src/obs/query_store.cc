#include "obs/query_store.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <sstream>

#include "common/failpoint.h"
#include "common/json.h"

namespace hd {

uint64_t FingerprintText(const std::string& text) {
  // FNV-1a 64-bit: tiny, deterministic across platforms, and good enough
  // dispersion for a statement-class key (collisions merge two classes'
  // aggregates — harmless for tuning input, and astronomically unlikely
  // at workload scale).
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string FingerprintHex(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fp);
  return std::string(buf);
}

namespace {

uint64_t WallMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}


std::string StatusName(Code c) { return c == Code::kOk ? "ok" : "error"; }

// One-line preview of a statement for the text tables: collapse to a
// single line and cap the width so `.queries` stays readable.
std::string Preview(const std::string& s, size_t width) {
  std::string out;
  out.reserve(std::min(s.size(), width));
  for (char c : s) {
    out += (c == '\n' || c == '\t' || c == '\r') ? ' ' : c;
    if (out.size() >= width) {
      out.resize(width - 3);
      out += "...";
      break;
    }
  }
  return out;
}

}  // namespace

QueryStore::QueryStore(QueryStoreOptions opts) : opts_(std::move(opts)) {
  per_shard_cap_ = opts_.capacity / kShards;
  if (opts_.capacity > 0 && per_shard_cap_ == 0) per_shard_cap_ = 1;
  if (opts_.slow_log_capacity > 0) {
    slow_ring_.reserve(std::min<size_t>(opts_.slow_log_capacity, 64));
  }
  Telemetry& t = Telemetry::Instance();
  c_recorded_ = t.Counter("qstore.recorded");
  c_dropped_ = t.Counter("qstore.dropped");
  c_evicted_ = t.Counter("qstore.evicted");
  c_slow_ = t.Counter("qstore.slow");
  c_fp_overflow_ = t.Counter("qstore.fp_overflow");
  if (!opts_.qlog_path.empty()) {
    qlog_ = std::fopen(opts_.qlog_path.c_str(), "a");
    // A qlog that cannot be opened must not take the store (or the
    // engine) down: capture is best-effort. Records simply stay
    // in-memory-only; ExportQlog remains available.
  }
}

QueryStore::~QueryStore() {
  std::lock_guard<std::mutex> g(qlog_mu_);
  if (qlog_ != nullptr) {
    std::fclose(qlog_);
    qlog_ = nullptr;
  }
}

void QueryStore::Record(QueryRecord rec) {
  // Best-effort seam: a poisoned store write drops the record, never the
  // query (chaos_test sweeps this point and asserts exactly that).
  if (!EvalFailPoint("querystore.record").ok()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    c_dropped_->Add(1);
    return;
  }
  rec.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  rec.ts_ms = WallMs();
  if (rec.fingerprint == 0) {
    rec.fingerprint =
        FingerprintText(rec.norm.empty() ? rec.sql : rec.norm);
  }
  if (rec.rows_out == 0) {
    rec.rows_out = rec.metrics.rows_output.load(std::memory_order_relaxed);
  }
  rec.rows_scanned = rec.metrics.rows_scanned.load(std::memory_order_relaxed);
  rec.decode_bytes =
      rec.metrics.bytes_processed.load(std::memory_order_relaxed);
  rec.slow = opts_.slow_query_ms >= 0 && rec.latency_ms >= opts_.slow_query_ms;

  Aggregate(rec);

  if (rec.slow) {
    slow_.fetch_add(1, std::memory_order_relaxed);
    c_slow_->Add(1);
    if (opts_.slow_log_capacity > 0) {
      std::lock_guard<std::mutex> g(slow_mu_);
      if (slow_ring_.size() < opts_.slow_log_capacity) {
        slow_ring_.push_back(rec);
      } else {
        slow_ring_[slow_next_] = rec;
        slow_next_ = (slow_next_ + 1) % opts_.slow_log_capacity;
      }
    }
  }

  // The qlog line is written under the file lock, which also assigns the
  // final ts_ms (clamped monotone) so the JSONL stream satisfies the
  // hd-qlog/1 ordering contract even with concurrent writers.
  AppendQlog(&rec);

  recorded_.fetch_add(1, std::memory_order_relaxed);
  c_recorded_->Add(1);

  if (per_shard_cap_ > 0) Retain(std::move(rec));
}

void QueryStore::Retain(QueryRecord&& rec) {
  RingShard& sh = rings_[rec.seq % kShards];
  std::lock_guard<std::mutex> g(sh.mu);
  if (sh.ring.size() < per_shard_cap_) {
    sh.ring.push_back(std::move(rec));
  } else {
    sh.ring[sh.next] = std::move(rec);
    sh.next = (sh.next + 1) % per_shard_cap_;
    evicted_.fetch_add(1, std::memory_order_relaxed);
    c_evicted_->Add(1);
  }
}

void QueryStore::Aggregate(const QueryRecord& rec) {
  AggShard& sh = aggs_[rec.fingerprint % kShards];
  const int64_t lat_ns = static_cast<int64_t>(rec.latency_ms * 1e6);
  std::lock_guard<std::mutex> g(sh.mu);
  FpAgg& a = sh.by_fp[rec.fingerprint];
  if (a.calls == 0) {
    a.norm = rec.norm.empty() ? rec.sql : rec.norm;
    a.kind = rec.kind;
    if (opts_.max_exported_fingerprints > 0) {
      // First-come capped exposition: the fetch_add reserves a slot; on
      // overflow the class still aggregates locally, it just gets no
      // registry series.
      size_t slot = exported_fps_.fetch_add(1, std::memory_order_relaxed);
      if (slot < opts_.max_exported_fingerprints) {
        const std::string base = "qstore.fp." + FingerprintHex(rec.fingerprint);
        Telemetry& t = Telemetry::Instance();
        a.exp_calls = t.Counter(base + ".calls");
        a.exp_errors = t.Counter(base + ".errors");
        a.exp_latency = t.Histogram(base + ".latency_ns");
      } else {
        c_fp_overflow_->Add(1);
      }
    }
  }
  a.calls++;
  if (rec.code != Code::kOk) a.errors++;
  a.rows_out += rec.rows_out;
  a.decode_bytes += rec.decode_bytes;
  a.total_ms += rec.latency_ms;
  a.min_ms = a.calls == 1 ? rec.latency_ms : std::min(a.min_ms, rec.latency_ms);
  a.max_ms = std::max(a.max_ms, rec.latency_ms);
  a.latency_ns.Record(lat_ns);
  if (a.exp_calls != nullptr) {
    a.exp_calls->Add(1);
    if (rec.code != Code::kOk) a.exp_errors->Add(1);
    a.exp_latency->Record(lat_ns);
  }
}

std::string QueryStore::ToQlogJson(const QueryRecord& rec) {
  std::ostringstream os;
  os << "{\"schema\":\"hd-qlog/1\",\"seq\":" << rec.seq
     << ",\"ts_ms\":" << rec.ts_ms << ",\"session\":" << rec.session_id
     << ",\"trace\":\"" << FingerprintHex(rec.trace_id) << "\",\"fp\":\""
     << FingerprintHex(rec.fingerprint) << "\",\"kind\":\""
     << JsonEscape(rec.kind) << "\",\"status\":\"" << StatusName(rec.code)
     << "\",\"code\":" << static_cast<int>(rec.code);
  char num[64];
  std::snprintf(num, sizeof num, "%.3f", rec.latency_ms);
  os << ",\"latency_ms\":" << num;
  std::snprintf(num, sizeof num, "%.3f", rec.queue_ms);
  os << ",\"queue_ms\":" << num;
  os << ",\"slow\":" << (rec.slow ? "true" : "false")
     << ",\"rows_out\":" << rec.rows_out
     << ",\"rows_scanned\":" << rec.rows_scanned
     << ",\"decode_bytes\":" << rec.decode_bytes << ",\"dop\":"
     << rec.metrics.dop << ",\"cpu_ms\":";
  std::snprintf(num, sizeof num, "%.3f", rec.metrics.cpu_ms());
  os << num << ",\"plan\":\"" << JsonEscape(rec.plan) << "\",\"norm\":\""
     << JsonEscape(rec.norm) << "\",\"sql\":\"" << JsonEscape(rec.sql);
  os << "\"";
  if (!rec.error.empty()) os << ",\"error\":\"" << JsonEscape(rec.error) << "\"";
  os << "}";
  return os.str();
}

void QueryStore::AppendQlog(QueryRecord* rec) {
  std::lock_guard<std::mutex> g(qlog_mu_);
  uint64_t ts = WallMs();
  if (ts < last_qlog_ts_ms_) ts = last_qlog_ts_ms_;
  last_qlog_ts_ms_ = ts;
  rec->ts_ms = ts;
  if (qlog_ == nullptr) return;
  const std::string line = ToQlogJson(*rec);
  std::fwrite(line.data(), 1, line.size(), qlog_);
  std::fputc('\n', qlog_);
  std::fflush(qlog_);
}

std::vector<QueryRecord> QueryStore::Recent(size_t n) const {
  std::vector<QueryRecord> out;
  for (const RingShard& sh : rings_) {
    std::lock_guard<std::mutex> g(sh.mu);
    out.insert(out.end(), sh.ring.begin(), sh.ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.seq > b.seq;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<QueryRecord> QueryStore::Slow(size_t n) const {
  std::vector<QueryRecord> out;
  {
    std::lock_guard<std::mutex> g(slow_mu_);
    out = slow_ring_;
  }
  std::sort(out.begin(), out.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.seq > b.seq;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<FingerprintStats> QueryStore::Fingerprints() const {
  std::vector<FingerprintStats> out;
  for (const AggShard& sh : aggs_) {
    std::lock_guard<std::mutex> g(sh.mu);
    for (const auto& [fp, a] : sh.by_fp) {
      FingerprintStats s;
      s.fingerprint = fp;
      s.norm = a.norm;
      s.kind = a.kind;
      s.calls = a.calls;
      s.errors = a.errors;
      s.rows_out = a.rows_out;
      s.decode_bytes = a.decode_bytes;
      s.total_ms = a.total_ms;
      s.min_ms = a.min_ms;
      s.max_ms = a.max_ms;
      s.p95_ms = a.latency_ns.Snapshot().Quantile(0.95) / 1e6;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FingerprintStats& a, const FingerprintStats& b) {
              return a.total_ms > b.total_ms;
            });
  return out;
}

Status QueryStore::ExportQlog(const std::string& path) const {
  std::vector<QueryRecord> all;
  for (const RingShard& sh : rings_) {
    std::lock_guard<std::mutex> g(sh.mu);
    all.insert(all.end(), sh.ring.begin(), sh.ring.end());
  }
  std::sort(all.begin(), all.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.seq < b.seq;
            });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  // Concurrent writers can finalize out of seq order, so the retained
  // ts_ms values are only near-sorted; re-clamp in seq order to keep the
  // exported stream valid hd-qlog/1 (monotone timestamps).
  uint64_t last_ts = 0;
  for (QueryRecord& rec : all) {
    if (rec.ts_ms < last_ts) rec.ts_ms = last_ts;
    last_ts = rec.ts_ms;
    const std::string line = ToQlogJson(rec);
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size() ||
        std::fputc('\n', f) == EOF) {
      std::fclose(f);
      return Status::IoError("short write to " + path);
    }
  }
  if (std::fclose(f) != 0) return Status::IoError("close failed: " + path);
  return Status::OK();
}

void QueryStore::Flush() {
  std::lock_guard<std::mutex> g(qlog_mu_);
  if (qlog_ != nullptr) std::fflush(qlog_);
}

std::string QueryStore::RenderTop(size_t n) const {
  std::vector<QueryRecord> recs = Recent(n);
  std::ostringstream os;
  os << "query store: " << recorded() << " recorded, " << evicted()
     << " evicted, " << dropped() << " dropped, " << slow_count() << " slow\n";
  char buf[256];
  std::snprintf(buf, sizeof buf, "%6s %8s %18s %10s %6s %8s  %s\n", "seq",
                "kind", "trace", "ms", "status", "rows", "sql");
  os << buf;
  for (const QueryRecord& r : recs) {
    std::snprintf(buf, sizeof buf, "%6" PRIu64 " %8s %18s %10.2f %6s %8" PRIu64
                                   "  %s\n",
                  r.seq, r.kind.c_str(), FingerprintHex(r.trace_id).c_str(),
                  r.latency_ms, StatusName(r.code).c_str(), r.rows_out,
                  Preview(r.sql.empty() ? r.norm : r.sql, 60).c_str());
    os << buf;
  }
  return os.str();
}

std::string QueryStore::RenderSlow(size_t n) const {
  std::vector<QueryRecord> recs = Slow(n);
  std::ostringstream os;
  if (opts_.slow_query_ms < 0) {
    os << "slow-query log disabled (set --slow-query-ms)\n";
    return os.str();
  }
  os << "slow-query log (threshold " << opts_.slow_query_ms << " ms): "
     << slow_count() << " total\n";
  char buf[320];
  std::snprintf(buf, sizeof buf, "%6s %18s %18s %10s %10s  %s\n", "seq",
                "trace", "fingerprint", "ms", "queue_ms", "sql");
  os << buf;
  for (const QueryRecord& r : recs) {
    std::snprintf(buf, sizeof buf,
                  "%6" PRIu64 " %18s %18s %10.2f %10.2f  %s\n", r.seq,
                  FingerprintHex(r.trace_id).c_str(),
                  FingerprintHex(r.fingerprint).c_str(), r.latency_ms,
                  r.queue_ms, Preview(r.sql.empty() ? r.norm : r.sql, 52).c_str());
    os << buf;
  }
  return os.str();
}

std::string QueryStore::RenderFingerprints(size_t n) const {
  std::vector<FingerprintStats> fps = Fingerprints();
  std::ostringstream os;
  os << "fingerprint classes: " << fps.size() << "\n";
  char buf[320];
  std::snprintf(buf, sizeof buf, "%18s %8s %6s %10s %10s %10s %10s  %s\n",
                "fingerprint", "calls", "errs", "total_ms", "p95_ms", "max_ms",
                "rows", "statement");
  os << buf;
  size_t shown = 0;
  for (const FingerprintStats& s : fps) {
    if (shown++ >= n) break;
    std::snprintf(buf, sizeof buf,
                  "%18s %8" PRIu64 " %6" PRIu64 " %10.2f %10.2f %10.2f %10"
                  PRIu64 "  %s\n",
                  FingerprintHex(s.fingerprint).c_str(), s.calls, s.errors,
                  s.total_ms, s.p95_ms, s.max_ms, s.rows_out,
                  Preview(s.norm, 48).c_str());
    os << buf;
  }
  return os.str();
}

uint64_t QueryStore::recorded() const {
  return recorded_.load(std::memory_order_relaxed);
}
uint64_t QueryStore::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}
uint64_t QueryStore::evicted() const {
  return evicted_.load(std::memory_order_relaxed);
}
uint64_t QueryStore::slow_count() const {
  return slow_.load(std::memory_order_relaxed);
}

}  // namespace hd
