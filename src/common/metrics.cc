#include "common/metrics.h"

#include <sstream>

namespace hd {

void QueryMetrics::Clear() {
  pages_read = 0;
  bytes_read = 0;
  bytes_processed = 0;
  rows_scanned = 0;
  rows_output = 0;
  segments_scanned = 0;
  segments_skipped = 0;
  morsels_scheduled = 0;
  morsels_stolen = 0;
  runs_evaluated = 0;
  rows_decoded = 0;
  rows_selected = 0;
  rows_late_materialized = 0;
  aggs_pushed_down = 0;
  hash_probes = 0;
  agg_dense_rows = 0;
  join_batch_probes = 0;
  join_matches = 0;
  join_bloom_checks = 0;
  join_bloom_filtered = 0;
  sim_io_ns = 0;
  cpu_ns = 0;
  peak_memory_bytes = 0;
  spill_bytes = 0;
  shared_scan_attaches = 0;
  segments_shared = 0;
  shared_decode_bytes_saved = 0;
  txn_retries = 0;
  backoff_ns = 0;
  dop = 1;
}

void QueryMetrics::Merge(const QueryMetrics& o) {
  pages_read += o.pages_read.load();
  bytes_read += o.bytes_read.load();
  bytes_processed += o.bytes_processed.load();
  rows_scanned += o.rows_scanned.load();
  rows_output += o.rows_output.load();
  segments_scanned += o.segments_scanned.load();
  segments_skipped += o.segments_skipped.load();
  morsels_scheduled += o.morsels_scheduled.load();
  morsels_stolen += o.morsels_stolen.load();
  runs_evaluated += o.runs_evaluated.load();
  rows_decoded += o.rows_decoded.load();
  rows_selected += o.rows_selected.load();
  rows_late_materialized += o.rows_late_materialized.load();
  aggs_pushed_down += o.aggs_pushed_down.load();
  hash_probes += o.hash_probes.load();
  agg_dense_rows += o.agg_dense_rows.load();
  join_batch_probes += o.join_batch_probes.load();
  join_matches += o.join_matches.load();
  join_bloom_checks += o.join_bloom_checks.load();
  join_bloom_filtered += o.join_bloom_filtered.load();
  sim_io_ns += o.sim_io_ns.load();
  cpu_ns += o.cpu_ns.load();
  spill_bytes += o.spill_bytes.load();
  shared_scan_attaches += o.shared_scan_attaches.load();
  segments_shared += o.segments_shared.load();
  shared_decode_bytes_saved += o.shared_decode_bytes_saved.load();
  txn_retries += o.txn_retries.load();
  backoff_ns += o.backoff_ns.load();
  UpdatePeakMemory(o.peak_memory_bytes.load());
}

std::string QueryMetrics::ToString() const {
  std::ostringstream os;
  os << "exec_ms=" << exec_ms() << " cpu_ms=" << cpu_ms()
     << " io_ms=" << sim_io_ms() << " pages=" << pages_read.load()
     << " read_mb=" << data_read_mb() << " rows=" << rows_scanned.load()
     << " segs=" << segments_scanned.load() << "+"
     << segments_skipped.load() << "skip"
     << " morsels=" << morsels_scheduled.load() << "+"
     << morsels_stolen.load() << "stolen"
     << " runs_eval=" << runs_evaluated.load()
     << " rows_dec=" << rows_decoded.load()
     << " rows_sel=" << rows_selected.load()
     << " rows_latemat=" << rows_late_materialized.load()
     << " aggs_pushed=" << aggs_pushed_down.load()
     << " hash_probes=" << hash_probes.load()
     << " agg_dense_rows=" << agg_dense_rows.load()
     << " peak_mem=" << peak_memory_bytes.load() << " dop=" << dop;
  if (join_batch_probes.load() > 0 || join_bloom_checks.load() > 0) {
    os << " join_probes=" << join_batch_probes.load()
       << " join_matches=" << join_matches.load()
       << " bloom=" << join_bloom_filtered.load() << "/"
       << join_bloom_checks.load();
  }
  if (shared_scan_attaches.load() > 0) {
    os << " shared_segs=" << segments_shared.load()
       << " shared_saved_mb=" << shared_decode_bytes_saved.load() / 1e6;
  }
  if (txn_retries.load() > 0 || backoff_ns.load() > 0) {
    os << " retries=" << txn_retries.load()
       << " backoff_ms=" << backoff_ns.load() / 1e6;
  }
  return os.str();
}

}  // namespace hd
