#include "common/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace hd {

void QueryMetrics::Clear() {
  for (const CounterDef& c : kQueryCounters) (this->*c.member) = 0;
  dop = 1;
}

void QueryMetrics::Merge(const QueryMetrics& o) {
  for (const CounterDef& c : kQueryCounters) {
    const uint64_t v = (o.*c.member).load();
    if (c.merge == CounterMerge::kMax) {
      StoreMax(&(this->*c.member), v);
    } else {
      this->*c.member += v;
    }
  }
}

std::string QueryMetrics::CounterText() const {
  std::string s;
  ForEachCounter([&s](const CounterDef& c, uint64_t v) {
    if (v == 0) return;
    char buf[96];
    if (c.ms_label != nullptr) {
      std::snprintf(buf, sizeof buf, " %s=%.3f", c.label(), v / 1e6);
    } else {
      std::snprintf(buf, sizeof buf, " %s=%" PRIu64, c.label(), v);
    }
    s += buf;
  });
  return s;
}

std::string QueryMetrics::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "exec_ms=%.3f dop=%d", exec_ms(), dop);
  return buf + CounterText();
}

}  // namespace hd
