#include "common/trace.h"

#include <cstdio>
#include <sstream>

#include "common/json.h"

namespace hd {

Trace& Trace::Global() {
  // Intentionally leaked: pool workers (and the telemetry sampler) may
  // still emit trace events while static destructors run at exit; a
  // function-local static with a real destructor would be torn down
  // first and leave them writing freed memory.
  static Trace* t = new Trace();
  return *t;
}

void Trace::Enable() {
  std::lock_guard<std::mutex> g(mu_);
  events_.clear();
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void Trace::Disable() { enabled_.store(false, std::memory_order_release); }

uint64_t Trace::NowUs() const {
  if (!enabled_.load(std::memory_order_relaxed)) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Trace::Record(const std::string& name, int tid, uint64_t ts_us,
                   uint64_t dur_us, uint64_t morsel, uint64_t trace_id,
                   const char* cat, int pid) {
  std::lock_guard<std::mutex> g(mu_);
  events_.push_back(Event{name, tid, ts_us, dur_us, morsel, trace_id, cat, pid});
}

size_t Trace::event_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return events_.size();
}

void Trace::Clear() {
  std::lock_guard<std::mutex> g(mu_);
  events_.clear();
}

std::string Trace::ToJson() const {
  std::lock_guard<std::mutex> g(mu_);
  std::ostringstream os;
  os << "{\n  \"traceEvents\": [\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    os << "    {\"name\": \"" << JsonEscape(e.name) << "\", \"cat\": \""
       << e.cat << "\", \"ph\": \"X\", \"pid\": " << e.pid
       << ", \"tid\": " << e.tid << ", \"ts\": " << e.ts_us
       << ", \"dur\": " << e.dur_us << ", \"args\": {\"morsel\": " << e.morsel;
    if (e.trace_id != 0) {
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(e.trace_id));
      os << ", \"trace\": \"" << hex << "\"";
    }
    os << "}}" << (i + 1 < events_.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"displayTimeUnit\": \"ms\",\n"
     << "  \"otherData\": {\"schema\": \"hd-trace/2\"}\n}\n";
  return os.str();
}

Status Trace::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  const std::string json = ToJson();
  const size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (n != json.size()) return Status::Internal("short write to " + path);
  return Status::OK();
}

}  // namespace hd
