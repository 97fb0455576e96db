// Little-endian byte codec shared by the two on-disk formats: WAL record
// bodies (storage/wal.cc) and checkpoint files (catalog/recovery.cc).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace hd {

// The writers and the cursor copy native bytes with memcpy (the WAL encodes
// on the DML append path), so the host byte order must be the format's.
static_assert(std::endian::native == std::endian::little,
              "WAL and checkpoint formats are little-endian");

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t n = out->size();
  out->resize(n + 4);
  std::memcpy(out->data() + n, &v, 4);
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t n = out->size();
  out->resize(n + 8);
  std::memcpy(out->data() + n, &v, 8);
}

inline void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

/// u32 length, then the bytes.
inline void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

/// Bounds-checked decode cursor. A read past the end clears `ok` and
/// yields zero (or an empty string); callers check `ok` once at the end.
struct ByteCursor {
  const uint8_t* p;
  size_t left;
  bool ok = true;

  bool Take(void* dst, size_t n) {
    if (left < n) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  uint8_t U8() {
    uint8_t v = 0;
    Take(&v, 1);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Take(&v, 4);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Take(&v, 8);
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::string Str() {
    const uint32_t n = U32();
    if (!ok || left < n) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
};

}  // namespace hd
