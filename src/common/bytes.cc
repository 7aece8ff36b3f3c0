#include "common/bytes.h"

#include <cstdio>
#include <cstring>

namespace parbox {

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else if (bytes < 1024ULL * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / 1024.0);
  } else if (bytes < 1024ULL * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GB",
                  bytes / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

std::string HumanSeconds(double seconds) {
  char buf[32];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", seconds * 1e6);
  }
  return buf;
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  char buf[2];
  std::memcpy(buf, &v, 2);
  out->append(buf, 2);
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

uint8_t ByteReader::U8() {
  if (data_.size() < 1) {
    ok_ = false;
    return 0;
  }
  uint8_t v = static_cast<uint8_t>(data_[0]);
  data_.remove_prefix(1);
  return v;
}

uint16_t ByteReader::U16() {
  if (data_.size() < 2) {
    ok_ = false;
    return 0;
  }
  uint16_t v;
  std::memcpy(&v, data_.data(), 2);
  data_.remove_prefix(2);
  return v;
}

uint32_t ByteReader::U32() {
  if (data_.size() < 4) {
    ok_ = false;
    return 0;
  }
  uint32_t v;
  std::memcpy(&v, data_.data(), 4);
  data_.remove_prefix(4);
  return v;
}

uint64_t ByteReader::U64() {
  if (data_.size() < 8) {
    ok_ = false;
    return 0;
  }
  uint64_t v;
  std::memcpy(&v, data_.data(), 8);
  data_.remove_prefix(8);
  return v;
}

std::string_view ByteReader::Bytes(size_t n) {
  if (data_.size() < n) {
    ok_ = false;
    return {};
  }
  std::string_view v = data_.substr(0, n);
  data_.remove_prefix(n);
  return v;
}

}  // namespace parbox
