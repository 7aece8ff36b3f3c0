// Small byte helpers: sizes and times formatted for benchmarks and
// reports, and the little-endian encoding every wire format shares
// (net/wire.h frames and stats, exec/codec.h triplet batches).

#ifndef PARBOX_COMMON_BYTES_H_
#define PARBOX_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace parbox {

/// "512 B", "25.0 MB", "1.5 GB"...
std::string HumanBytes(uint64_t bytes);

/// "1.234 s", "12.3 ms", "450 us"...
std::string HumanSeconds(double seconds);

/// Little-endian appends.
void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);

/// Bounds-checked sequential reads; any overrun latches !ok().
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}
  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  std::string_view Bytes(size_t n);
  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size(); }

 private:
  std::string_view data_;
  bool ok_ = true;
};

}  // namespace parbox

#endif  // PARBOX_COMMON_BYTES_H_
