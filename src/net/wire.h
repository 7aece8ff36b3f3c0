// Wire format of the process backend (exec/process_backend.h): the
// length-prefixed frames a parbox coordinator and its site daemons
// (`sited`) exchange over Unix-domain or TCP sockets.
//
// Every frame is
//
//   [u32 body_len][body]
//
// with a fixed little-endian body header followed by two
// variable-length sections (tag, payload):
//
//   u8  type         FrameType
//   u64 seq          per-connection, assigned by the requester
//   u32 src          sending site (PARCEL_*), daemon index (HELLO)
//   u32 dest         destination site (PARCEL_*)
//   u32 shard_base   factory-domain key of the destination shard
//   u64 wire_bytes   the parcel's metered payload size
//   u64 trace_id     obs/trace.h context — trace metadata crosses the
//   u64 trace_span   process boundary as real wire bytes, not POD
//   u8  flags        kFrameFlag* bits
//   u16 tag_len      } tag bytes follow the header,
//   u32 payload_len  } payload bytes follow the tag
//
// Unused header fields of control frames (PING, STATS_*, ...) are
// zero. HELLO reuses seq for the daemon's boot nonce — the value whose
// change tells a reconnecting coordinator that the daemon's in-memory
// site state (pinned factories, meters) was lost and fragments must be
// re-shipped.
//
// The request/response protocol on top is at-least-once: requests are
// retried with the SAME seq after a timeout, receivers deduplicate by
// seq, so drops/delays/duplicates (net/faults.h injects all three)
// never double-deliver or double-meter. See exec/process_backend.h for
// the full state machine.

#ifndef PARBOX_NET_WIRE_H_
#define PARBOX_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace parbox::net {

enum class FrameType : uint8_t {
  kHello = 1,       ///< daemon -> coordinator on connect (seq = nonce)
  kParcelReq = 2,   ///< coordinator -> daemon: a parcel crossing sites
  kParcelResp = 3,  ///< daemon -> coordinator: ack, payload echoed
  kPing = 4,        ///< liveness probe (either direction)
  kPong = 5,
  kStatsReq = 6,    ///< coordinator -> daemon: report your meters
  kStatsResp = 7,   ///< payload = DaemonStats::Encode()
  kResetReq = 8,    ///< coordinator -> daemon: rewind meters
  kResetResp = 9,
};

/// Frame.flags bits.
inline constexpr uint8_t kFrameFlagHasPayload = 1;  ///< payload is content
inline constexpr uint8_t kFrameFlagCoded = 2;       ///< payload is codec wire

struct Frame {
  uint8_t type = 0;
  uint64_t seq = 0;
  uint32_t src = 0;
  uint32_t dest = 0;
  uint32_t shard_base = 0;
  uint64_t wire_bytes = 0;
  uint64_t trace_id = 0;
  uint64_t trace_span = 0;
  uint8_t flags = 0;
  std::string tag;
  std::string payload;
};

/// Frames larger than this are a protocol error (no parcel payload
/// comes close; guards the reader against a corrupt length prefix).
inline constexpr uint32_t kMaxFrameBody = 64u << 20;

/// True when `frame`'s variable sections fit the wire format: tag no
/// longer than a u16 counts, whole body within kMaxFrameBody. A frame
/// that fails this must not be encoded — the u16/u32 length fields
/// would silently truncate and desynchronize the peer's reader.
bool FrameFitsWire(const Frame& frame);

/// The whole frame, length prefix included. Returns "" when
/// !FrameFitsWire(frame) — callers (Conn::SendFrame) reject oversize
/// frames instead of putting a corrupt length on the wire.
std::string EncodeFrame(const Frame& frame);

/// Incremental decoder over a byte stream: feed whatever the socket
/// produced, pop complete frames. A malformed frame (oversized length,
/// truncated sections) puts the reader into a latched error state
/// without buffering or allocating anything for the bogus length;
/// error_reason() says what was rejected. Recovery is per-connection:
/// tearing the connection down and re-Adopt()ing a fresh socket resets
/// the reader, and the retry protocol re-sends anything lost.
class FrameReader {
 public:
  void Feed(const char* data, size_t n);
  /// Pop the next complete frame into `*out`; false when no complete
  /// frame is buffered (or the stream is in the error state).
  bool Next(Frame* out);
  bool error() const { return error_; }
  /// Human-readable cause of the latched error ("" when !error()).
  const std::string& error_reason() const { return error_reason_; }
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  bool FailStream(std::string reason);

  std::string buf_;
  size_t pos_ = 0;
  bool error_ = false;
  std::string error_reason_;
};

/// What a site daemon meters and reports back (STATS_RESP payload):
/// per-tag traffic it carried (bytes, messages — after seq dedup, so
/// retried frames count once, exactly like the coordinator's logical
/// meters), per-site received bytes, and the transport counters.
struct DaemonStats {
  uint64_t frames_received = 0;
  uint64_t parcels = 0;        ///< distinct PARCEL_REQs processed
  uint64_t dedup_hits = 0;     ///< duplicate REQs re-acked, not re-metered
  uint64_t decoded_payloads = 0;  ///< codec payloads interned into a shard
  uint64_t decode_errors = 0;
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>>
      tag_counts;  ///< tag -> (bytes, messages)
  std::vector<std::pair<uint32_t, uint64_t>> bytes_into;  ///< site -> bytes

  std::string Encode() const;
  /// False on a malformed blob (`*this` is then unspecified).
  bool Decode(std::string_view data);
  void MergeFrom(const DaemonStats& other);
};

}  // namespace parbox::net

#endif  // PARBOX_NET_WIRE_H_
