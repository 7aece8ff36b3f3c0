#include "net/wire.h"

#include <cstring>

#include "common/bytes.h"

namespace parbox::net {

bool FrameFitsWire(const Frame& frame) {
  if (frame.tag.size() > 0xffff) return false;
  const uint64_t body =
      52 + static_cast<uint64_t>(frame.tag.size()) + frame.payload.size();
  return body <= kMaxFrameBody;
}

std::string EncodeFrame(const Frame& frame) {
  if (!FrameFitsWire(frame)) return {};
  std::string body;
  body.reserve(52 + frame.tag.size() + frame.payload.size());
  PutU8(&body, frame.type);
  PutU64(&body, frame.seq);
  PutU32(&body, frame.src);
  PutU32(&body, frame.dest);
  PutU32(&body, frame.shard_base);
  PutU64(&body, frame.wire_bytes);
  PutU64(&body, frame.trace_id);
  PutU64(&body, frame.trace_span);
  PutU8(&body, frame.flags);
  PutU16(&body, static_cast<uint16_t>(frame.tag.size()));
  PutU32(&body, static_cast<uint32_t>(frame.payload.size()));
  body += frame.tag;
  body += frame.payload;

  std::string out;
  out.reserve(4 + body.size());
  PutU32(&out, static_cast<uint32_t>(body.size()));
  out += body;
  return out;
}

void FrameReader::Feed(const char* data, size_t n) {
  if (error_) return;
  // Compact the consumed prefix before growing (keeps the buffer at
  // roughly one frame of slack instead of the whole stream).
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

bool FrameReader::FailStream(std::string reason) {
  error_ = true;
  error_reason_ = std::move(reason);
  // Release the buffer: nothing behind a corrupt length is decodable,
  // and holding bytes for an impossible frame is exactly the
  // unbounded-allocation path this guards against.
  buf_.clear();
  buf_.shrink_to_fit();
  pos_ = 0;
  return false;
}

bool FrameReader::Next(Frame* out) {
  if (error_) return false;
  const size_t avail = buf_.size() - pos_;
  if (avail < 4) return false;
  uint32_t body_len;
  std::memcpy(&body_len, buf_.data() + pos_, 4);
  if (body_len > kMaxFrameBody) {
    return FailStream("frame body length " + std::to_string(body_len) +
                      " exceeds the " + std::to_string(kMaxFrameBody) +
                      "-byte cap");
  }
  if (body_len < 52) {
    return FailStream("frame body length " + std::to_string(body_len) +
                      " is below the 52-byte fixed header");
  }
  if (avail < 4 + static_cast<size_t>(body_len)) return false;

  ByteReader r(std::string_view(buf_).substr(pos_ + 4, body_len));
  out->type = r.U8();
  out->seq = r.U64();
  out->src = r.U32();
  out->dest = r.U32();
  out->shard_base = r.U32();
  out->wire_bytes = r.U64();
  out->trace_id = r.U64();
  out->trace_span = r.U64();
  out->flags = r.U8();
  const uint16_t tag_len = r.U16();
  const uint32_t payload_len = r.U32();
  out->tag = std::string(r.Bytes(tag_len));
  out->payload = std::string(r.Bytes(payload_len));
  if (!r.ok() || r.remaining() != 0) {
    return FailStream("frame sections disagree with the body length");
  }
  pos_ += 4 + body_len;
  return true;
}

std::string DaemonStats::Encode() const {
  std::string out;
  PutU64(&out, frames_received);
  PutU64(&out, parcels);
  PutU64(&out, dedup_hits);
  PutU64(&out, decoded_payloads);
  PutU64(&out, decode_errors);
  PutU32(&out, static_cast<uint32_t>(tag_counts.size()));
  for (const auto& [tag, counts] : tag_counts) {
    PutU16(&out, static_cast<uint16_t>(tag.size()));
    out += tag;
    PutU64(&out, counts.first);
    PutU64(&out, counts.second);
  }
  PutU32(&out, static_cast<uint32_t>(bytes_into.size()));
  for (const auto& [site, bytes] : bytes_into) {
    PutU32(&out, site);
    PutU64(&out, bytes);
  }
  return out;
}

bool DaemonStats::Decode(std::string_view data) {
  ByteReader r(data);
  frames_received = r.U64();
  parcels = r.U64();
  dedup_hits = r.U64();
  decoded_payloads = r.U64();
  decode_errors = r.U64();
  const uint32_t ntags = r.U32();
  tag_counts.clear();
  for (uint32_t i = 0; i < ntags && r.ok(); ++i) {
    const uint16_t len = r.U16();
    std::string tag(r.Bytes(len));
    const uint64_t bytes = r.U64();
    const uint64_t msgs = r.U64();
    tag_counts.emplace_back(std::move(tag), std::make_pair(bytes, msgs));
  }
  const uint32_t nsites = r.U32();
  bytes_into.clear();
  for (uint32_t i = 0; i < nsites && r.ok(); ++i) {
    const uint32_t site = r.U32();
    const uint64_t bytes = r.U64();
    bytes_into.emplace_back(site, bytes);
  }
  return r.ok() && r.remaining() == 0;
}

void DaemonStats::MergeFrom(const DaemonStats& other) {
  frames_received += other.frames_received;
  parcels += other.parcels;
  dedup_hits += other.dedup_hits;
  decoded_payloads += other.decoded_payloads;
  decode_errors += other.decode_errors;
  for (const auto& [tag, counts] : other.tag_counts) {
    bool found = false;
    for (auto& [mine, mine_counts] : tag_counts) {
      if (mine == tag) {
        mine_counts.first += counts.first;
        mine_counts.second += counts.second;
        found = true;
        break;
      }
    }
    if (!found) tag_counts.emplace_back(tag, counts);
  }
  for (const auto& [site, bytes] : other.bytes_into) {
    bool found = false;
    for (auto& [mine, mine_bytes] : bytes_into) {
      if (mine == site) {
        mine_bytes += bytes;
        found = true;
        break;
      }
    }
    if (!found) bytes_into.emplace_back(site, bytes);
  }
}

}  // namespace parbox::net
