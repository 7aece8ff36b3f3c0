#include "xpath/fingerprint.h"

#include <cstdio>

namespace parbox::xpath {

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;  // FNV-1a 64-bit prime

/// splitmix64 finalizer — decorrelates the two FNV lanes.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename Put>
void EmitI32(int32_t v, Put& put) {
  for (int shift = 0; shift < 32; shift += 8) {
    put(static_cast<uint8_t>(static_cast<uint32_t>(v) >> shift));
  }
}

/// Feeds one entry's canonical bytes to `put`: the kind byte, then a,
/// b and the payload length as little-endian int32, then the payload.
template <typename Put>
void EmitEntry(const NormQuery::SubQuery& n, Put& put) {
  put(static_cast<uint8_t>(n.kind));
  EmitI32(n.a, put);
  EmitI32(n.b, put);
  EmitI32(static_cast<int32_t>(n.str.size()), put);
  for (char c : n.str) put(static_cast<uint8_t>(c));
}

/// The two FNV-1a lanes of a digest, fed the same bytes as they are
/// emitted, so no canonical byte string is built.
struct Lanes {
  uint64_t lo;
  uint64_t hi;
  void operator()(uint8_t c) {
    lo = (lo ^ c) * kFnvPrime;
    hi = (hi ^ c) * kFnvPrime;
  }
};

/// The lanes every prefix digest starts from.
Lanes PrefixLanes() { return {kFnv1a64Basis, Mix(kFnv1a64Basis)}; }

QueryFingerprint SealPrefixDigest(const Lanes& lanes, size_t len) {
  QueryFingerprint fp;
  fp.lo = lanes.lo;
  fp.hi = Mix(lanes.hi ^ static_cast<uint64_t>(len));
  return fp;
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes, uint64_t basis) {
  uint64_t h = basis;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string CanonicalQueryBytes(const NormQuery& q) {
  std::string out;
  out.reserve(16 * q.size());
  auto append = [&out](uint8_t c) { out.push_back(static_cast<char>(c)); };
  for (size_t i = 0; i < q.size(); ++i) {
    EmitEntry(q.at(static_cast<SubQueryId>(i)), append);
  }
  EmitI32(q.root(), append);
  return out;
}

QueryFingerprint PrefixDigest(const NormQuery& q, size_t len) {
  Lanes lanes = PrefixLanes();
  for (size_t i = 0; i < len; ++i) {
    EmitEntry(q.at(static_cast<SubQueryId>(i)), lanes);
  }
  return SealPrefixDigest(lanes, len);
}

std::vector<QueryFingerprint> AllPrefixDigests(const NormQuery& q) {
  std::vector<QueryFingerprint> out;
  out.reserve(q.size());
  Lanes lanes = PrefixLanes();
  for (size_t i = 0; i < q.size(); ++i) {
    EmitEntry(q.at(static_cast<SubQueryId>(i)), lanes);
    out.push_back(SealPrefixDigest(lanes, i + 1));
  }
  return out;
}

bool IsQListPrefix(const NormQuery& a, const NormQuery& b) {
  if (a.size() > b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a.at(static_cast<SubQueryId>(i)) ==
          b.at(static_cast<SubQueryId>(i)))) {
      return false;
    }
  }
  return true;
}

QueryFingerprint FingerprintQuery(const NormQuery& q) {
  // The digest of CanonicalQueryBytes(q), streamed. The hi lane's basis
  // folds in the byte count, so count the bytes first: 13 per entry
  // plus its payload, and 4 for the root id.
  uint64_t size = 4;
  for (size_t i = 0; i < q.size(); ++i) {
    size += 13 + q.at(static_cast<SubQueryId>(i)).str.size();
  }
  Lanes lanes{kFnv1a64Basis, Mix(kFnv1a64Basis ^ size)};
  for (size_t i = 0; i < q.size(); ++i) {
    EmitEntry(q.at(static_cast<SubQueryId>(i)), lanes);
  }
  EmitI32(q.root(), lanes);
  QueryFingerprint fp;
  fp.lo = lanes.lo;
  fp.hi = lanes.hi;
  return fp;
}

std::string QueryFingerprint::ToString() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

}  // namespace parbox::xpath
