// Canonical serialization and fingerprinting of normalized queries.
//
// Two surface queries that normalize to the same β-normal form produce
// byte-identical QLists (construction is hash-consed and deterministic,
// see qlist.h), so a digest of the canonical QList encoding identifies
// a query up to normal-form equality — the key a result cache wants.
// The fingerprint is canonical for the *normal form*, not for Boolean
// equivalence: `[a and b]` and `[b and a]` normalize differently and
// fingerprint differently.
//
// The digest is a 128-bit FNV-1a variant — not cryptographic, but wide
// enough that collisions across any realistic workload are negligible.

#ifndef PARBOX_XPATH_FINGERPRINT_H_
#define PARBOX_XPATH_FINGERPRINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "xpath/qlist.h"

namespace parbox::xpath {

/// 64-bit FNV-1a — the digest primitive behind query fingerprints and
/// the service cache's triplet signatures.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
uint64_t Fnv1a64(std::string_view bytes, uint64_t basis = kFnv1a64Basis);

/// A 128-bit query digest. Value-comparable and hashable.
struct QueryFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const QueryFingerprint& a,
                         const QueryFingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const QueryFingerprint& a,
                         const QueryFingerprint& b) {
    return !(a == b);
  }

  /// 32 hex digits, hi then lo.
  std::string ToString() const;
};

/// Hasher for unordered containers keyed by fingerprint.
struct QueryFingerprintHash {
  size_t operator()(const QueryFingerprint& fp) const {
    return static_cast<size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// The canonical byte encoding of a query: per QList entry its kind,
/// child ids and payload, then the root id. Deterministic; equal
/// normal forms yield equal bytes.
std::string CanonicalQueryBytes(const NormQuery& q);

/// Digest of CanonicalQueryBytes(q): lo is its FNV-1a, hi its FNV-1a
/// from a basis that folds in its length. Computed by streaming the
/// bytes into both lanes, without building the string.
QueryFingerprint FingerprintQuery(const NormQuery& q);

// ---- QList-prefix digests (cache subsumption) ----
//
// A query A is *subsumed* by a cached query B when A's QList is an
// entry-wise prefix of B's: the kernel evaluates entry i from entries
// < i and node content only, so B's retained equation system truncated
// to |A| entries IS A's system, and A can be answered by re-solving it
// at A.root() — no site visit. These digests key that lookup: a cached
// entry indexes the digest of each of its QList prefixes; a submitted
// query probes with the digest of its full entry list. Unlike
// FingerprintQuery the encoding excludes the root id (any root within
// the prefix is solvable) and folds in the length (so a prefix digest
// never collides with a longer one by construction).

/// Digest of the first `len` QList entries of `q` (1 ≤ len ≤ q.size()).
QueryFingerprint PrefixDigest(const NormQuery& q, size_t len);

/// Digests of every prefix of `q`: result[i] == PrefixDigest(q, i+1).
/// Computed in one rolling pass (O(bytes), not O(n·bytes)).
std::vector<QueryFingerprint> AllPrefixDigests(const NormQuery& q);

/// True iff a.size() ≤ b.size() and the first a.size() entries compare
/// equal — the exact (collision-free) subsumption check behind the
/// digest probe.
bool IsQListPrefix(const NormQuery& a, const NormQuery& b);

}  // namespace parbox::xpath

#endif  // PARBOX_XPATH_FINGERPRINT_H_
