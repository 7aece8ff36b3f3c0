// Pins the front end's output to fixed values: every QList entry,
// FingerprintQuery, PrefixDigest / AllPrefixDigests and
// SerializedSizeBytes of three query families, folded into one FNV-1a
// digest per family. The expected values were recorded from a front end
// that interned QList entries through a string-keyed map and hashed a
// materialized CanonicalQueryBytes string, so any change to an entry,
// to the order entries are interned in or to a digest byte fails here.
// The digests key the service's result cache and its subsumption index.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testutil.h"
#include "xpath/fingerprint.h"
#include "xpath/normalize.h"

namespace parbox::xpath {
namespace {

/// What one family pins.
struct Pinned {
  uint64_t digest = 0;
  size_t queries = 0;
  size_t entries = 0;  ///< total QList entries
};

class Digest {
 public:
  void Add(uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) Byte(v >> shift);
  }
  void Add(std::string_view text) {
    Add(text.size());
    for (char c : text) Byte(static_cast<uint8_t>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  void Byte(uint64_t b) { hash_ = (hash_ ^ (b & 0xFF)) * 0x100000001b3ULL; }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AddFingerprint(const QueryFingerprint& fp, Digest* digest) {
  digest->Add(fp.hi);
  digest->Add(fp.lo);
}

/// splitmix64's finalizer, as the fingerprint's hi lane seeds with.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Folds `q` into `digest`, checking the digests' own identities on
/// the way: FingerprintQuery is the two FNV lanes over
/// CanonicalQueryBytes, and AllPrefixDigests agrees with PrefixDigest.
void AddQuery(const NormQuery& q, Digest* digest) {
  ASSERT_TRUE(q.IsWellFormed());
  digest->Add(q.size());
  digest->Add(static_cast<uint64_t>(q.root()));
  for (size_t i = 0; i < q.size(); ++i) {
    const NormQuery::SubQuery& n = q.at(static_cast<SubQueryId>(i));
    digest->Add(static_cast<uint64_t>(n.kind));
    digest->Add(static_cast<uint64_t>(n.a));
    digest->Add(static_cast<uint64_t>(n.b));
    digest->Add(n.str);
  }
  const QueryFingerprint fp = FingerprintQuery(q);
  AddFingerprint(fp, digest);
  const std::string bytes = CanonicalQueryBytes(q);
  EXPECT_EQ(fp.lo, Fnv1a64(bytes));
  EXPECT_EQ(fp.hi, Fnv1a64(bytes, Mix(kFnv1a64Basis ^ bytes.size())));

  const std::vector<QueryFingerprint> prefixes = AllPrefixDigests(q);
  ASSERT_EQ(prefixes.size(), q.size());
  for (size_t len = 1; len <= q.size(); ++len) {
    EXPECT_EQ(PrefixDigest(q, len), prefixes[len - 1]) << "len " << len;
    AddFingerprint(prefixes[len - 1], digest);
  }
  digest->Add(q.SerializedSizeBytes());
}

Pinned PinTexts(const std::vector<std::string>& texts) {
  Pinned got;
  Digest digest;
  for (const std::string& text : texts) {
    auto q = CompileQuery(text);
    EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    if (!q.ok()) continue;
    AddQuery(*q, &digest);
    ++got.queries;
    got.entries += q->size();
  }
  got.digest = digest.value();
  return got;
}

void ExpectPinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.queries, want.queries);
  EXPECT_EQ(got.entries, want.entries);
}

TEST(DigestParityTest, HotReadFamilies) {
  ExpectPinned(PinTexts(testutil::HotReadFamilyTexts()),
               {.digest = 4159341581189543250u, .queries = 64,
                .entries = 1816});
}

TEST(DigestParityTest, ColdReadStyleTexts) {
  ExpectPinned(PinTexts(testutil::ColdReadStyleTexts(17, 200)),
               {.digest = 9991527467157375170u, .queries = 200,
                .entries = 3868});
}

TEST(DigestParityTest, RandomQueries) {
  // Normalized straight from random syntax trees (no text), then as a
  // selection path: kMark entries, `ǫ`-merges and shared sub-queries.
  Pinned got;
  Digest digest;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto ast = testutil::RandomQual(&rng, 4);
    const NormQuery q = Normalize(*ast);
    AddQuery(q, &digest);
    ++got.queries;
    got.entries += q.size();
    const auto path = testutil::RandomPath(&rng, 4);
    const SelectionQuery sel = NormalizeSelection(*path);
    AddQuery(sel.query, &digest);
    digest.Add(static_cast<uint64_t>(sel.mark));
    ++got.queries;
    got.entries += sel.query.size();
  }
  got.digest = digest.value();
  ExpectPinned(got, {.digest = 6356893488681645465u, .queries = 600,
                      .entries = 3729});
}

}  // namespace
}  // namespace parbox::xpath
