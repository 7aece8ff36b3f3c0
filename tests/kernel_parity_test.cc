// Pins the partial-evaluation kernel's output to fixed values: per-lane
// triplets (ExprIds and ExprFactory::ToString renderings, digested),
// EvalCounters, BatchEvalStats::shared_entries and the factory's node
// count. The expected values were recorded from a kernel that kept
// ExprId vectors at every element, so any change to a formula, to the
// order formulas are interned in, or to the op accounting fails here —
// on leaf fragments (never promoted), on the root's virtual spine,
// along a deep chain, and in fused batches whose lanes and donor
// prefixes straddle 64-entry mask words.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "boolexpr/expr.h"
#include "core/partial_eval.h"
#include "fragment/fragment.h"
#include "fragment/strategies.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xpath/eval.h"
#include "xpath/normalize.h"

namespace parbox::core {
namespace {

/// What one scenario pins.
struct Pinned {
  uint64_t digest = 0;  ///< FNV-1a over every lane's rendered triplet
  uint64_t ops = 0;
  uint64_t elements = 0;
  uint64_t shared = 0;
  size_t nodes = 0;  ///< factory.total_nodes() after every walk
};

class Digest {
 public:
  void Add(std::string_view text) {
    for (unsigned char c : text) {
      hash_ = (hash_ ^ c) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AddVector(const bexpr::ExprFactory& factory, const char* name,
               const std::vector<bexpr::ExprId>& values, Digest* digest) {
  digest->Add(name);
  for (bexpr::ExprId e : values) {
    digest->Add(std::to_string(e));
    digest->Add("=");
    digest->Add(factory.ToString(e));
    digest->Add(",");
  }
}

/// Every batch walked over every live fragment, batch-major, in ONE
/// factory (so ExprIds depend on the whole interning history).
Pinned Walk(const frag::FragmentSet& set,
            const std::vector<xpath::EvalBatch>& batches) {
  bexpr::ExprFactory factory;
  Digest digest;
  xpath::EvalCounters counters;
  xpath::BatchEvalStats stats;
  for (const xpath::EvalBatch& batch : batches) {
    for (frag::FragmentId f : set.live_ids()) {
      const std::vector<bexpr::FragmentEquations> eqs =
          PartialEvalFragmentBatch(&factory, batch, set, f, &counters,
                                   &stats);
      for (size_t k = 0; k < eqs.size(); ++k) {
        digest.Add("f" + std::to_string(f) + "k" + std::to_string(k));
        AddVector(factory, "v", eqs[k].v, &digest);
        AddVector(factory, "cv", eqs[k].cv, &digest);
        AddVector(factory, "dv", eqs[k].dv, &digest);
      }
    }
  }
  return {digest.value(), counters.ops, counters.elements,
          stats.shared_entries, factory.total_nodes()};
}

void ExpectPinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.ops, want.ops);
  EXPECT_EQ(got.elements, want.elements);
  EXPECT_EQ(got.shared, want.shared);
  EXPECT_EQ(got.nodes, want.nodes);
}

/// An XMark star of 8 sites, one fragment per site: 7 leaf fragments
/// and a root whose <history> path leads to the 7 virtual nodes.
frag::FragmentSet Star(uint64_t bytes_per_site, uint64_t seed) {
  std::vector<std::vector<int>> topology(8);
  for (int i = 1; i < 8; ++i) topology[0].push_back(i);
  const std::vector<uint64_t> sizes(8, bytes_per_site);
  auto set = frag::FragmentSet::FromDocument(
      xmark::GenerateTreeDocument(topology, sizes, seed));
  EXPECT_TRUE(set.ok());
  EXPECT_TRUE(frag::SplitAtAllLabeled(&*set, "site").ok());
  return std::move(*set);
}

std::vector<xpath::NormQuery> Compile(
    const std::vector<std::string>& texts) {
  std::vector<xpath::NormQuery> out;
  for (const std::string& text : texts) {
    auto q = xpath::CompileQuery(text);
    EXPECT_TRUE(q.ok()) << text;
    out.push_back(std::move(*q));
  }
  return out;
}

std::vector<const xpath::NormQuery*> Ptrs(
    const std::vector<xpath::NormQuery>& qs) {
  std::vector<const xpath::NormQuery*> out;
  for (const xpath::NormQuery& q : qs) out.push_back(&q);
  return out;
}

/// One one-lane batch per query.
std::vector<xpath::EvalBatch> Solo(const std::vector<xpath::NormQuery>& qs) {
  std::vector<xpath::EvalBatch> out;
  for (const xpath::NormQuery& q : qs) {
    out.push_back(xpath::MakeEvalBatch({&q}));
  }
  return out;
}

/// Reads shaped like the serving benchmark's cold reads: a region's
/// items conjoined with an auction test, one negated; plus a chain
/// that only matches through the nested sites.
const std::vector<std::string> kColdReads = {
    "[//regions/africa/item and //open_auction[initial = \"$12\"]]",
    "[//regions/asia/item and //closed_auction[price = \"$7\"]]",
    "[//regions/europe/item and not(//open_auction[current = \"$30\"])]",
    "[//history/site/regions/asia/item/description/parlist]",
};

/// The serving benchmark's family portfolio: 8 descendant chains x 8
/// variants (variant 0 bare, the rest conjoined with a marker test),
/// in popularity-rank order.
std::vector<std::string> Portfolio() {
  constexpr std::array<const char*, 8> kChains = {
      "//regions/africa/item/description",
      "//regions/europe/item/description/parlist",
      "//history/site/people/person/profile/interest",
      "//history/site/regions/asia/item/description/parlist",
      "//history/site/regions/namerica/item/description/parlist/parlist",
      "//history/site/history/site/regions/africa/item/description/"
      "parlist",
      "//site/regions/africa/item/description/parlist/name/quantity/"
      "location/payment",
      "//regions/africa/item/description/parlist/name/quantity/location/"
      "payment/shipping/profile",
  };
  std::vector<std::string> out(64);
  for (size_t f = 0; f < kChains.size(); ++f) {
    for (size_t v = 0; v < 8; ++v) {
      const std::string chain = kChains[f];
      out[v * kChains.size() + f] =
          v == 0 ? "[" + chain + "]"
                 : "[" + chain + " and //marker = \"m" +
                       std::to_string((f + v) % 10) + "\"]";
    }
  }
  return out;
}

TEST(KernelParityTest, StarColdReads) {
  const frag::FragmentSet set = Star(16 << 10, 11);
  const std::vector<xpath::NormQuery> qs = Compile(kColdReads);
  ExpectPinned(Walk(set, Solo(qs)),
               {.digest = 4782503860884003375u, .ops = 340240,
                .elements = 17012, .shared = 0, .nodes = 377});
}

TEST(KernelParityTest, DeepChainColdReads) {
  // Each site nests the next under <history>: every fragment but the
  // last carries a virtual node, so the spine runs through all of them.
  auto set = frag::FragmentSet::FromDocument(
      xmark::GenerateChainDocument(12, 4 << 10, 5));
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(frag::SplitAtAllLabeled(&*set, "site").ok());
  ASSERT_EQ(set->live_count(), 12u);
  const std::vector<xpath::NormQuery> qs = Compile(kColdReads);
  ExpectPinned(Walk(*set, Solo(qs)),
               {.digest = 13552196454115674240u, .ops = 137280,
                .elements = 6864, .shared = 0, .nodes = 737});
}

TEST(KernelParityTest, HotReadPortfolioBatch) {
  const frag::FragmentSet set = Star(8 << 10, 3);
  const std::vector<xpath::NormQuery> qs = Compile(Portfolio());
  const xpath::EvalBatch batch = xpath::MakeEvalBatch(Ptrs(qs));
  ASSERT_EQ(batch.size(), 64u);
  ASSERT_EQ(batch.total_width, 1816u);
  ExpectPinned(Walk(set, {batch}),
               {.digest = 6588252592576532247u, .ops = 1105584,
                .elements = 2229, .shared = 2942280, .nodes = 723});
}

TEST(KernelParityTest, LanesStraddleMaskWords) {
  // Family members of different chain lengths: lanes of 20-40 entries
  // whose offsets, and whose donor prefixes, cross 64-entry words.
  std::vector<xpath::NormQuery> qs;
  for (auto [steps, variant] : std::vector<std::pair<int, int>>{
           {9, 0}, {9, 1}, {7, -1}, {9, 2}, {11, 0}, {11, 3}, {9, -1},
           {11, 4}, {7, 2}, {11, -1}}) {
    auto q = xmark::MakeFamilyQuery(steps, variant);
    ASSERT_TRUE(q.ok());
    qs.push_back(std::move(*q));
  }
  const xpath::EvalBatch batch = xpath::MakeEvalBatch(Ptrs(qs));
  auto straddles = [](size_t from, size_t n) {
    return n > 0 && from / 64 != (from + n - 1) / 64;
  };
  bool lane_straddles = false;
  bool copy_source_straddles = false;
  bool copy_target_straddles = false;
  for (const xpath::BatchLane& lane : batch.lanes) {
    lane_straddles |= straddles(lane.offset, lane.width);
    if (lane.donor < 0) continue;
    const auto& donor = batch.lanes[static_cast<size_t>(lane.donor)];
    copy_source_straddles |= straddles(donor.offset, lane.shared);
    copy_target_straddles |= straddles(lane.offset, lane.shared);
  }
  ASSERT_GT(batch.total_width, 128u);
  ASSERT_TRUE(lane_straddles);
  ASSERT_TRUE(copy_source_straddles);
  ASSERT_TRUE(copy_target_straddles);

  const frag::FragmentSet star = Star(8 << 10, 19);
  ExpectPinned(Walk(star, {batch}),
               {.digest = 17752081021109733433u, .ops = 212448,
                .elements = 2213, .shared = 464730, .nodes = 592});
  auto chain = frag::FragmentSet::FromDocument(
      xmark::GenerateChainDocument(6, 4 << 10, 23));
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(frag::SplitAtAllLabeled(&*chain, "site").ok());
  ExpectPinned(Walk(*chain, {batch}),
               {.digest = 16273921024096007081u, .ops = 78528,
                .elements = 818, .shared = 171780, .nodes = 432});
}

}  // namespace
}  // namespace parbox::core
