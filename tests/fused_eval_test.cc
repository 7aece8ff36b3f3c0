// Fused multi-query evaluation: the batch kernel must be *id-exact* —
// every lane's triplet carries the same consed ExprIds a solo (one-lane)
// PartialEvalFragment of that query produces in the same factory —
// and its accounting must charge only non-shared entries.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "boolexpr/expr.h"
#include "core/partial_eval.h"
#include "testutil.h"
#include "xmark/queries.h"
#include "xpath/eval.h"
#include "xpath/fingerprint.h"
#include "xpath/normalize.h"

namespace parbox::core {
namespace {

using frag::FragmentSet;
using frag::SourceTree;

xpath::NormQuery Compile(std::string_view text) {
  auto q = xpath::CompileQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

xpath::NormQuery Family(int steps, int variant) {
  auto q = xmark::MakeFamilyQuery(steps, variant);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

// ---------- Batch layout ----------

TEST(EvalBatchTest, FamilyMembersShareTheBasePrefix) {
  const xpath::NormQuery base = Family(4, -1);
  const xpath::NormQuery v0 = Family(4, 0);
  const xpath::NormQuery v1 = Family(4, 1);

  // The base's FULL QList is a literal prefix of each variant's.
  EXPECT_TRUE(xpath::IsQListPrefix(base, v0));
  EXPECT_TRUE(xpath::IsQListPrefix(base, v1));
  EXPECT_FALSE(xpath::IsQListPrefix(v0, v1));  // divergent qualifiers
  EXPECT_EQ(xpath::CommonQListPrefix(v0, v1), base.size());

  auto batch = xpath::MakeEvalBatch({&v0, &v1, &base});
  ASSERT_EQ(batch.lanes.size(), 3u);
  // Lane 0 has no earlier lane to borrow from.
  EXPECT_EQ(batch.lanes[0].donor, -1);
  EXPECT_EQ(batch.lanes[0].shared, 0u);
  // v1 shares the base prefix with v0; base is a full-prefix lane.
  EXPECT_EQ(batch.lanes[1].donor, 0);
  EXPECT_EQ(batch.lanes[1].shared, base.size());
  EXPECT_EQ(batch.lanes[2].donor, 0);
  EXPECT_EQ(batch.lanes[2].shared, base.size());
  EXPECT_EQ(batch.lanes[2].width, base.size());  // copies everything
  EXPECT_EQ(batch.total_width, v0.size() + v1.size() + base.size());
  EXPECT_EQ(batch.max_width, v0.size());
}

TEST(EvalBatchTest, UnrelatedQueriesGetNoDonor) {
  // a's QList starts with Eps (path qual), b's with LabelIs: no
  // common prefix, so the second lane evaluates everything itself.
  const xpath::NormQuery a = Compile("[//regions/africa]");
  const xpath::NormQuery b = Compile("[not(label() = nosuchlabel)]");
  EXPECT_EQ(xpath::CommonQListPrefix(a, b), 0u);
  auto batch = xpath::MakeEvalBatch({&a, &b});
  EXPECT_EQ(batch.lanes[1].donor, -1);
  EXPECT_EQ(batch.lanes[1].shared, 0u);
}

// ---------- Prefix digests ----------

TEST(PrefixDigestTest, MatchesIffPrefixesMatch) {
  const xpath::NormQuery base = Family(5, -1);
  const xpath::NormQuery v0 = Family(5, 0);
  const xpath::NormQuery other = Family(6, -1);

  // The variant's prefix digest at |base| equals the base's own
  // full-entry digest (the subsumption probe key).
  EXPECT_EQ(xpath::PrefixDigest(v0, base.size()),
            xpath::PrefixDigest(base, base.size()));
  // Length is folded in: a shorter prefix never aliases a longer one.
  EXPECT_NE(xpath::PrefixDigest(v0, base.size()),
            xpath::PrefixDigest(v0, v0.size()));
  // Different chains diverge.
  EXPECT_NE(xpath::PrefixDigest(other, base.size()),
            xpath::PrefixDigest(base, base.size()));

  const auto all = xpath::AllPrefixDigests(v0);
  ASSERT_EQ(all.size(), v0.size());
  for (size_t len = 1; len <= v0.size(); ++len) {
    EXPECT_EQ(all[len - 1], xpath::PrefixDigest(v0, len)) << len;
  }
}

// ---------- Id-exactness against solo walks ----------

struct Scenario {
  FragmentSet set;
  SourceTree st;
};

Scenario MakeScenario(uint64_t seed) {
  auto sc = testutil::MakeRandomScenario(seed, /*max_elements=*/400,
                                         /*splits=*/6);
  return Scenario{std::move(sc.set), std::move(sc.st)};
}

void ExpectFusedMatchesSolo(const std::vector<const xpath::NormQuery*>& qs,
                            uint64_t seed) {
  Scenario sc = MakeScenario(seed);
  const auto batch = xpath::MakeEvalBatch(qs);

  for (frag::FragmentId f : sc.set.live_ids()) {
    // Solo walks first, then the fused walk, all in ONE factory: the
    // fused triplets must resolve to the very same ExprIds (no new
    // interning) — that is the cross-query CSE claim made literal.
    bexpr::ExprFactory factory;
    std::vector<bexpr::FragmentEquations> solo;
    xpath::EvalCounters solo_counters;
    for (const xpath::NormQuery* q : qs) {
      solo.push_back(
          PartialEvalFragment(&factory, *q, sc.set, f, &solo_counters));
    }
    const uint64_t nodes_before = factory.total_nodes();

    xpath::EvalCounters fused_counters;
    xpath::BatchEvalStats stats;
    auto fused = PartialEvalFragmentBatch(&factory, batch, sc.set, f,
                                          &fused_counters, &stats);
    EXPECT_EQ(factory.total_nodes(), nodes_before)
        << "fused walk interned formulas the solo walks did not";

    ASSERT_EQ(fused.size(), qs.size());
    for (size_t k = 0; k < qs.size(); ++k) {
      EXPECT_EQ(fused[k].fragment, f);
      EXPECT_EQ(fused[k].v, solo[k].v) << "lane " << k;
      EXPECT_EQ(fused[k].cv, solo[k].cv) << "lane " << k;
      EXPECT_EQ(fused[k].dv, solo[k].dv) << "lane " << k;
    }

    // Accounting: one element charge per node per walk; the fused op
    // count plus donor-copied slots re-derives the per-lane total.
    EXPECT_EQ(solo_counters.elements,
              fused_counters.elements * qs.size());
    EXPECT_EQ(fused_counters.ops + stats.shared_entries,
              solo_counters.ops);
    size_t total_shared = 0;
    for (const auto& lane : batch.lanes) total_shared += lane.shared;
    if (total_shared > 0) {
      // With any real sharing the fused walk must do strictly less.
      EXPECT_LT(fused_counters.ops, solo_counters.ops);
    }
  }
}

TEST(FusedEvalTest, FamilyBatchIsIdExact) {
  std::vector<xpath::NormQuery> qs;
  for (int v = -1; v < 5; ++v) qs.push_back(Family(6, v));
  std::vector<const xpath::NormQuery*> ptrs;
  for (const auto& q : qs) ptrs.push_back(&q);
  ExpectFusedMatchesSolo(ptrs, /*seed=*/17);
}

TEST(FusedEvalTest, FullPrefixLaneIsIdExact) {
  // The base placed AFTER a variant: its whole QList is donor-copied,
  // zero per-node evaluation of its own.
  xpath::NormQuery v0 = Family(5, 0);
  xpath::NormQuery base = Family(5, -1);
  ExpectFusedMatchesSolo({&v0, &base}, /*seed=*/23);
}

TEST(FusedEvalTest, UnrelatedBatchIsIdExact) {
  xpath::NormQuery a = Compile("[//item/description]");
  xpath::NormQuery b = Compile("[not(//regions/africa)]");
  xpath::NormQuery c = Compile("[label() = site and //parlist]");
  ExpectFusedMatchesSolo({&a, &b, &c}, /*seed=*/31);
}

TEST(FusedEvalTest, RandomQualBatchesAreIdExact) {
  Rng rng(404);
  for (int trial = 0; trial < 6 * testutil::TrialMultiplier(); ++trial) {
    std::vector<xpath::NormQuery> qs;
    for (int k = 0; k < 4; ++k) {
      auto ast = testutil::RandomQual(&rng, /*depth=*/3);
      qs.push_back(xpath::Normalize(*ast));
    }
    std::vector<const xpath::NormQuery*> ptrs;
    for (const auto& q : qs) ptrs.push_back(&q);
    ExpectFusedMatchesSolo(ptrs, /*seed=*/1000 + trial);
  }
  // Batches wider than one 64-entry mask word. Half the lanes conjoin
  // an earlier lane's qualifier with a fresh one, so their QLists start
  // with that lane's whole QList: donor copies at word-unaligned
  // offsets.
  for (int trial = 0; trial < 6 * testutil::TrialMultiplier(); ++trial) {
    std::vector<std::unique_ptr<xpath::QualExpr>> asts;
    std::vector<xpath::NormQuery> qs;
    size_t width = 0;
    while (width <= 64 * 3) {
      std::unique_ptr<xpath::QualExpr> ast =
          testutil::RandomQual(&rng, /*depth=*/4);
      if (!asts.empty() && rng.Uniform(2) == 0) {
        ast = xpath::QualExpr::And(asts[rng.Uniform(asts.size())]->Clone(),
                                   std::move(ast));
      }
      qs.push_back(xpath::Normalize(*ast));
      width += qs.back().size();
      asts.push_back(std::move(ast));
    }
    std::vector<const xpath::NormQuery*> ptrs;
    for (const auto& q : qs) ptrs.push_back(&q);
    const xpath::EvalBatch batch = xpath::MakeEvalBatch(ptrs);
    ASSERT_GT(batch.total_width, 64u * 3);
    size_t donors = 0;
    for (const xpath::BatchLane& lane : batch.lanes) {
      donors += lane.donor >= 0 ? 1 : 0;
    }
    EXPECT_GT(donors, 0u);
    ExpectFusedMatchesSolo(ptrs, /*seed=*/2000 + trial);
  }
}

// Sub-fragments that resolve to truth values keep a walk on its masks,
// fused or not. Every lane must still match its solo walk, including
// the CV/DV prefix regions a donor lane never copies.
TEST(FusedEvalTest, TruthValueResolverBatchMatchesSolo) {
  std::vector<xpath::NormQuery> qs;
  qs.push_back(Compile("[//a[b]]"));
  qs.push_back(Compile("[//a[b] and c]"));
  qs.push_back(Compile("[//a[b] and not(d/e)]"));
  qs.push_back(Compile("[*/c or //d[e = \"t1\"]]"));
  std::vector<const xpath::NormQuery*> ptrs;
  for (const auto& q : qs) ptrs.push_back(&q);
  const auto batch = xpath::MakeEvalBatch(ptrs);
  ASSERT_GE(batch.lanes[2].donor, 0);
  Scenario sc = MakeScenario(/*seed=*/61);

  // Entry i of a sub-fragment's vectors depends on (fragment, i) only,
  // as the batch contract requires.
  auto truth = [](const xml::Node& vnode, std::vector<bexpr::ExprId>* v,
                  std::vector<bexpr::ExprId>* dv) {
    for (size_t i = 0; i < v->size(); ++i) {
      const uint64_t h =
          static_cast<uint64_t>(vnode.fragment_ref) * 0x9e3779b97f4a7c15ULL ^
          (i + 1) * 0xbf58476d1ce4e5b9ULL;
      const bool here = (h >> 17) & 1;
      (*v)[i] = here ? bexpr::kTrueExpr : bexpr::kFalseExpr;
      (*dv)[i] = here || ((h >> 29) & 1) ? bexpr::kTrueExpr : bexpr::kFalseExpr;
    }
  };
  size_t with_virtuals = 0;
  for (frag::FragmentId f : sc.set.live_ids()) {
    const xml::Node& root = *sc.set.fragment(f).root;
    if (xml::CountVirtuals(&root) > 0) ++with_virtuals;
    bexpr::ExprFactory factory;
    const auto fused = xpath::BottomUpEvalBatch(&factory, batch, root, truth);
    for (size_t k = 0; k < qs.size(); ++k) {
      const auto solo = xpath::BottomUpEval(&factory, qs[k], root, truth);
      EXPECT_EQ(fused[k].v, solo.v) << "fragment " << f << " lane " << k;
      EXPECT_EQ(fused[k].cv, solo.cv) << "fragment " << f << " lane " << k;
      EXPECT_EQ(fused[k].dv, solo.dv) << "fragment " << f << " lane " << k;
    }
    EXPECT_EQ(factory.total_nodes(), 2u) << "a truth-value walk interned";
  }
  EXPECT_GT(with_virtuals, 0u);
}

TEST(FusedEvalTest, SingleLaneDegeneratesToSolo) {
  xpath::NormQuery q = Family(4, 2);
  ExpectFusedMatchesSolo({&q}, /*seed=*/7);
}

// The node hook of a multi-lane walk sees, in lane k's region of the
// concatenated V vector, exactly what lane k's solo walk hooks at the
// same element, in the same post-order.
TEST(FusedEvalTest, NodeHookLanesMatchSoloHooks) {
  std::vector<xpath::NormQuery> qs;
  for (int v = -1; v < 3; ++v) qs.push_back(Family(4, v));
  qs.push_back(Compile("[not(//a[b])]"));
  std::vector<const xpath::NormQuery*> ptrs;
  for (const auto& q : qs) ptrs.push_back(&q);
  const auto batch = xpath::MakeEvalBatch(ptrs);
  Scenario sc = MakeScenario(/*seed=*/53);

  using Seen = std::vector<std::pair<const xml::Node*,
                                     std::vector<bexpr::ExprId>>>;
  auto record = [](Seen* seen) {
    return [seen](const xml::Node& node,
                  const std::vector<bexpr::ExprId>& vv) {
      seen->emplace_back(&node, vv);
    };
  };
  for (frag::FragmentId f : sc.set.live_ids()) {
    const xml::Node& root = *sc.set.fragment(f).root;
    bexpr::ExprFactory factory;
    Seen fused;
    xpath::BottomUpEvalBatch(&factory, batch, root,
                             FreshVarResolver{&factory, batch.max_width},
                             nullptr, nullptr, record(&fused));
    for (size_t k = 0; k < qs.size(); ++k) {
      Seen solo;
      xpath::BottomUpEval(&factory, qs[k], root,
                          FreshVarResolver{&factory, qs[k].size()},
                          nullptr, record(&solo));
      ASSERT_EQ(solo.size(), fused.size());
      const size_t off = batch.lanes[k].offset;
      for (size_t n = 0; n < solo.size(); ++n) {
        ASSERT_EQ(solo[n].first, fused[n].first);
        const std::vector<bexpr::ExprId> lane(
            fused[n].second.begin() + off,
            fused[n].second.begin() + off + qs[k].size());
        EXPECT_EQ(lane, solo[n].second) << "fragment " << f << " lane " << k;
      }
    }
  }
}

}  // namespace
}  // namespace parbox::core
