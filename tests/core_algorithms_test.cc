#include <gtest/gtest.h>

#include "boolexpr/expr.h"
#include "core/partial_eval.h"
#include "testutil.h"
#include "xmark/generator.h"
#include "xmark/portfolio.h"
#include "xmark/queries.h"
#include "xpath/eval.h"
#include "xpath/normalize.h"
#include "xpath/reference_eval.h"

namespace parbox::core {
namespace {

using frag::FragmentId;
using frag::FragmentSet;
using frag::SourceTree;

struct Portfolio {
  FragmentSet set;
  SourceTree st;
};

/// The paper's deployment: F0 -> S0, F1 -> S1, F2,F3 -> S2 (NASDAQ).
Portfolio MakePortfolio() {
  auto set = xmark::BuildPortfolioFragments();
  EXPECT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  EXPECT_TRUE(st.ok());
  return Portfolio{std::move(*set), std::move(*st)};
}

xpath::NormQuery Compile(std::string_view text) {
  auto q = xpath::CompileQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

// ---------- The paper's running example ----------

TEST(PaperExampleTest, Example33AnswerIsTrue) {
  // Example 3.3: the YHOO query over the fragmented portfolio
  // evaluates to true (YHOO lives in fragment F2 at the NASDAQ site).
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  auto report = testutil::Evaluate(p.set, p.st, q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->answer);
}

TEST(PaperExampleTest, IntroductionSellQueryIsFalse) {
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kGoogSellQuery);
  auto report = testutil::Evaluate(p.set, p.st, q);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->answer);
}

TEST(PaperExampleTest, AllAlgorithmsAgreeOnPortfolioQueries) {
  for (const char* text : {xmark::kGoogSellQuery, xmark::kYhooQuery,
                           xmark::kMerillQuery,
                           "[//market[name = \"NASDAQ\"]]",
                           "[//stock[code = \"IBM\" and sell = \"78\"]]",
                           "[not(//stock[code = \"MSFT\"])]"}) {
    Portfolio p = MakePortfolio();
    xpath::NormQuery q = Compile(text);
    auto whole = p.set.Reassemble();
    ASSERT_TRUE(whole.ok());
    bool expected = *xpath::EvalBoolean(*whole->root(), q);
    auto reports = testutil::EvaluateAll(p.set, p.st, q);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    for (const RunReport& r : *reports) {
      EXPECT_EQ(r.answer, expected) << text << " via " << r.algorithm;
    }
  }
}

TEST(PaperExampleTest, ParBoXVisitsEachSiteOnce) {
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  auto report = testutil::Evaluate(p.set, p.st, q);
  ASSERT_TRUE(report.ok());
  // Site S2 holds two fragments but is still visited only once.
  EXPECT_EQ(report->visits_per_site, (std::vector<uint64_t>{1, 1, 1}));
}

TEST(PaperExampleTest, NaiveDistributedVisitsPerFragment) {
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  auto report = testutil::Evaluate(p.set, p.st, q, "distributed");
  ASSERT_TRUE(report.ok());
  // "site S2 needs to be visited twice, since it holds F2 and F3".
  EXPECT_EQ(report->visits_per_site, (std::vector<uint64_t>{1, 1, 2}));
}

// ---------- Partial evaluation internals (Example 3.2 flavor) ----------

TEST(PartialEvalTest, LeafFragmentsAreVariableFree) {
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  bexpr::ExprFactory factory;
  for (FragmentId leaf : {2, 3}) {
    auto eq = PartialEvalFragment(&factory, q, p.set, leaf, nullptr);
    for (const auto& vec : {eq.v, eq.cv, eq.dv}) {
      for (bexpr::ExprId e : vec) {
        EXPECT_TRUE(factory.CollectVars(e).empty())
            << "leaf F" << leaf << " produced " << factory.ToString(e);
      }
    }
  }
}

TEST(PartialEvalTest, InnerFragmentsReferenceOnlyTheirChildren) {
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  bexpr::ExprFactory factory;
  // F1's variables must all refer to F2; F0's to F1 and F3.
  auto eq1 = PartialEvalFragment(&factory, q, p.set, 1, nullptr);
  for (bexpr::ExprId e : eq1.v) {
    for (const bexpr::VarId& var : factory.CollectVars(e)) {
      EXPECT_EQ(var.fragment, 2);
    }
  }
  auto eq0 = PartialEvalFragment(&factory, q, p.set, 0, nullptr);
  for (bexpr::ExprId e : eq0.dv) {
    for (const bexpr::VarId& var : factory.CollectVars(e)) {
      EXPECT_TRUE(var.fragment == 1 || var.fragment == 3);
    }
  }
}

TEST(PartialEvalTest, YhooAnswerComesFromF2ViaF1) {
  // Example 3.3: the answer entry of V_F0 is (roughly) dy | dz — the
  // disjunction of F1's and F3's DV variables; F3 resolves it to
  // false, F1 forwards to F2 which resolves it to true.
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  bexpr::ExprFactory factory;
  auto eq0 = PartialEvalFragment(&factory, q, p.set, 0, nullptr);
  bexpr::ExprId answer = eq0.v[q.root()];
  auto vars = factory.CollectVars(answer);
  ASSERT_FALSE(vars.empty());
  bool mentions_f1 = false;
  for (const auto& var : vars) mentions_f1 |= var.fragment == 1;
  EXPECT_TRUE(mentions_f1) << factory.ToString(answer);
}

TEST(PartialEvalTest, CountersChargeElementsTimesQList) {
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  bexpr::ExprFactory factory;
  xpath::EvalCounters counters;
  PartialEvalFragment(&factory, q, p.set, 2, &counters);
  EXPECT_EQ(counters.elements, p.set.FragmentElements(2));
  EXPECT_EQ(counters.ops, counters.elements * q.size());
}

TEST(PartialEvalTest, BoolEvalFragmentMatchesResolvedParBoX) {
  // Evaluating F1 with F2's resolved vectors must match what the
  // formula path computes.
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  // Resolve F2 directly (it is variable-free).
  ResolvedVectors f2;
  {
    auto leaf = BoolEvalFragment(
        q, p.set, 2,
        [](FragmentId) -> const ResolvedVectors& {
          static ResolvedVectors kEmpty;
          ADD_FAILURE() << "leaf fragment asked for children";
          return kEmpty;
        },
        nullptr);
    f2 = leaf;
  }
  auto f1 = BoolEvalFragment(
      q, p.set, 1,
      [&](FragmentId id) -> const ResolvedVectors& {
        EXPECT_EQ(id, 2);
        return f2;
      },
      nullptr);
  // The YHOO stock is below F1 (inside F2): DV at F1's root is true.
  EXPECT_TRUE(f1.dv[q.root()]);
  EXPECT_TRUE(f2.dv[q.root()]);
}

// ---------- Cross-algorithm agreement on random scenarios ----------

class AgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AgreementTest, AllAlgorithmsMatchTheOracle) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  auto scenario = testutil::MakeRandomScenario(
      seed, 30 + static_cast<int>(rng.Uniform(150)),
      1 + static_cast<int>(rng.Uniform(7)));
  auto whole = scenario.set.Reassemble();
  ASSERT_TRUE(whole.ok());
  for (int i = 0; i < 8; ++i) {
    auto ast = testutil::RandomQual(&rng, 3);
    xpath::NormQuery q = xpath::Normalize(*ast);
    bool expected = xpath::ReferenceEval(*ast, *whole->root());
    auto reports = testutil::EvaluateAll(scenario.set, scenario.st, q);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    for (const RunReport& r : *reports) {
      EXPECT_EQ(r.answer, expected)
          << "seed " << seed << " algorithm " << r.algorithm << " query "
          << xpath::ToString(*ast);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgreementTest,
                         ::testing::Range<uint64_t>(0, 30));

// Selection must also agree: an element is selected iff the reference
// evaluator says the predicate holds there.

// ---------- Fig. 4 complexity table, measured ----------

TEST(ComplexityTest, ParBoXMaxOneVisitEverywhere) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto scenario = testutil::MakeRandomScenario(seed, 120, 6);
    xpath::NormQuery q = Compile("[//a[b] or .//c/text() = \"t1\"]");
    auto report = testutil::Evaluate(scenario.set, scenario.st, q);
    ASSERT_TRUE(report.ok());
    EXPECT_LE(report->max_visits_per_site(), 1u) << "seed " << seed;
  }
}

TEST(ComplexityTest, NaiveDistributedVisitsEqualFragmentsPerSite) {
  auto scenario = testutil::MakeRandomScenario(11, 150, 5);
  xpath::NormQuery q = Compile("[//a]");
  auto report = testutil::Evaluate(scenario.set, scenario.st, q, "distributed");
  ASSERT_TRUE(report.ok());
  for (int s = 0; s < scenario.st.num_sites(); ++s) {
    EXPECT_EQ(report->visits_per_site[s],
              scenario.st.fragments_at(s).size());
  }
}

TEST(ComplexityTest, ParBoXTrafficIndependentOfDataSize) {
  // Same fragmentation shape and query, 8x the data: ParBoX's traffic
  // must not grow (it depends only on |q| and card(F)), while
  // NaiveCentralized's grows with |T|.
  xpath::NormQuery q = Compile("[//item[name] and //person]");
  uint64_t parbox_bytes[2], central_bytes[2];
  int idx = 0;
  for (uint64_t bytes_per_site : {4000ull, 32000ull}) {
    xml::Document doc = xmark::GenerateStarDocument(4, bytes_per_site, 5);
    auto set_result = FragmentSet::FromDocument(std::move(doc));
    FragmentSet set = std::move(*set_result);
    ASSERT_TRUE(frag::SplitAtAllLabeled(&set, "site").ok());
    auto st =
        SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
    ASSERT_TRUE(st.ok());
    auto parbox = testutil::Evaluate(set, *st, q);
    auto central = testutil::Evaluate(set, *st, q, "central");
    ASSERT_TRUE(parbox.ok() && central.ok());
    parbox_bytes[idx] = parbox->network_bytes;
    central_bytes[idx] = central->network_bytes;
    ++idx;
  }
  // Allow a tiny wobble from formula shapes; rule out growth with |T|.
  EXPECT_LT(parbox_bytes[1], parbox_bytes[0] * 2);
  EXPECT_GT(central_bytes[1], central_bytes[0] * 4);
}

TEST(ComplexityTest, FullDistShipsLessThanParBoX) {
  // FullDistParBoX never ships variables, so its triplet traffic is
  // smaller (the paper reports about half).
  xml::Document doc = xmark::GenerateChainDocument(6, 8000, 3);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(frag::SplitAtAllLabeled(&set, "site").ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  xpath::NormQuery q = Compile("[//item[name and payment]]");
  auto parbox = testutil::Evaluate(set, *st, q);
  auto fulldist = testutil::Evaluate(set, *st, q, "fulldist");
  ASSERT_TRUE(parbox.ok() && fulldist.ok());
  uint64_t parbox_triplets = 0, fulldist_triplets = 0;
  // Compare the triplet streams only (FullDist pays extra for the
  // source-tree broadcast, which is O(card(F))).
  parbox_triplets = parbox->network_bytes;
  fulldist_triplets = fulldist->network_bytes;
  EXPECT_LT(fulldist_triplets, parbox_triplets);
}

TEST(ComplexityTest, ParBoXParallelismBeatsSequentialTraversal) {
  if (!testutil::DefaultBackendIsSim()) {
    GTEST_SKIP() << "virtual-clock property; sim backend only";
  }
  // Equal fragments on distinct sites: ParBoX's makespan should be
  // well under NaiveDistributed's strictly serialized one.
  xml::Document doc = xmark::GenerateStarDocument(8, 20000, 17);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(frag::SplitAtAllLabeled(&set, "site").ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  xpath::NormQuery q = Compile("[//person[creditcard]]");
  auto parbox = testutil::Evaluate(set, *st, q);
  auto naive = testutil::Evaluate(set, *st, q, "distributed");
  ASSERT_TRUE(parbox.ok() && naive.ok());
  EXPECT_LT(parbox->makespan_seconds, naive->makespan_seconds / 3.0);
  // But total computation is comparable (within 2x).
  EXPECT_LT(parbox->total_compute_seconds,
            2.0 * naive->total_compute_seconds + 1e-9);
}

// ---------- Hybrid tipping point ----------

TEST(HybridTest, NormalFragmentationUsesParBoX) {
  // A realistic corpus: card(F) = 5 is far below |T|/|q|.
  xml::Document doc = xmark::GenerateStarDocument(4, 8000, 2);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(frag::SplitAtAllLabeled(&set, "site").ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  xpath::NormQuery q = Compile("[//item[name]]");
  auto report = testutil::Evaluate(set, *st, q, "hybrid");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->algorithm, "HybridParBoX[ParBoX]");
}

TEST(HybridTest, TinyTreeBelowTippingPointFallsBack) {
  // The paper's 24-element portfolio with card(F)=4 and |q|~8 sits at
  // card(F) >= |T|/|q|: shipping the data is genuinely cheaper.
  Portfolio p = MakePortfolio();
  xpath::NormQuery q = Compile(xmark::kYhooQuery);
  ASSERT_GE(p.set.live_count(), p.set.TotalElements() / q.size());
  auto report = testutil::Evaluate(p.set, p.st, q, "hybrid");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->algorithm, "HybridParBoX[NaiveCentralized]");
}

TEST(HybridTest, PathologicalFragmentationFallsBack) {
  // Fragment nearly every element: card(F) approaches |T|, far beyond
  // |T|/|q|, so Hybrid must choose NaiveCentralized.
  Rng rng(5);
  xml::Document doc = xmark::GenerateRandomSmallDocument(60, &rng);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(frag::RandomSplits(&set, 40, &rng, 1).ok());
  auto st = SourceTree::Create(set, frag::AssignRoundRobin(set, 4));
  ASSERT_TRUE(st.ok());
  xpath::NormQuery q = Compile("[//a/b/c/d]");
  ASSERT_GE(set.live_count(), set.TotalElements() / q.size());
  auto report = testutil::Evaluate(set, *st, q, "hybrid");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->algorithm, "HybridParBoX[NaiveCentralized]");
}

// ---------- Lazy behaviour ----------

TEST(LazyTest, StopsAtRootWhenAnswerIsThere) {
  // Chain of 5 fragments; marker v0 lives in the root fragment. Lazy
  // must evaluate only depth 0 (visits at deeper sites: zero).
  xml::Document doc = xmark::GenerateChainDocument(5, 4000, 23);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(frag::SplitAtAllLabeled(&set, "site").ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  auto q = xmark::MakeMarkerQuery("v0");
  ASSERT_TRUE(q.ok());
  auto report = testutil::Evaluate(set, *st, *q, "lazy");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->answer);
  // The paper's first step covers the coordinator plus depth 1: "only
  // 2 machines evaluate q_F0"; the three deeper sites stay idle.
  EXPECT_EQ(report->total_visits(), 2u);
}

TEST(LazyTest, DescendsUntilSatisfied) {
  xml::Document doc = xmark::GenerateChainDocument(5, 4000, 23);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(frag::SplitAtAllLabeled(&set, "site").ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  auto q = xmark::MakeMarkerQuery("v4");  // deepest fragment
  ASSERT_TRUE(q.ok());
  auto lazy = testutil::Evaluate(set, *st, *q, "lazy");
  auto parbox = testutil::Evaluate(set, *st, *q);
  ASSERT_TRUE(lazy.ok() && parbox.ok());
  EXPECT_TRUE(lazy->answer);
  EXPECT_EQ(lazy->total_visits(), 5u);  // had to touch every depth
  // Sequential depth-stepping is slower end-to-end than ParBoX. A
  // virtual-clock property: on the thread pool both makespans are
  // real microseconds apart and scheduler noise can invert them.
  if (testutil::DefaultBackendIsSim()) {
    EXPECT_GT(lazy->makespan_seconds, parbox->makespan_seconds);
  }
}

TEST(LazyTest, SavesComputationWhenSatisfiedEarly) {
  xml::Document doc = xmark::GenerateChainDocument(6, 6000, 29);
  auto set_result = FragmentSet::FromDocument(std::move(doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(frag::SplitAtAllLabeled(&set, "site").ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  auto q = xmark::MakeMarkerQuery("v1");
  ASSERT_TRUE(q.ok());
  auto lazy = testutil::Evaluate(set, *st, *q, "lazy");
  auto parbox = testutil::Evaluate(set, *st, *q);
  ASSERT_TRUE(lazy.ok() && parbox.ok());
  EXPECT_TRUE(lazy->answer);
  EXPECT_LT(lazy->total_ops, parbox->total_ops);
}

// ---------- Engine validation ----------

TEST(EngineTest, MismatchedSourceTreeRejected) {
  Portfolio p = MakePortfolio();
  // A source tree built from a *different* fragment set (fewer ids).
  auto other = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other->Merge(2).ok());
  auto st = SourceTree::Create(*other, {0, 1, -1, 1});
  ASSERT_TRUE(st.ok());
  xpath::NormQuery q = Compile("[//a]");
  // Same root id here, so this passes the cheap check; but running
  // with a coherent but different set is the caller's bug we cannot
  // always catch. What we *must* catch: empty/malformed queries.
  xpath::NormQuery empty;
  auto report = testutil::Evaluate(p.set, p.st, empty);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace parbox::core
