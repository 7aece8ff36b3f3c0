#include <gtest/gtest.h>

#include "core/partial_eval.h"
#include "core/retained.h"
#include "core/view.h"
#include "fragment/delta.h"
#include "testutil.h"
#include "xmark/generator.h"
#include "xmark/portfolio.h"
#include "xpath/eval.h"
#include "xpath/fingerprint.h"
#include "xpath/normalize.h"

namespace parbox::core {
namespace {

using frag::Delta;
using frag::FragmentId;
using frag::FragmentSet;

struct ViewFixture {
  FragmentSet set;
  xpath::NormQuery query;
};

ViewFixture MakePortfolioFixture(std::string_view query_text) {
  auto set = xmark::BuildPortfolioFragments();
  EXPECT_TRUE(set.ok());
  auto q = xpath::CompileQuery(query_text);
  EXPECT_TRUE(q.ok());
  return ViewFixture{std::move(*set), std::move(*q)};
}

TEST(ViewTest, MaterializesInitialAnswer) {
  ViewFixture fx = MakePortfolioFixture(xmark::kYhooQuery);
  auto view =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->answer());
}

TEST(ViewTest, InsNodeFlipsAnswer) {
  // Query for a stock that does not exist yet; insert it; refresh.
  ViewFixture fx = MakePortfolioFixture("[//stock[code = \"MSFT\"]]");
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  ASSERT_TRUE(view_result.ok());
  MaterializedView view = std::move(*view_result);
  EXPECT_FALSE(view.answer());

  // insNode a <stock><code>MSFT</code></stock> under F3's market.
  xml::Node* market = fx.set.fragment(3).root;
  auto stock = view.Apply(Delta::InsertSubtree(3, market, "stock"));
  ASSERT_TRUE(stock.ok());
  auto code = view.Apply(Delta::InsertSubtree(3, stock->node, "code", "MSFT"));
  ASSERT_TRUE(code.ok());

  auto report = view.Refresh(3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(view.answer());
  EXPECT_EQ(report->algorithm, "ViewRefresh[changed]");
  EXPECT_EQ(*view.RecomputeFromScratch(), view.answer());
}

TEST(ViewTest, DelNodeFlipsAnswerBack) {
  ViewFixture fx = MakePortfolioFixture("[//stock[code = \"IBM\"]]");
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  MaterializedView view = std::move(*view_result);
  EXPECT_TRUE(view.answer());

  // IBM lives in F0 (the NYSE market).
  xml::Node* ibm_code = nullptr;
  std::vector<xml::Node*> stack{fx.set.fragment(0).root};
  while (!stack.empty()) {
    xml::Node* n = stack.back();
    stack.pop_back();
    if (n->is_element() && n->label() == "stock") {
      if (xml::FindFirstElement(n, "code") != nullptr &&
          xml::DirectTextEquals(*xml::FindFirstElement(n, "code"), "IBM")) {
        ibm_code = n;
      }
    }
    for (xml::Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  ASSERT_NE(ibm_code, nullptr);
  ASSERT_TRUE(view.Apply(Delta::DeleteSubtree(0, ibm_code)).ok());
  auto report = view.Refresh(0);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(view.answer());
}

TEST(ViewTest, RefreshOnlyVisitsTheUpdatedFragmentsSite) {
  ViewFixture fx = MakePortfolioFixture(xmark::kYhooQuery);
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  MaterializedView view = std::move(*view_result);
  auto stock =
      view.Apply(Delta::InsertSubtree(3, fx.set.fragment(3).root, "stock"));
  ASSERT_TRUE(stock.ok());
  auto report = view.Refresh(3);
  ASSERT_TRUE(report.ok());
  // Fragment 3 lives at site 2; sites 0 (the view site) and 1 are not
  // visited for fragment work.
  EXPECT_EQ(report->visits_per_site, (std::vector<uint64_t>{0, 0, 1}));
}

TEST(ViewTest, IrrelevantUpdateKeepsTripletAndSkipsResolve) {
  ViewFixture fx = MakePortfolioFixture(xmark::kYhooQuery);
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  MaterializedView view = std::move(*view_result);
  // Inserting an unrelated element does not change any sub-query value
  // at F3's root.
  auto node = view.Apply(
      Delta::InsertSubtree(3, fx.set.fragment(3).root, "unrelated"));
  ASSERT_TRUE(node.ok());
  auto report = view.Refresh(3);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->algorithm, "ViewRefresh[unchanged]");
  EXPECT_TRUE(view.answer());
}

TEST(ViewTest, RefreshTrafficIndependentOfUpdateSize) {
  ViewFixture fx = MakePortfolioFixture(xmark::kYhooQuery);
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  MaterializedView view = std::move(*view_result);
  // Small update.
  auto n1 = view.Apply(Delta::InsertSubtree(3, fx.set.fragment(3).root, "x"));
  ASSERT_TRUE(n1.ok());
  auto small = view.Refresh(3);
  ASSERT_TRUE(small.ok());
  // Large update: 200 inserted nodes.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        view.Apply(Delta::InsertSubtree(3, fx.set.fragment(3).root, "y"))
            .ok());
  }
  auto large = view.Refresh(3);
  ASSERT_TRUE(large.ok());
  // Traffic (one triplet either way) does not scale with the update.
  EXPECT_LT(large->network_bytes, 2 * small->network_bytes + 64);
}

TEST(ViewTest, DelNodeGuards) {
  ViewFixture fx = MakePortfolioFixture(xmark::kYhooQuery);
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  MaterializedView view = std::move(*view_result);
  // Cannot delete a fragment root.
  EXPECT_FALSE(
      view.Apply(Delta::DeleteSubtree(1, fx.set.fragment(1).root)).ok());
  // Cannot delete a subtree containing a virtual node (F1 holds F2's
  // placeholder as a direct child of its broker root).
  xml::Node* placeholder = frag::FindVirtualRef(fx.set, 1, 2);
  ASSERT_NE(placeholder, nullptr);
  EXPECT_FALSE(view.Apply(Delta::DeleteSubtree(1, placeholder)).ok());
  // Unknown fragments are rejected too.
  EXPECT_FALSE(view.Apply(Delta::DeleteSubtree(99, placeholder)).ok());
  EXPECT_TRUE(fx.set.Validate().ok());
  EXPECT_EQ(*view.RecomputeFromScratch(), view.answer());
}

// A delta whose node lies outside the named fragment is refused before
// it touches the document: refreshing the named fragment alone would
// otherwise leave the view stale.
TEST(ViewTest, ApplyRejectsNodeOutsideNamedFragment) {
  ViewFixture fx = MakePortfolioFixture("[//stock[code = \"MSFT\"]]");
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  ASSERT_TRUE(view_result.ok());
  MaterializedView view = std::move(*view_result);
  EXPECT_FALSE(view.answer());

  // F3's root claimed as a node of F0.
  auto stock =
      view.Apply(Delta::InsertSubtree(0, fx.set.fragment(3).root, "stock"));
  ASSERT_FALSE(stock.ok());
  EXPECT_NE(stock.status().message().find("not a member"), std::string::npos)
      << stock.status().ToString();
  ASSERT_TRUE(view.Refresh(0).ok());
  EXPECT_FALSE(view.answer());
  EXPECT_FALSE(*view.RecomputeFromScratch());
}

TEST(ViewTest, SplitFragmentsKeepsAnswer) {
  // Example 5.1: insert a new stock into F0, then split at the market.
  ViewFixture fx = MakePortfolioFixture(xmark::kYhooQuery);
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  MaterializedView view = std::move(*view_result);
  bool before = view.answer();

  xml::Node* nyse = xml::FindFirstElement(fx.set.fragment(0).root, "market");
  ASSERT_NE(nyse, nullptr);
  auto f4 = view.SplitFragments(0, nyse, /*new_site=*/3);
  ASSERT_TRUE(f4.ok()) << f4.status().ToString();
  EXPECT_EQ(view.answer(), before);
  EXPECT_EQ(view.source_tree().site_of(*f4), 3);
  EXPECT_TRUE(fx.set.Validate().ok());
  EXPECT_EQ(*view.RecomputeFromScratch(), before);
}

TEST(ViewTest, MergeFragmentsKeepsAnswer) {
  ViewFixture fx = MakePortfolioFixture(xmark::kYhooQuery);
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  MaterializedView view = std::move(*view_result);
  bool before = view.answer();
  ASSERT_TRUE(view.MergeFragments(2).ok());
  EXPECT_EQ(view.answer(), before);
  EXPECT_EQ(fx.set.live_count(), 3u);
  EXPECT_EQ(*view.RecomputeFromScratch(), before);
}

TEST(ViewTest, SplitThenContentUpdateThenMerge) {
  ViewFixture fx = MakePortfolioFixture("[//stock[code = \"HPQ\"]]");
  auto view_result =
      MaterializedView::Create(&fx.set, {0, 1, 2, 2}, &fx.query);
  MaterializedView view = std::move(*view_result);
  EXPECT_FALSE(view.answer());

  xml::Node* nyse = xml::FindFirstElement(fx.set.fragment(0).root, "market");
  auto f4 = view.SplitFragments(0, nyse, 3);
  ASSERT_TRUE(f4.ok());
  auto stock = view.Apply(
      Delta::InsertSubtree(*f4, fx.set.fragment(*f4).root, "stock"));
  ASSERT_TRUE(stock.ok());
  ASSERT_TRUE(
      view.Apply(Delta::InsertSubtree(*f4, stock->node, "code", "HPQ")).ok());
  ASSERT_TRUE(view.Refresh(*f4).ok());
  EXPECT_TRUE(view.answer());

  ASSERT_TRUE(view.MergeFragments(*f4).ok());
  EXPECT_TRUE(view.answer());
  EXPECT_EQ(*view.RecomputeFromScratch(), true);
}

// Property: a random sequence of typed deltas (insert, delete, rename,
// retext) + refreshes keeps the view consistent with from-scratch
// evaluation.
class ViewPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViewPropertyTest, IncrementalEqualsRecompute) {
  Rng rng(GetParam());
  auto scenario = testutil::MakeRandomScenario(GetParam() + 500, 80, 4);
  auto ast = testutil::RandomQual(&rng, 3);
  xpath::NormQuery q = xpath::Normalize(*ast);

  auto view_result = MaterializedView::Create(
      &scenario.set, testutil::SitesOf(scenario), &q);
  ASSERT_TRUE(view_result.ok()) << view_result.status().ToString();
  MaterializedView view = std::move(*view_result);

  for (int step = 0; step < 12; ++step) {
    Delta delta = testutil::RandomDelta(&scenario.set, &rng);
    auto applied = view.Apply(delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_TRUE(view.Refresh(applied->fragment).ok());

    // Oracle: full reassembly + centralized evaluation.
    auto whole = scenario.set.Reassemble();
    ASSERT_TRUE(whole.ok());
    auto expected = xpath::EvalBoolean(*whole->root(), q);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(view.answer(), *expected)
        << "seed " << GetParam() << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewPropertyTest,
                         ::testing::Range<uint64_t>(0, 15));

// ---- RetainedSystem ----------------------------------------------------

RetainedSystem PartialEvalAll(bexpr::ExprFactory* factory,
                              const xpath::NormQuery& q,
                              const FragmentSet& set) {
  RetainedSystem system;
  system.Reset(set.table_size());
  for (FragmentId f : set.live_ids()) {
    xpath::EvalCounters counters;
    EXPECT_TRUE(system.Splice(PartialEvalFragment(factory, q, set, f,
                                                  &counters)));
  }
  return system;
}

TEST(RetainedSystemTest, TruncationIsThePrefixQuerysOwnSystem) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto a = xpath::CompileQuery("[//broker/market]");
  auto b = xpath::CompileQuery("[//broker/market and label() = portfolio]");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(xpath::IsQListPrefix(*a, *b));
  ASSERT_LT(a->size(), b->size());

  bexpr::ExprFactory factory;
  const RetainedSystem own = PartialEvalAll(&factory, *a, *set);
  const RetainedSystem donor = PartialEvalAll(&factory, *b, *set);
  ASSERT_TRUE(donor.Covers(*set, a->size()));
  RetainedSystem truncated = donor.TruncateTo(a->size());
  for (FragmentId f : set->live_ids()) {
    EXPECT_EQ(truncated.triplet(f).fragment, own.triplet(f).fragment);
    EXPECT_EQ(truncated.triplet(f).v, own.triplet(f).v) << "F" << f;
    EXPECT_EQ(truncated.triplet(f).cv, own.triplet(f).cv) << "F" << f;
    EXPECT_EQ(truncated.triplet(f).dv, own.triplet(f).dv) << "F" << f;
  }
  auto answer = truncated.Resolve(&factory, set->ChildrenTable(),
                                  set->root_fragment(), a->root());
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto whole = set->Reassemble();
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*answer, *xpath::EvalBoolean(*whole->root(), *a));
  EXPECT_EQ(truncated.answer(), *answer);
}

TEST(RetainedSystemTest, SpliceOfAnIdenticalReevaluationIsUnchanged) {
  ViewFixture fx = MakePortfolioFixture(xmark::kYhooQuery);
  bexpr::ExprFactory factory;
  RetainedSystem system = PartialEvalAll(&factory, fx.query, fx.set);
  for (FragmentId f : fx.set.live_ids()) {
    xpath::EvalCounters counters;
    EXPECT_FALSE(system.Splice(
        PartialEvalFragment(&factory, fx.query, fx.set, f, &counters)))
        << "F" << f;
  }
}

TEST(RetainedSystemTest, CoversIsFalseWithAHole) {
  ViewFixture fx = MakePortfolioFixture(xmark::kYhooQuery);
  bexpr::ExprFactory factory;
  RetainedSystem system;
  system.Reset(fx.set.table_size());
  const std::vector<FragmentId> live = fx.set.live_ids();
  for (size_t i = 0; i + 1 < live.size(); ++i) {
    xpath::EvalCounters counters;
    system.Splice(
        PartialEvalFragment(&factory, fx.query, fx.set, live[i], &counters));
  }
  EXPECT_FALSE(system.Covers(fx.set, fx.query.size()));
  xpath::EvalCounters counters;
  system.Splice(
      PartialEvalFragment(&factory, fx.query, fx.set, live.back(), &counters));
  EXPECT_TRUE(system.Covers(fx.set, fx.query.size()));
  // Wider than the retained triplets, or a different table shape.
  EXPECT_FALSE(system.Covers(fx.set, fx.query.size() + 1));
  system.Resize(fx.set.table_size() + 1);
  EXPECT_FALSE(system.Covers(fx.set, fx.query.size()));
}

}  // namespace
}  // namespace parbox::core
