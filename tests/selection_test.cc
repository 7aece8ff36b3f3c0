#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/selection.h"
#include "testutil.h"
#include "xmark/portfolio.h"
#include "xpath/normalize.h"
#include "xpath/parser.h"
#include "xpath/reference_eval.h"

namespace parbox::core {
namespace {

using frag::FragmentSet;
using frag::SourceTree;

/// Select with the node predicate `q` on a fresh session over (set, st).
Result<SelectionResult> Select(const FragmentSet& set, const SourceTree& st,
                               const xpath::NormQuery& q) {
  PARBOX_ASSIGN_OR_RETURN(Session session, Session::Create(&set, &st));
  PARBOX_ASSIGN_OR_RETURN(PreparedQuery prepared, session.Prepare(&q));
  return RunSelectionParBoX(session, prepared);
}

TEST(SelectionTest, SelectsStocksByCode) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  ASSERT_TRUE(st.ok());
  // Predicate: "is a stock whose code is GOOG" — holds at two nodes
  // (one in F2, one in F3).
  auto q = xpath::CompileQuery("[label() = stock and code = \"GOOG\"]");
  ASSERT_TRUE(q.ok());
  auto result = Select(*set, *st, *q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_selected, 2u);
  EXPECT_EQ(result->selected_by_fragment[2].size(), 1u);
  EXPECT_EQ(result->selected_by_fragment[3].size(), 1u);
  for (const xml::Node* n : result->AllSelected()) {
    EXPECT_EQ(n->label(), "stock");
  }
}

TEST(SelectionTest, AtMostTwoVisitsPerSite) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  ASSERT_TRUE(st.ok());
  auto q = xpath::CompileQuery("[label() = market]");
  ASSERT_TRUE(q.ok());
  auto result = Select(*set, *st, *q);
  ASSERT_TRUE(result.ok());
  // Site S2 holds two fragments yet is visited exactly twice (once per
  // pass), which is the Sec. 8 guarantee.
  EXPECT_EQ(result->report.visits_per_site,
            (std::vector<uint64_t>{2, 2, 2}));
}

TEST(SelectionTest, CrossFragmentPredicate) {
  // "brokers that trade YHOO": the broker element is F1's root, but
  // the evidence (the YHOO stock) lives two fragments away in F2.
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  ASSERT_TRUE(st.ok());
  auto q = xpath::CompileQuery(
      "[label() = broker and .//stock/code/text() = \"YHOO\"]");
  ASSERT_TRUE(q.ok());
  auto result = Select(*set, *st, *q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->total_selected, 1u);
  EXPECT_EQ(result->selected_by_fragment[1].size(), 1u);  // Merill Lynch
}

TEST(SelectionTest, EmptySelection) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  ASSERT_TRUE(st.ok());
  auto q = xpath::CompileQuery("[label() = nonexistent]");
  ASSERT_TRUE(q.ok());
  auto result = Select(*set, *st, *q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_selected, 0u);
  EXPECT_FALSE(result->report.answer);
}

// Property: a node is selected iff the reference evaluator says the
// predicate holds at it (over the reassembled tree).
class SelectionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelectionPropertyTest, MatchesReferenceSemantics) {
  Rng rng(GetParam() * 31 + 7);
  auto scenario = testutil::MakeRandomScenario(GetParam() + 900, 60, 4);
  for (int i = 0; i < 5; ++i) {
    auto ast = testutil::RandomQual(&rng, 2);
    xpath::NormQuery q = xpath::Normalize(*ast);
    auto result = Select(scenario.set, scenario.st, q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // Count the expected matches over the reassembled tree.
    auto whole = scenario.set.Reassemble();
    ASSERT_TRUE(whole.ok());
    size_t expected = 0;
    std::vector<const xml::Node*> stack{whole->root()};
    while (!stack.empty()) {
      const xml::Node* n = stack.back();
      stack.pop_back();
      if (n->is_element() && xpath::ReferenceEval(*ast, *n)) ++expected;
      for (const xml::Node* c = n->first_child; c != nullptr;
           c = c->next_sibling) {
        stack.push_back(c);
      }
    }
    EXPECT_EQ(result->total_selected, expected)
        << "seed " << GetParam() << " query " << xpath::ToString(*ast);
    // And the guarantee: never more than two visits anywhere.
    EXPECT_LE(result->report.max_visits_per_site(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace parbox::core
