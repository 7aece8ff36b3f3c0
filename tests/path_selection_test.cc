// Tests for the data-selection extension: path queries returning node
// sets, matches threading through multiple fragments.

#include <gtest/gtest.h>

#include "boolexpr/expr.h"
#include "core/path_selection.h"
#include "fragment/strategies.h"
#include "testutil.h"
#include "xmark/portfolio.h"
#include "xml/parser.h"
#include "xpath/parser.h"
#include "xpath/reference_eval.h"

namespace parbox::core {
namespace {

using frag::FragmentId;
using frag::FragmentSet;
using frag::SourceTree;

struct Deployed {
  FragmentSet set;
  SourceTree st;
};

/// Select with `selection` on a fresh session over (set, st).
Result<SelectionResult> Select(const FragmentSet& set, const SourceTree& st,
                               const xpath::SelectionQuery& selection) {
  PARBOX_ASSIGN_OR_RETURN(Session session, Session::Create(&set, &st));
  return RunPathSelection(session, selection);
}

/// Compile `path` and select with it.
Result<SelectionResult> Select(const FragmentSet& set, const SourceTree& st,
                               std::string_view path) {
  PARBOX_ASSIGN_OR_RETURN(xpath::SelectionQuery selection,
                          xpath::CompileSelection(path));
  return Select(set, st, selection);
}

Deployed Portfolio() {
  auto set = xmark::BuildPortfolioFragments();
  EXPECT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  EXPECT_TRUE(st.ok());
  return Deployed{std::move(*set), std::move(*st)};
}

TEST(PathSelectionTest, SelectsAllStocksAcrossFragments) {
  Deployed d = Portfolio();
  auto result = Select(d.set, d.st, "//stock");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Fig. 1(b): five stocks — 1 in F0 (IBM), 2 in F2, 2 in F3.
  EXPECT_EQ(result->total_selected, 5u);
  EXPECT_EQ(result->selected_by_fragment[0].size(), 1u);
  EXPECT_EQ(result->selected_by_fragment[1].size(), 0u);
  EXPECT_EQ(result->selected_by_fragment[2].size(), 2u);
  EXPECT_EQ(result->selected_by_fragment[3].size(), 2u);
  for (const xml::Node* n : result->AllSelected()) {
    EXPECT_EQ(n->label(), "stock");
  }
}

TEST(PathSelectionTest, ChildStepsCrossFragmentBoundaries) {
  Deployed d = Portfolio();
  // /portofolio/broker/market: brokers live in F0 and F1, markets in
  // F0, F2 and F3 — each match crosses at least one boundary.
  auto result =
      Select(d.set, d.st, "[/portofolio/broker/market]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_selected, 3u);
  for (const xml::Node* n : result->AllSelected()) {
    EXPECT_EQ(n->label(), "market");
  }
}

TEST(PathSelectionTest, QualifiedPathFiltersRemotely) {
  Deployed d = Portfolio();
  // Markets that trade GOOG: F2 (Merill Lynch NASDAQ) and F3 (Bache
  // NASDAQ), but not the NYSE market in F0.
  auto result = Select(d.set, d.st, "//market[stock/code = \"GOOG\"]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_selected, 2u);
  EXPECT_EQ(result->selected_by_fragment[2].size(), 1u);
  EXPECT_EQ(result->selected_by_fragment[3].size(), 1u);
}

TEST(PathSelectionTest, QualifierEvidenceInAnotherFragment) {
  Deployed d = Portfolio();
  // Brokers trading YHOO: the broker element is F1's root; the
  // evidence is two fragments deeper (F2).
  auto result =
      Select(d.set, d.st, "//broker[.//stock/code/text() = \"YHOO\"]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->total_selected, 1u);
  EXPECT_EQ(result->selected_by_fragment[1].size(), 1u);
}

TEST(PathSelectionTest, SelfPathSelectsRoot) {
  Deployed d = Portfolio();
  auto result = Select(d.set, d.st, "[.]");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->total_selected, 1u);
  EXPECT_EQ(result->AllSelected()[0], d.set.fragment(0).root);
}

TEST(PathSelectionTest, EmptyResultReportsFalse) {
  Deployed d = Portfolio();
  auto result = Select(d.set, d.st, "//nonexistent");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_selected, 0u);
  EXPECT_FALSE(result->report.answer);
}

TEST(PathSelectionTest, AtMostTwoVisitsPerSite) {
  Deployed d = Portfolio();
  auto result = Select(d.set, d.st, "//stock");
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->report.max_visits_per_site(), 2u);
  // Sites untouched by any match still get their up-pass visit.
  for (uint64_t visits : result->report.visits_per_site) {
    EXPECT_GE(visits, 1u);
  }
}

TEST(PathSelectionTest, WildcardAndDescendantCombinations) {
  auto doc = xml::ParseXml(
      "<r><a><b><c/></b></a><a><c/></a><d><c><c/></c></d></r>");
  ASSERT_TRUE(doc.ok());
  auto set_result = FragmentSet::FromDocument(std::move(*doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_TRUE(
      set.Split(0, xml::FindFirstElement(set.fragment(0).root, "a")).ok());
  ASSERT_TRUE(
      set.Split(0, xml::FindFirstElement(set.fragment(0).root, "d")).ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());

  struct Case {
    const char* path;
    size_t expected;
  };
  for (const Case& c : {Case{"//c", 4}, Case{"*/c", 2}, Case{"*", 3},
                        Case{"a/b/c", 1}, Case{"//b//c", 1},
                        Case{"d//c", 2}, Case{".//.", 9}}) {
    auto result = Select(set, *st, c.path);
    ASSERT_TRUE(result.ok()) << c.path;
    EXPECT_EQ(result->total_selected, c.expected) << c.path;
  }
}

TEST(PathSelectionTest, BooleanQueryRejected) {
  Deployed d = Portfolio();
  auto result = Select(d.set, d.st, "[//a and //b]");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// Property: selection equals the reference path evaluator over the
// reassembled tree (counts compared; pointers differ by construction).
class PathSelectionPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PathSelectionPropertyTest, MatchesReferencePathSemantics) {
  Rng rng(GetParam() * 613 + 11);
  auto scenario = testutil::MakeRandomScenario(GetParam() + 4000, 70, 4);
  for (int i = 0; i < 6; ++i) {
    auto path = testutil::RandomPath(&rng, 3);
    xpath::SelectionQuery selection = xpath::NormalizeSelection(*path);
    if (selection.query.size() >
        static_cast<size_t>(bexpr::VarId::kMaxQueryIndex)) {
      continue;
    }
    auto result = Select(scenario.set, scenario.st, selection);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    auto whole = scenario.set.Reassemble();
    ASSERT_TRUE(whole.ok());
    auto expected = xpath::ReferencePathEval(*path, *whole->root());
    EXPECT_EQ(result->total_selected, expected.size())
        << "seed " << GetParam() << " path " << xpath::ToString(*path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathSelectionPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace parbox::core
