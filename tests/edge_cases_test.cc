// Edge cases that cut across modules: tombstoned fragment tables,
// selection/Boolean consistency, run determinism, writer/virtual-node
// round trips under pretty-printing.

#include <gtest/gtest.h>

#include "core/path_selection.h"
#include "core/session.h"
#include "fragment/delta.h"
#include "testutil.h"
#include "xmark/portfolio.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/eval.h"
#include "xpath/normalize.h"
#include "xpath/parser.h"

namespace parbox::core {
namespace {

using frag::FragmentId;
using frag::FragmentSet;
using frag::SourceTree;

TEST(TombstoneTest, AlgorithmsRunCorrectlyAfterMerges) {
  // Merge fragments out of a random scenario: the fragment table then
  // contains dead slots, which every algorithm must skip cleanly.
  auto scenario = testutil::MakeRandomScenario(99, 120, 6);
  ASSERT_GE(scenario.set.live_count(), 4u);
  // Merge two non-root fragments.
  int merged = 0;
  for (FragmentId f : scenario.set.live_ids()) {
    if (f != scenario.set.root_fragment() && merged < 2) {
      ASSERT_TRUE(scenario.set.Merge(f).ok());
      ++merged;
    }
  }
  ASSERT_EQ(merged, 2);
  ASSERT_GT(scenario.set.table_size(), scenario.set.live_count());
  ASSERT_TRUE(scenario.set.Validate().ok());
  // Source tree must be rebuilt after fragmentation changes.
  auto st = SourceTree::Create(scenario.set,
                               frag::AssignOneSitePerFragment(scenario.set));
  ASSERT_TRUE(st.ok());

  auto whole = scenario.set.Reassemble();
  ASSERT_TRUE(whole.ok());
  auto q = xpath::CompileQuery("[//a[b] or //c]");
  ASSERT_TRUE(q.ok());
  bool expected = *xpath::EvalBoolean(*whole->root(), *q);
  auto reports = testutil::EvaluateAll(scenario.set, *st, *q);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  for (const RunReport& r : *reports) {
    EXPECT_EQ(r.answer, expected) << r.algorithm;
  }
}

TEST(SelectionConsistencyTest, PathSelectionAgreesWithBooleanAnswer) {
  // The compiled selection query, run as a Boolean, must say true iff
  // the selection is non-empty — on the portfolio and random scenarios.
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, {0, 1, 2, 2});
  ASSERT_TRUE(st.ok());
  for (const char* path : {"//stock", "//stock[code = \"YHOO\"]",
                           "//nonexistent", "broker/name",
                           "//market[name = \"NYSE\"]/stock"}) {
    auto selection = xpath::CompileSelection(path);
    ASSERT_TRUE(selection.ok()) << path;
    auto session = Session::Create(&*set, &*st);
    ASSERT_TRUE(session.ok());
    auto selected = RunPathSelection(*session, *selection);
    ASSERT_TRUE(selected.ok()) << path;
    auto boolean = testutil::Evaluate(*set, *st, selection->query);
    ASSERT_TRUE(boolean.ok());
    EXPECT_EQ(boolean->answer, selected->total_selected > 0) << path;
  }
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalReports) {
  if (!testutil::DefaultBackendIsSim()) {
    GTEST_SKIP() << "virtual-clock property; sim backend only";
  }
  auto scenario = testutil::MakeRandomScenario(123, 150, 5);
  auto q = xpath::CompileQuery("[//a and not(//e/text() = \"t3\")]");
  ASSERT_TRUE(q.ok());
  auto r1 = testutil::Evaluate(scenario.set, scenario.st, *q);
  auto r2 = testutil::Evaluate(scenario.set, scenario.st, *q);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->answer, r2->answer);
  EXPECT_DOUBLE_EQ(r1->makespan_seconds, r2->makespan_seconds);
  EXPECT_EQ(r1->network_bytes, r2->network_bytes);
  EXPECT_EQ(r1->network_messages, r2->network_messages);
  EXPECT_EQ(r1->visits_per_site, r2->visits_per_site);
  EXPECT_EQ(r1->total_ops, r2->total_ops);
}

TEST(DeterminismTest, NetworkParamsAffectOnlyTiming) {
  if (!testutil::DefaultBackendIsSim()) {
    GTEST_SKIP() << "virtual-clock property; sim backend only";
  }
  auto scenario = testutil::MakeRandomScenario(124, 150, 5);
  auto q = xpath::CompileQuery("[//b/c]");
  ASSERT_TRUE(q.ok());
  sim::NetworkParams slow;
  slow.latency_seconds = 0.5;
  slow.bandwidth_bytes_per_second = 1e3;
  auto fast_run = testutil::Evaluate(scenario.set, scenario.st, *q);
  auto slow_run =
      testutil::Evaluate(scenario.set, scenario.st, *q, "parbox", slow);
  ASSERT_TRUE(fast_run.ok() && slow_run.ok());
  EXPECT_EQ(fast_run->answer, slow_run->answer);
  EXPECT_EQ(fast_run->network_bytes, slow_run->network_bytes);
  EXPECT_GT(slow_run->makespan_seconds, fast_run->makespan_seconds);
}

TEST(SelectionQueryTest, MarkIsWellFormedAndBooleanEquivalent) {
  // NormalizeSelection's query, evaluated as a Boolean, equals the
  // plain Boolean compilation of the same path text.
  auto doc = xml::ParseXml("<r><a><b>x</b></a><c/></r>");
  ASSERT_TRUE(doc.ok());
  for (const char* path : {"//b", "a/b", "c", "//z", ".", "*"}) {
    auto selection = xpath::CompileSelection(path);
    ASSERT_TRUE(selection.ok()) << path;
    EXPECT_TRUE(selection->query.IsWellFormed());
    EXPECT_EQ(selection->query.at(selection->mark).kind,
              xpath::NormKind::kMark);
    auto boolean = xpath::CompileQuery(path);
    ASSERT_TRUE(boolean.ok());
    EXPECT_EQ(*xpath::EvalBoolean(*doc->root(), selection->query),
              *xpath::EvalBoolean(*doc->root(), *boolean))
        << path;
  }
}

TEST(WriterTest, IndentedFragmentWithVirtualNodesRoundTrips) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  for (FragmentId f : set->live_ids()) {
    std::string pretty =
        xml::WriteXml(set->fragment(f).root, {.indent = true});
    auto parsed = xml::ParseXml(pretty);
    ASSERT_TRUE(parsed.ok()) << "F" << f << ": "
                             << parsed.status().ToString();
    EXPECT_TRUE(xml::TreeEquals(set->fragment(f).root, parsed->root()))
        << "F" << f;
  }
}

TEST(SingleSiteTest, EverythingLocalMeansZeroTraffic) {
  auto set = xmark::BuildPortfolioFragments();
  ASSERT_TRUE(set.ok());
  auto st = SourceTree::Create(*set, frag::AssignAllToOneSite(*set));
  ASSERT_TRUE(st.ok());
  auto q = xpath::CompileQuery(xmark::kYhooQuery);
  ASSERT_TRUE(q.ok());
  auto reports = testutil::EvaluateAll(*set, *st, *q);
  ASSERT_TRUE(reports.ok());
  for (const RunReport& r : *reports) {
    EXPECT_TRUE(r.answer) << r.algorithm;
    EXPECT_EQ(r.network_bytes, 0u) << r.algorithm;
  }
}

TEST(SingleFragmentTest, DegenerateDeploymentWorksEverywhere) {
  auto doc = xml::ParseXml("<r><a><b/></a></r>");
  ASSERT_TRUE(doc.ok());
  auto set_result = FragmentSet::FromDocument(std::move(*doc));
  FragmentSet set = std::move(*set_result);
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  auto q = xpath::CompileQuery("[a/b]");
  ASSERT_TRUE(q.ok());
  auto reports = testutil::EvaluateAll(set, *st, *q);
  ASSERT_TRUE(reports.ok());
  for (const RunReport& r : *reports) {
    EXPECT_TRUE(r.answer) << r.algorithm;
    EXPECT_LE(r.max_visits_per_site(), 1u) << r.algorithm;
  }
  auto selection = xpath::CompileSelection("a/b");
  ASSERT_TRUE(selection.ok());
  auto session = Session::Create(&set, &*st);
  ASSERT_TRUE(session.ok());
  auto selected = RunPathSelection(*session, *selection);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->total_selected, 1u);
}

// ---- Update edge cases (fragment/delta.h + Session::Apply) -------------

using frag::Delta;

// A fragment that is just its root element (the smallest legal
// fragment) must accept every content delta and evaluate correctly
// before and after.
TEST(UpdateEdgeCaseTest, RootOnlyFragmentAcceptsDeltas) {
  auto doc = xml::ParseXml("<r/>");
  ASSERT_TRUE(doc.ok());
  auto set_result = FragmentSet::FromDocument(std::move(*doc));
  FragmentSet set = std::move(*set_result);
  ASSERT_EQ(set.FragmentElements(0), 1u);
  auto st = SourceTree::Create(set, frag::AssignAllToOneSite(set));
  ASSERT_TRUE(st.ok());

  auto session = Session::Create(&set, &*st);
  ASSERT_TRUE(session.ok());
  auto q = session->Prepare("[a/text() = \"x\"]");
  ASSERT_TRUE(q.ok());
  auto before = session->ExecuteIncremental(*q);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->answer);

  // Retext the lone root, then grow a child under it.
  ASSERT_TRUE(
      session->Apply(Delta::Retext(0, set.fragment(0).root, "t")).ok());
  auto inserted = session->Apply(
      Delta::InsertSubtree(0, set.fragment(0).root, "a", "x"));
  ASSERT_TRUE(inserted.ok());
  auto after = session->ExecuteIncremental(*q);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->answer);
  auto fresh = testutil::Evaluate(set, *st, q->query());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->answer);
  ASSERT_TRUE(set.Validate().ok());
}

// Deleting every child of a fragment root leaves a live, empty
// fragment that must keep evaluating (and stay mergeable/valid).
TEST(UpdateEdgeCaseTest, DeleteCanEmptyAFragment) {
  auto doc = xml::ParseXml("<r><s><a>t0</a><b/></s><c/></r>");
  ASSERT_TRUE(doc.ok());
  auto set_result = FragmentSet::FromDocument(std::move(*doc));
  FragmentSet set = std::move(*set_result);
  xml::Node* s_node = xml::FindFirstElement(set.fragment(0).root, "s");
  auto f = set.Split(0, s_node);
  ASSERT_TRUE(f.ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());

  auto session = Session::Create(&set, &*st);
  ASSERT_TRUE(session.ok());
  auto q = session->Prepare("[//s/a]");
  ASSERT_TRUE(q.ok());
  auto before = session->ExecuteIncremental(*q);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->answer);

  // Drain the fragment: delete both children of <s>.
  while (set.fragment(*f).root->first_child != nullptr) {
    ASSERT_TRUE(session
                    ->Apply(Delta::DeleteSubtree(
                        *f, set.fragment(*f).root->first_child))
                    .ok());
  }
  EXPECT_EQ(set.FragmentElements(*f), 1u);  // just <s> itself
  ASSERT_TRUE(set.Validate().ok());

  auto after = session->ExecuteIncremental(*q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->answer);
  auto reports = testutil::EvaluateAll(set, *st, q->query());
  ASSERT_TRUE(reports.ok());
  for (const RunReport& r : *reports) {
    EXPECT_FALSE(r.answer) << r.algorithm;
  }
  // The emptied fragment is still a regular fragment: merge works.
  EXPECT_TRUE(set.Merge(*f).ok());
  ASSERT_TRUE(set.Validate().ok());
}

// Deltas that would cross a fragment boundary are rejected atomically:
// rename/retext of a virtual node, deletion of the fragment root or of
// a subtree holding virtual nodes, and membership lies all fail with
// the document untouched.
TEST(UpdateEdgeCaseTest, BoundaryCrossingDeltasRejectedAtomically) {
  auto doc = xml::ParseXml("<r><w><s><a/></s></w></r>");
  ASSERT_TRUE(doc.ok());
  auto set_result = FragmentSet::FromDocument(std::move(*doc));
  FragmentSet set = std::move(*set_result);
  xml::Node* s_node = xml::FindFirstElement(set.fragment(0).root, "s");
  auto f = set.Split(0, s_node);
  ASSERT_TRUE(f.ok());
  auto st = SourceTree::Create(set, frag::AssignOneSitePerFragment(set));
  ASSERT_TRUE(st.ok());
  xml::Node* virtual_node = frag::FindVirtualRef(set, 0, *f);
  ASSERT_NE(virtual_node, nullptr);
  xml::Node* w_node = xml::FindFirstElement(set.fragment(0).root, "w");

  // Rename / retext a virtual node: its label and content belong to
  // the sub-fragment at another site.
  auto renamed = frag::ApplyDelta(
      &set, Delta::RenameLabel(0, virtual_node, "x"));
  ASSERT_FALSE(renamed.ok());
  EXPECT_EQ(renamed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      frag::ApplyDelta(&set, Delta::Retext(0, virtual_node, "x")).ok());

  // Delete the subtree holding the virtual node: would orphan F1.
  auto del_w = frag::ApplyDelta(&set, Delta::DeleteSubtree(0, w_node));
  ASSERT_FALSE(del_w.ok());
  EXPECT_EQ(del_w.status().code(), StatusCode::kFailedPrecondition);

  // Delete the fragment root: that is a merge, not a content delta.
  EXPECT_FALSE(
      frag::ApplyDelta(&set, Delta::DeleteSubtree(0, set.fragment(0).root))
          .ok());

  // Membership lie: the node lives in fragment 0, not F1.
  EXPECT_FALSE(
      frag::ApplyDelta(&set, Delta::RenameLabel(*f, w_node, "x")).ok());

  // Everything above was rejected before mutation.
  ASSERT_TRUE(set.Validate().ok());
  auto q = xpath::CompileQuery("[//s/a]");
  ASSERT_TRUE(q.ok());
  auto report = testutil::Evaluate(set, *st, *q);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->answer);
}

// Regression: a version chain thousands of sites deep runs every DOM
// walk end-to-end — generate, serialize, reparse, split at each site,
// partially evaluate. These walks used to recurse per nesting level
// and blew the call stack around a few thousand levels; they iterate
// with explicit stacks now, so depth is bounded by memory only.
TEST(DeepChainTest, FiveThousandLevelChainSurvivesFullPipeline) {
  constexpr int kDepth = 6000;
  xml::Document doc =
      xmark::GenerateChainDocument(kDepth, /*bytes_per_site=*/48, /*seed=*/5);

  const std::string text = xml::WriteXml(doc.root());
  auto reparsed = xml::ParseXml(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_TRUE(xml::TreeEquals(doc.root(), reparsed->root()));

  auto set = FragmentSet::FromDocument(std::move(doc));
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(frag::SplitAtAllLabeled(&*set, "site").ok());
  EXPECT_GE(set->live_count(), static_cast<size_t>(kDepth));
  auto st = SourceTree::Create(*set, frag::AssignRoundRobin(*set, 16));
  ASSERT_TRUE(st.ok());

  auto whole = set->Reassemble();
  ASSERT_TRUE(whole.ok());
  for (const char* query_text :
       {"[//site[marker = \"v5990\"]]", "[//site[marker = \"nope\"]]"}) {
    auto q = xpath::CompileQuery(query_text);
    ASSERT_TRUE(q.ok());
    auto report = testutil::Evaluate(*set, *st, *q);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->answer, *xpath::EvalBoolean(*whole->root(), *q))
        << query_text;
  }
}

}  // namespace
}  // namespace parbox::core
